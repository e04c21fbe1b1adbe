"""Exception types and the oracle's size caps and tolerance, shared
across the package.

These constants live here, not in `oracle`, so that the CLI can offer
them as option defaults, and check the partial-trace cap, without
importing numpy.
"""

#: statevector cap of the oracle, in links (2**n amplitudes)
MAX_ORACLE_LINKS = 26
#: partial-trace cap of the oracle, in links of side A.  `oracle_entropy`
#: keeps the smaller side, so its matrix is at most 2**(n/2) wide; a
#: direct `reduced_density_matrix` of 12 links is 2**12 x 2**12 complex,
#: 256 MiB
MAX_SUBSYSTEM_LINKS = 12
#: largest gap between an oracle entropy and the exact value it checks
ORACLE_TOL = 1e-9


class ResourceLimitError(RuntimeError):
    """An operation would exceed a configured size/memory cap."""


class LatticeFormatError(ValueError):
    """A lattice document failed to parse or validate.

    ``line`` is the 1-based line number of the offending entry when the
    problem is attributable to one.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_subsystem(size: int, max_subsystem: int) -> None:
    # the partial-trace cap on ``size`` links of side A
    if size > max_subsystem:
        raise ResourceLimitError(
            f"subsystem of {size} links exceeds the {max_subsystem}-link cap"
        )
