"""Cross-validation of the rank engine against the statevector oracle.

`oracle_handle` is the package's one oracle handle, for ``verify`` and
``--oracle``; it imports the oracle, and numpy, on its first side.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import bipartition_masks, evaluate
from .errors import MAX_ORACLE_LINKS, MAX_SUBSYSTEM_LINKS, ORACLE_TOL, _check_subsystem
from .gf2 import Gf2Matrix
from .lattice import Lattice, Partition, disk_region, named_partition, star_group
from .states import GroundStateCoeffs

VERIFY_MAX_K = 3


class VerifyResult(NamedTuple):
    name: str
    s_engine: int
    s_oracle: float
    passed: bool

    @property
    def deviation(self) -> float:
        return abs(self.s_oracle - self.s_engine)


def default_suite(lat: Lattice) -> dict[str, Partition]:
    """Partitions to cross-check at a given torus size.

    k=2 is small enough to sweep every proper bipartition (254 of
    them); k=3 covers the named partitions plus a unit disk.
    """
    if lat.torus_k is None:
        raise ValueError("verification suites are defined for torus lattices")
    k = lat.torus_k
    if k > VERIFY_MAX_K:
        raise ValueError(f"oracle verification is capped at k <= {VERIFY_MAX_K}")
    if k == 2:
        n = lat.n_links
        masks = bipartition_masks(n)
        return {"links:" + lat.link_list(m): Partition(n, m) for m in masks}
    suite = {
        name: named_partition(lat, name)
        for name in ("single_spin", "chain", "ladder", "cross")
    }
    part = disk_region(lat, rect=(0, 0, 1, 1)).partition
    suite["rect:0,0,1,1"] = part
    return suite


def oracle_handle(lat: Lattice, coeffs: GroundStateCoeffs, max_links: int = MAX_ORACLE_LINKS,
                  max_subsystem: int = MAX_SUBSYSTEM_LINKS):
    """The oracle's entropy of a partition in the state ``coeffs``, under
    the ``max_links`` and ``max_subsystem`` caps.

    Each call checks for a torus and, once the lattice is within
    ``max_links`` (whose error comes first, as the state build gives
    it), side A's links against ``max_subsystem`` before it imports
    the oracle.  The first call that passes builds the state and its
    support, so a command's own input checks come first and a refused
    side builds nothing.  Each distinct side A is traced once: drawn
    regions on small tori repeat.
    """
    state = support = None
    memo: dict[int, float] = {}  # a_mask -> oracle_S

    def oracle_s(part: Partition) -> float:
        nonlocal state, support
        if lat.torus_k is None:
            raise ValueError("the statevector oracle needs a torus lattice")
        if lat.n_links <= max_links:
            _check_subsystem(part.size_a, max_subsystem)
        from . import oracle

        if state is None:
            state = oracle.build_ground_state(lat, coeffs, max_links=max_links)
            support = oracle.support(state)
        s = memo.get(part.a_mask)
        if s is None:
            s = memo[part.a_mask] = oracle.oracle_entropy(
                state, part, max_subsystem=max_subsystem, support=support
            )
        return s

    return oracle_s


def verify_partitions(
    lat: Lattice,
    partitions: dict[str, Partition],
    coeffs: GroundStateCoeffs | None = None,
    *,
    generators: Gf2Matrix | None = None,
    tol: float = ORACLE_TOL,
) -> list[VerifyResult]:
    """Compare engine and oracle entropies partition by partition.

    ``generators`` overrides the star group (used to exercise the
    failure path with corrupted generator sets); the oracle state is
    always the true ground state, so a corrupted engine input shows up
    as a deviation.
    """
    if coeffs is None:
        coeffs = GroundStateCoeffs.xi(0, 0)
    group = generators if generators is not None else star_group(lat)
    oracle = oracle_handle(lat, coeffs)
    results = []
    for name in sorted(partitions):
        # the engine's S is that of every basis state, so coeffs=None
        ev = evaluate(lat, group, partitions[name], oracle=oracle, tol=tol)
        results.append(VerifyResult(name, ev.report.s_bits, ev.oracle_s, not ev.mismatch))
    return results


def max_deviation(results: list[VerifyResult]) -> float:
    return max((r.deviation for r in results), default=0.0)
