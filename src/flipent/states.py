"""Toric-code ground states and their closed-form entropies.

The four basis ground states on the torus are indexed by how many times
each noncontractible ladder flip is applied: ``xi(i, j)`` applies the
vertical-loop ladder i times and the horizontal-loop ladder j times to
the equal superposition over the star group.  A generic ground state is
a normalized complex combination of the four.

The closed forms published for the k x k torus are reproduced verbatim
by `closed_form_entropy`; `vertical` is special, see the docstring.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple

ENDPOINT_TOL = 1e-12
NORMALIZATION_TOL = 1e-12

CLOSED_FORM_NAMES = ("single_spin", "chain", "ladder", "cross", "vertical")


def amplitude_norm(amps) -> float:
    """The 2-norm of complex amplitudes, by hypot where the sum of squares overflows."""
    try:
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    except OverflowError:
        norm = math.inf
    parts = (x for a in amps for x in (a.real, a.imag))
    return norm if norm != math.inf else math.hypot(*parts)  # NaN stays NaN


class _CoeffFields(NamedTuple):
    a00: complex
    a01: complex
    a10: complex
    a11: complex


class GroundStateCoeffs(_CoeffFields):
    """Amplitudes of a toric ground state in the ladder-flip basis.

    ``a[i][j]`` multiplies the basis state with i vertical-loop and j
    horizontal-loop ladder applications; the four moduli must square-sum
    to one.  A named tuple whose every constructor, ``_make`` and
    ``_replace`` included, checks that normalization.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GroundStateCoeffs":
        coeffs = super().__new__(cls, *args, **kwargs)
        if not abs(coeffs.norm_sq() - 1.0) <= NORMALIZATION_TOL:  # rejects NaN too
            raise ValueError(
                f"coefficients are not normalized: |c|^2 = {coeffs.norm_sq()!r}"
            )
        return coeffs

    @classmethod
    def _make(cls, iterable: Iterable[complex]) -> "GroundStateCoeffs":
        return cls(*iterable)

    def norm_sq(self) -> float:
        norm = amplitude_norm(self.as_tuple())
        return norm * norm  # inf, not OverflowError, past the float range

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.a00, self.a01, self.a10, self.a11)

    @classmethod
    def xi(cls, i: int, j: int) -> "GroundStateCoeffs":
        """Basis state with unit amplitude on (i, j)."""
        if i not in (0, 1) or j not in (0, 1):
            raise ValueError("basis indices must be 0 or 1")
        amps = [0j, 0j, 0j, 0j]
        amps[2 * i + j] = 1 + 0j
        return cls(*amps)

    @classmethod
    def from_sequence(cls, amps, *, renormalize: bool = False) -> "GroundStateCoeffs":
        vals = [complex(a) for a in amps]
        if len(vals) != 4:
            raise ValueError("need exactly four amplitudes")
        if renormalize:
            norm = amplitude_norm(vals)
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            vals = [a / norm for a in vals]
        return cls(*vals)

    @classmethod
    def random(cls, rng: random.Random) -> "GroundStateCoeffs":
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        return cls.from_sequence(amps, renormalize=True)


def alpha(c: GroundStateCoeffs) -> float:
    """Weight on the two basis states with even chain parity."""
    return abs(c.a00) ** 2 + abs(c.a10) ** 2


def p_param(c: GroundStateCoeffs) -> float:
    """Interference weight of the vertical-loop ladder on the ladder cut."""
    return 2 * (c.a00 * c.a10.conjugate() + c.a01 * c.a11.conjugate()).real


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if x < -ENDPOINT_TOL or x > 1 + ENDPOINT_TOL:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x < ENDPOINT_TOL or x > 1 - ENDPOINT_TOL:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def closed_form_entropy(
    name: str, k: int, coeffs: GroundStateCoeffs | None = None
) -> float | None:
    """Published closed-form entropy for the named torus partition.

    With ``coeffs=None`` the value is the one shared by all four basis
    states; with explicit coefficients the chain and ladder pick up
    binary-entropy corrections, while cross and vertical have no
    published generic form and return None ("undefined", not an error).

    Note: for ``vertical`` this returns the published basis-state value
    k**2 - 1.  The exact rank computation and the statevector oracle
    both give (k-1)**2 instead (products of full rows of stars are
    supported entirely on the vertical links), so callers comparing the
    two will see a mismatch on this row; the comparison tooling reports
    it rather than hiding it.
    """
    if name not in CLOSED_FORM_NAMES:
        raise ValueError(f"no closed form for partition {name!r}")
    if k < 2:
        raise ValueError("closed forms assume a torus with k >= 2")
    if name == "single_spin":
        return 1.0
    if name == "chain":
        if coeffs is None:
            return float(k - 1)
        return k - 1 + binary_entropy(alpha(coeffs))
    if name == "ladder":
        if coeffs is None:
            return float(k)
        return k - 1 + binary_entropy((1 + p_param(coeffs)) / 2)
    if coeffs is not None:
        return None
    if name == "cross":
        return float(2 * k - 1)
    return float(k * k - 1)  # vertical, published value
