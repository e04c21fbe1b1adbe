"""Entanglement entropy of equal-superposition spin-flip states.

For a state that is the equal superposition of a flip group acting on
the all-up reference state, the entanglement entropy across a
bipartition (A, B) is an exact integer number of bits:

    S = log2|group| - log2|supported in A| - log2|supported in B|

All three terms are GF(2) ranks, so everything here is exact integer
arithmetic; floating point only appears in the oracle and in the
generic-ground-state formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ResourceLimitError
from .gf2 import Gf2Matrix
from .lattice import BoundaryStats, Lattice, Partition, plaquette_group, star_group

EXHAUSTIVE_SCAN_MAX_LINKS = 24


@dataclass(frozen=True)
class EntropyReport:
    """Exact rank bookkeeping behind one entropy evaluation.

    log2_free is the number of group elements acting distinctly on A
    (log2_group - log2_inside_b); diagonal records whether the reduced
    state on A is diagonal in the computational basis, which happens
    exactly when no nontrivial element is supported inside A.
    """

    s_bits: int
    log2_group: int
    log2_inside_a: int
    log2_inside_b: int

    @property
    def log2_free(self) -> int:
        return self.log2_group - self.log2_inside_b

    @property
    def diagonal(self) -> bool:
        return self.log2_inside_a == 0


def entropy_equal_superposition(group: Gf2Matrix, p: Partition) -> EntropyReport:
    """Exact entropy across ``p`` for the equal superposition over ``group``."""
    if group.n_cols != p.n_links:
        raise ValueError(
            f"group width {group.n_cols} != partition width {p.n_links}"
        )
    if not p.is_proper():
        raise ValueError("partition must leave both sides nonempty")
    r = group.rank()
    inside_a = group.trivial_on_dimension(p.a_mask)
    inside_b = group.trivial_on_dimension(p.b_mask)
    s = r - inside_a - inside_b
    assert 0 <= s <= min(p.size_a, p.n_links - p.size_a)
    return EntropyReport(
        s_bits=s, log2_group=r, log2_inside_a=inside_a, log2_inside_b=inside_b
    )


def is_diagonal(group: Gf2Matrix, p: Partition) -> bool:
    """True iff no nontrivial group element is supported entirely in A."""
    return group.trivial_on_dimension(p.a_mask) == 0


def geometric_entropy(stats: BoundaryStats) -> int:
    """Disk-region entropy from boundary statistics alone: sigma_ab - 1.

    Identically equal to the perimeter form
    ``boundary_length - n2 - 2*n3 - 1`` and, for any region whose inside
    and outside are both connected, to the rank formula on the star
    group.
    """
    stats.check()
    return stats.sigma_ab - 1


def perimeter_entropy(stats: BoundaryStats) -> int:
    """The boundary-length form of the disk entropy: L - n2 - 2*n3 - 1."""
    stats.check()
    return stats.boundary_length - stats.n2 - 2 * stats.n3 - 1


def entropy_bounds(boundary_length: int) -> tuple[float, float]:
    """Linear lower/upper bounds (L/3 - 1, 7L/6 - 1) on disk entropy."""
    return boundary_length / 3 - 1, 7 * boundary_length / 6 - 1


def boundary_bounds_check(stats: BoundaryStats, s_bits: int) -> bool:
    """Exact integer check of L/3 - 1 <= S <= 7L/6 - 1."""
    length = stats.boundary_length
    return 3 * s_bits >= length - 3 and 6 * s_bits <= 7 * length - 6


def ground_degeneracy(lat: Lattice) -> int:
    """Protected-subspace dimension from independent generator counting:
    2**(n - independent generators)."""
    if not lat.closed:
        raise ValueError("degeneracy counting needs a closed lattice")
    return 1 << (lat.n_links - independent_generator_count(lat))


def independent_generator_count(lat: Lattice) -> int:
    """Rank of the stars and plaquettes together as Pauli operators.

    Stars act by X and plaquettes by Z, so in the 2n-column symplectic
    layout they fill disjoint halves and the two ranks add.
    """
    return star_group(lat).rank() + plaquette_group(lat).rank()


def is_closed_string_net(lat: Lattice, bits: int) -> bool:
    """True iff the flip overlaps every plaquette on an even link count.

    Exactly these flips commute with every plaquette operator, i.e. with
    the Hamiltonian; on the torus they are the star products together
    with the noncontractible ladder flips.
    """
    return all((bits & pm).bit_count() % 2 == 0 for pm in lat.plaquette_masks())


@dataclass(frozen=True)
class ScanResult:
    min_s_bits: int
    argmin: Partition
    evaluated: int


def bipartition_masks(
    n: int,
    mode: str = "exhaustive",
    *,
    count: int | None = None,
    seed: int | None = None,
    max_links: int = EXHAUSTIVE_SCAN_MAX_LINKS,
) -> Sequence[int]:
    """Side-A link masks of the proper bipartitions a scan visits.

    ``exhaustive`` gives all 2**n - 2 of them (n capped at
    ``max_links``) as a ``range``, so no list of masks is built;
    ``sampled`` draws ``count`` masks with |A| uniform in 1..n-1,
    reproducibly for a fixed ``seed``.
    """
    if mode == "exhaustive":
        if n > max_links:
            raise ResourceLimitError(
                f"exhaustive scan over {n} links exceeds the {max_links}-link cap"
            )
        return range(1, (1 << n) - 1)
    if mode == "sampled":
        if not count or count < 1:
            raise ValueError("sampled mode needs a positive count")
        if n < 2:
            raise ValueError(f"sampled mode needs at least 2 links, got {n}")
        rng = random.Random(seed)
        masks = []
        for _ in range(count):
            size = rng.randint(1, n - 1)
            masks.append(sum(1 << l for l in rng.sample(range(n), size)))
        return masks
    raise ValueError(f"unknown scan mode {mode!r}")


def absolute_entanglement_scan(
    group: Gf2Matrix,
    mode: str = "exhaustive",
    *,
    count: int | None = None,
    seed: int | None = None,
    max_links: int = EXHAUSTIVE_SCAN_MAX_LINKS,
) -> ScanResult:
    """Minimum entropy over the proper bipartitions of `bipartition_masks`."""
    n = group.n_cols
    masks = bipartition_masks(n, mode, count=count, seed=seed, max_links=max_links)
    best = min(
        (entropy_equal_superposition(group, Partition(n, m)).s_bits, m)
        for m in masks
    )
    return ScanResult(
        min_s_bits=best[0], argmin=Partition(n, best[1]), evaluated=len(masks)
    )
