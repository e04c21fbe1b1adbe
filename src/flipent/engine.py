"""Entanglement entropy of equal-superposition spin-flip states.

For a state that is the equal superposition of a flip group acting on
the all-up reference state, the entanglement entropy across a
bipartition (A, B) is an exact integer number of bits:

    S = log2|group| - log2|supported in A| - log2|supported in B|

All three terms are GF(2) ranks, so everything here is exact integer
arithmetic; floating point only appears in the oracle and in the
generic-ground-state formulas.

In rank terms, with r the group's rank and r(A) its rank on A's links,
S = r(A) + r(B) - r.  Matroid duality gives r(B) - r = r⊥(A) - |A|,
where r⊥ is the rank of the annihilator (every vector orthogonal to
the group), so S = r(X) + r⊥(X) - |X| for either side X, and the
engine ranks the smaller one.  A lattice's group is the cut space of
its `Graph`, whose cycle space is the annihilator: the cuts of the dual
graph (faces for the star group, sites for the plaquette group) plus,
on the torus, two homology classes of loops.  The dual's cuts alone
give r⊥(X) when each class has a loop that misses X, as for the rects
and disks that `scan` draws inside a (k-2) x (k-2) window.  When a
group has no graph, its graph no dual, or X meets every loop of a
class (`cross`, `vertical`), the engine ranks both sides instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ResourceLimitError
from .gf2 import Gf2Matrix
from .lattice import BoundaryStats, Lattice, Partition, plaquette_group, star_group

EXHAUSTIVE_SCAN_MAX_LINKS = 24


class EntropyReport(NamedTuple):
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
    """Exact entropy across ``p`` for the equal superposition over ``group``.

    Ranks the group on both sides, or on the smaller side X alone (A when
    |A| <= |B|) when its graph's dual spans the annihilator on X.
    """
    n = p.n_links
    if group.n_cols != n:
        raise ValueError(f"group width {group.n_cols} != partition width {n}")
    a = p.a_mask
    full = (1 << n) - 1  # once here: this runs for every row of a scan
    if not 0 < a < full:
        raise ValueError("partition must leave both sides nonempty")
    r = group.rank()
    b = full ^ a
    size_a = a.bit_count()
    x, size_x = (a, size_a) if 2 * size_a <= n else (b, n - size_a)
    graph = group.graph
    if graph is not None and graph.spans_on(x) and graph.dual is not None:
        # matroid duality: the rank on the other side is r + r_dual(X) - |X|
        r_x = group.restricted_rank(x)
        r_rest = r + graph.dual.rank(x) - size_x
        r_a, r_b = (r_x, r_rest) if x == a else (r_rest, r_x)
    else:
        r_a = group.restricted_rank(a)
        r_b = group.restricted_rank(b)
    # an element lies inside A when it vanishes on B: rank minus rank on B
    inside_a = r - r_b
    inside_b = r - r_a
    s = r - inside_a - inside_b
    assert 0 <= s <= min(size_a, n - size_a)
    return EntropyReport(s, r, inside_a, inside_b)


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
    return stats.sigma_ab - 1


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
    """Minimum entropy over the proper bipartitions of `bipartition_masks`.

    ``evaluated`` counts those bipartitions; the exhaustive mode computes
    one entropy per complement pair.
    """
    n = group.n_cols
    masks = bipartition_masks(n, mode, count=count, seed=seed, max_links=max_links)
    # S(A) = S(B), and the smaller mask of a complement pair is the one with
    # link n - 1 clear: the first half of the range, which holds the argmin
    visited = masks[: len(masks) // 2] if mode == "exhaustive" else masks
    best = min(
        (entropy_equal_superposition(group, Partition(n, m)).s_bits, m)
        for m in visited
    )
    return ScanResult(
        min_s_bits=best[0], argmin=Partition(n, best[1]), evaluated=len(masks)
    )
