"""Exact linear algebra over GF(2) on bit-packed row vectors.

Rows are Python ints used as bitmasks (bit i = column i), so XOR is
vector addition and ``int.bit_count`` is the Hamming weight.  This is
the arithmetic substrate for every group-order computation in the
package: ranks give log2 of group orders, restricted ranks give the
orders of subgroups projected onto one side of a bipartition.

A matrix may carry a `Graph` whose vertex cuts span its row space, with
one edge per column: the star group of a lattice is the cut space of
the site graph (each link joins two sites), and the plaquette group is
the cut space of the face graph (a valid lattice puts each link on at
most two faces, and an outer vertex ends the others), so every lattice
group is graphic.  Its rank on any set of columns is then the size of
a spanning forest of those columns' edges, found by union-find in
near-linear time.  On a k x k torus with k >= `GRID_MIN_K` the graphs
carry a grid layout, and `Graph.rank` floods one component over whole
vertex masks and union-finds only the links left; on smaller tori the
flood's fixed cost loses to union-find on a handful of links.  A matrix
built from rows alone is ranked by Gaussian elimination (`_echelonize`),
which also stays the reference the graphs are tested against.

A graph may also carry its dual: the other graph on the same columns,
whose cuts, together with a few loop classes of this graph's cycles,
span the annihilator of the row space (the vectors orthogonal to every
row).  Whoever builds the pair sets each as the other's ``dual`` once,
before handing either out; a lattice builds its site and face graphs
together this way (`lattice.Lattice`).  Matroid duality turns a rank on
the complement of a column set into a rank of the annihilator on the
set itself, so the engine can rank one bipartition from its smaller
side alone (see `engine.entropy_equal_superposition`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import ResourceLimitError

#: default cap on row-space enumeration, as log2 of the element count
DEFAULT_ENUM_MAX_RANK = 20

#: smallest torus size whose graphs flood by grid layout: at k = 12 the flood
#: and union-find cost the same per disk, at k = 16 the flood is faster
GRID_MIN_K = 16


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Pack column indices into a bitmask, validating the range."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"column index {i} out of range for width {n}")
        mask |= 1 << i
    return mask


def _echelonize(masks: Sequence[int]) -> list[int]:
    # Deterministic pivoting: lowest column index (least significant bit)
    # first, rows kept sorted by pivot.  pivots[p] is the row with pivot p.
    pivots: dict[int, int] = {}
    for row in masks:
        while row:
            p = (row & -row).bit_length() - 1
            if p not in pivots:
                pivots[p] = row
                break
            row ^= pivots[p]
    return [pivots[p] for p in sorted(pivots)]


def _forest_size(n_vertices: int, edges: Iterable[tuple[int, int]]) -> int:
    # edges of a spanning forest, by union-find with path halving
    parent = list(range(n_vertices))
    size = 0
    for a, b in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            size += 1
    return size


#: maps the digits of ``bin(mask)`` to 0/1 bytes
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int) -> bytes:
    # one 0/1 byte per bit of a nonnegative mask, least significant first and
    # up to the highest set bit: a selector for `itertools.compress`
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class Graph:
    """A graph whose vertex cuts span a row space, one edge per column.

    Column c is the edge ``edges[c]`` between two of the ``n_vertices``
    vertices, and row v is the cut of vertex v (any other vertex's cut
    is a sum of rows), so `rank` on a set of columns is the row space's.

    ``loop_classes`` are classes of the graph's cycles, each a tuple of
    column masks any two of which differ by a cut of the dual; on the
    torus, the homologous copies of one noncontractible loop.  ``dual``
    is None until the graph's builder sets it to the graph on the same
    columns whose cuts and one loop of each class span this graph's
    cycle space; it stays None where no such graph is known.  Where
    `spans_on(X)` holds, the dual's rank on X is the cycle space's.

    ``grid``, when given, is ``(w, (fwd1, back1), (fwd2, back2))``: column
    c < w joins vertex c to the vertex that ``fwd1`` moves bit c to, column
    w + c joins vertex c to ``fwd2``'s image of it, and each ``back`` is its
    ``fwd``'s inverse, all maps of w-bit vertex masks.
    """

    def __init__(
        self,
        n_vertices: int,
        edges: Sequence[tuple[int, int]],
        loop_classes: Sequence[Sequence[int]] = (),
        grid: tuple | None = None,
    ):
        self.n_vertices = n_vertices
        self.edges = edges
        self.loop_classes = loop_classes
        self.grid = grid
        self.dual: Graph | None = None

    def spans_on(self, mask: int) -> bool:
        """True iff each loop class has a loop disjoint from ``mask``."""
        for loops in self.loop_classes:
            for loop in loops:
                if not loop & mask:
                    break
            else:
                return False
        return True

    def rank(self, mask: int) -> int:
        """Rank of the cuts on the columns in ``mask``: a spanning forest.

        With a grid layout, the component of the lowest touched vertex is
        flooded over vertex masks, a tree of |C| - 1 edges, and only the
        columns off it are union-found."""
        size = 0
        if self.grid and mask:
            w, (fwd1, back1), (fwd2, back2) = self.grid
            low = (1 << w) - 1
            e1, e2 = mask & low, mask >> w & low
            touched = e1 | fwd1(e1) | e2 | fwd2(e2)
            comp, grown = 0, touched & -touched
            while grown != comp:
                comp = grown
                grown |= fwd1(comp & e1) | e1 & back1(comp) | fwd2(comp & e2) | e2 & back2(comp)
            size = comp.bit_count() - 1
            mask ^= e1 & comp | (e2 & comp) << w
            if not mask:
                return size
        chosen = compress(self.edges, _bit_flags(mask))
        return size + _forest_size(self.n_vertices, chosen)

    @cached_property
    def full_rank(self) -> int:
        """Rank of the cuts on every column, computed once."""
        return self.rank((1 << len(self.edges)) - 1)


class Gf2Matrix:
    """An ordered list of GF(2) generators with cached rank structures.

    Immutable after construction.  ``graph``, when given, is a `Graph`
    whose cuts span the rows; `rank` and `restricted_rank` then count
    spanning-forest edges of it and no echelon form is built.  Otherwise
    they use the echelon form, which is also what `reduce`, `contains`
    and `enumerate_row_space` use.  The echelon form and the rank are
    computed lazily and shared by all later queries, so a matrix is safe
    to use from parallel partition scans.
    """

    def __init__(self, rows: Iterable[int], n_cols: int, graph: Graph | None = None):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        masks = tuple(rows)
        for bits in masks:
            if bits < 0 or bits >> n_cols:
                raise ValueError(f"row 0x{bits:x} wider than {n_cols} columns")
        self.n_cols = n_cols
        self._masks: tuple[int, ...] = masks
        self.graph = graph

    @property
    def row_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def n_rows(self) -> int:
        return len(self._masks)

    @cached_property
    def _echelon(self) -> tuple[int, ...]:
        return tuple(_echelonize(self._masks))

    @cached_property
    def _rank(self) -> int:
        if self.graph is None:
            return len(self._echelon)
        return self.graph.full_rank

    def echelon_masks(self) -> tuple[int, ...]:
        """Row-echelon basis (pivot columns strictly increasing)."""
        return self._echelon

    def rank(self) -> int:
        """Dimension of the row space over GF(2)."""
        return self._rank

    def restricted_rank(self, mask: int) -> int:
        """Rank after zeroing every column outside the bitmask ``mask``.

        This is the log2 of the number of distinct projections of
        row-space elements onto those columns.
        """
        if mask < 0 or mask >> self.n_cols:
            raise ValueError("column mask wider than matrix")
        if self.graph is None:
            return len(_echelonize([m & mask for m in self._echelon]))
        return self.graph.rank(mask)

    def trivial_on_dimension(self, support: int) -> int:
        """log2 of the subgroup supported entirely inside the mask ``support``.

        Counts row-space elements that are zero on every column outside
        ``support``; rank(M) - restricted_rank(M, complement).
        """
        full = (1 << self.n_cols) - 1
        return self.rank() - self.restricted_rank(full & ~support)

    def reduce(self, bits: int) -> int:
        """Residue of ``bits`` after elimination against the echelon rows."""
        if bits < 0 or bits >> self.n_cols:
            raise ValueError("vector wider than matrix")
        for row in self._echelon:
            p = row & -row
            if bits & p:
                bits ^= row
        return bits

    def contains(self, bits: int) -> bool:
        """True iff ``bits`` lies in the row space."""
        return self.reduce(bits) == 0

    def enumerate_row_space(
        self, max_rank: int = DEFAULT_ENUM_MAX_RANK
    ) -> Iterator[int]:
        """Yield all 2**rank row-space elements, starting from zero.

        Order is deterministic given the echelon form (Gray-code walk
        over the echelon basis).  Raises ResourceLimitError when the
        rank exceeds ``max_rank``.
        """
        basis = self._echelon
        r = len(basis)
        if r > max_rank:
            raise ResourceLimitError(
                f"row space has 2^{r} elements, above the 2^{max_rank} cap"
            )
        acc = 0
        yield acc
        for m in range(1, 1 << r):
            acc ^= basis[(m & -m).bit_length() - 1]
            yield acc
