"""Exact linear algebra over GF(2) on bit-packed row vectors.

Rows are Python ints used as bitmasks (bit i = column i), so XOR is
vector addition and ``int.bit_count`` is the Hamming weight.  This is
the arithmetic substrate for every group-order computation in the
package: ranks give log2 of group orders, restricted ranks give the
orders of subgroups projected onto one side of a bipartition.

Ranks take one of two paths.  A matrix whose every column has weight at
most 2 is graphic: it is the incidence matrix of a graph whose vertices
are the rows plus one extra vertex, with one edge per column (a weight-1
column joins its row to the extra vertex).  Its rank, and its rank on
any set of columns, is the size of a spanning forest of those edges,
found by union-find in near-linear time.  The star group of a lattice
(each link meets two sites) and the plaquette group (each link bounds
at most two faces) are graphic.  Every other matrix is ranked by
Gaussian elimination (`_echelonize`), which also stays the reference
the graphic path is tested against.

A graphic matrix may also carry a `GraphicDual`: a second graph whose
cut space, together with a few loop classes, is the annihilator of the
row space (the vectors orthogonal to every row).  Matroid duality turns
a rank on the complement of a column set into a rank of the annihilator
on the set itself, so the engine can rank one bipartition from its
smaller side alone (see `engine.entropy_equal_superposition`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ResourceLimitError

#: default cap on row-space enumeration, as log2 of the element count
DEFAULT_ENUM_MAX_RANK = 20


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


def _column_edges(masks: Sequence[int], n_cols: int) -> list[tuple[int, int]] | None:
    # Column c as the edge between the (at most two) rows that hold it;
    # a missing end is the extra vertex len(masks), so a weight-0 column is
    # a loop on it.  None as soon as some column has weight 3.  The bits
    # are walked from the top: stripping the lowest with m & -m builds two
    # wide ints per bit and is several times slower on wide rows.
    extra = len(masks)
    first = [extra] * n_cols
    second = [extra] * n_cols
    for r, m in enumerate(masks):
        while m:
            top = m.bit_length() - 1
            m ^= 1 << top
            if first[top] == extra:
                first[top] = r
            elif second[top] == extra:
                second[top] = r
            else:
                return None
    return list(zip(first, second))


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


class GraphicDual:
    """The annihilator of a graphic group, as a dual graph and loop classes.

    The dual graph has one vertex per entry of ``rows``, which lists the
    columns at that vertex, plus an outer vertex; column c is the edge
    between the (at most two) rows that list it, and a column listed
    once ends at the outer vertex.  A row is then the cut of its vertex,
    and the annihilator is spanned by the rows and one loop of each
    class in ``loop_classes``.  A class is a tuple of column masks, any
    two of which differ by a sum of rows; on the torus these are the
    homologous copies of one noncontractible loop.

    `rank` is the rows' rank on a column set X.  It equals the
    annihilator's rank on X when `spans_on(X)` holds: every class has a
    loop that misses X, so each class restricts to X as a sum of rows
    does.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        n_cols: int,
        loop_classes: Sequence[Sequence[int]],
    ):
        self.rows = rows
        self.n_cols = n_cols
        self.loop_classes = loop_classes

    @cached_property
    def edges(self) -> list[tuple[int, int]] | None:
        """Column c as ``edges[c]``; None when a column is on three rows."""
        outer = len(self.rows)
        first = [outer] * self.n_cols
        second = [outer] * self.n_cols
        for v, cols in enumerate(self.rows):
            for c in cols:
                if first[c] == outer:
                    first[c] = v
                elif second[c] == outer:
                    second[c] = v
                else:
                    return None
        return list(zip(first, second))

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
        """Rank of the rows on the columns in ``mask``, as a spanning forest."""
        chosen = compress(self.edges, _bit_flags(mask))
        return _forest_size(len(self.rows) + 1, chosen)


class Gf2Matrix:
    """An ordered list of GF(2) generators with cached rank structures.

    Immutable after construction.  On first use the matrix checks, once,
    whether every column has weight at most 2; if so, `rank` and
    `restricted_rank` count spanning-forest edges of its column graph and
    no echelon form is built.  Otherwise they use the echelon form, which
    is also what `reduce`, `contains` and `enumerate_row_space` use.  Both
    structures are computed lazily and shared by all later queries, so a
    matrix is safe to use from parallel partition scans.

    ``dual``, when given, is called once, on the first read of `dual`,
    and returns the matrix's `GraphicDual` or None; a lattice passes it
    so that the dual graph is built only when an entropy needs it.
    """

    def __init__(
        self,
        rows: Iterable[int],
        n_cols: int,
        dual: Callable[[], GraphicDual | None] | None = None,
    ):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        masks = tuple(rows)
        for bits in masks:
            if bits < 0 or bits >> n_cols:
                raise ValueError(f"row 0x{bits:x} wider than {n_cols} columns")
        self.n_cols = n_cols
        self._masks: tuple[int, ...] = masks
        self._dual_source = dual

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
    def _edges(self) -> list[tuple[int, int]] | None:
        # the column graph when the matrix is graphic, else None
        return _column_edges(self._masks, self.n_cols)

    @cached_property
    def dual(self) -> GraphicDual | None:
        """The annihilator as a dual graph, or None when none is known."""
        return None if self._dual_source is None else self._dual_source()

    @cached_property
    def _rank(self) -> int:
        if self._edges is None:
            return len(self._echelon)
        return _forest_size(self.n_rows + 1, self._edges)

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
        if self._edges is None:
            return len(_echelonize([m & mask for m in self._echelon]))
        chosen = compress(self._edges, _bit_flags(mask))  # the columns in mask
        return _forest_size(self.n_rows + 1, chosen)

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
