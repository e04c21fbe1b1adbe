import random

import pytest
from hypothesis import example, given, settings, strategies as st

from flipent import Gf2Matrix, ResourceLimitError
from flipent.gf2 import Graph, _echelonize, mask_from_indices
from flipent.lattice import Partition, named_partition, parse_lattice_document

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=300, deadline=None
)


def identity_matrix(n):
    return Gf2Matrix([1 << i for i in range(n)], n)


def random_matrix(rng, n_rows, n_cols):
    return Gf2Matrix([rng.getrandbits(n_cols) for _ in range(n_rows)], n_cols)


def enumerate_masks(m):
    return list(m.enumerate_row_space())


def path_lattice(n):
    """An open path of ``n`` links: link i joins sites i and i + 1."""
    sites = "".join(f"{i}\n" for i in range(n + 1))
    links = "".join(f"{i} {i + 1}\n" for i in range(n))
    return parse_lattice_document(
        f"LATTICE v1 open\nSITES\n{sites}LINKS\n{links}PLAQUETTES\n"
    )


@st.composite
def widths_and_masks(draw):
    n = draw(st.integers(0, 300))
    full = (1 << n) - 1
    return n, draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))


class TestMaskVectors:
    """Vectors are int bitmasks: bit i set iff the flip touches link i."""

    def test_xor_is_self_inverse(self):
        v = mask_from_indices([0, 3, 5], 8)
        assert v ^ v == 0

    def test_length_mismatch_rejected(self):
        # a vector one column wider than the matrix is refused
        m = Gf2Matrix([0b1], 4)
        with pytest.raises(ValueError):
            m.contains(1 << 4)
        with pytest.raises(ValueError):
            Gf2Matrix([0b1, 1 << 4], 4)

    def test_support_round_trip(self):
        v = mask_from_indices([2, 7], 9)
        assert Partition(9, v).a_links() == (2, 7)
        assert v.bit_count() == 2

    @PROPERTY_SETTINGS
    @given(widths_and_masks())
    @example((0, 0))
    @example((1, 1))
    @example((300, (1 << 300) - 1))
    def test_set_links_match_a_bit_walk(self, case):
        n, mask = case
        links = tuple(i for i in range(n) if mask >> i & 1)
        assert Partition(n, mask).a_links() == links
        assert path_lattice(n).link_list(mask) == ",".join(map(str, links))

    def test_out_of_range_support(self):
        with pytest.raises(ValueError):
            mask_from_indices([9], 9)
        with pytest.raises(ValueError):
            mask_from_indices([-1], 9)

    def test_bits_must_fit(self):
        with pytest.raises(ValueError):
            Gf2Matrix([1 << 4], 4)
        with pytest.raises(ValueError):
            Gf2Matrix([-1], 4)


class TestRank:
    def test_identity(self):
        assert identity_matrix(3).rank() == 3

    def test_k2_stars_have_one_constraint(self, stars_k2):
        # 4 star generators, one global dependency
        assert stars_k2.n_rows == 4
        assert stars_k2.rank() == 3

    def test_dependent_row_does_not_raise_rank(self, stars_k2):
        masks = list(stars_k2.row_masks)
        extra = masks[0] ^ masks[1]
        assert Gf2Matrix(masks + [extra], stars_k2.n_cols).rank() == 3

    def test_empty_matrix(self):
        assert Gf2Matrix([], 5).rank() == 0

    def test_rank_of_echelon_matches(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(0, 8), rng.randint(1, 12))
            again = Gf2Matrix(m.echelon_masks(), m.n_cols)
            assert again.rank() == m.rank()

    def test_echelon_spans_same_row_space(self):
        rng = random.Random(18)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(2, 12))
            echelon = Gf2Matrix(m.echelon_masks(), m.n_cols)
            assert all(echelon.contains(r) for r in m.row_masks)
            assert all(m.contains(r) for r in echelon.row_masks)

    def test_appending_combinations_preserves_rank(self):
        rng = random.Random(12)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(2, 12))
            combo = 0
            for mask in m.row_masks:
                if rng.random() < 0.5:
                    combo ^= mask
            bigger = Gf2Matrix(list(m.row_masks) + [combo], m.n_cols)
            assert bigger.rank() == m.rank()


class TestRestrictedRank:
    def test_all_columns(self, stars_k2):
        assert stars_k2.restricted_rank(0xFF) == stars_k2.rank()

    def test_no_columns(self, stars_k2):
        assert stars_k2.restricted_rank(0) == 0

    def test_out_of_range_column(self, stars_k2):
        with pytest.raises(ValueError):
            stars_k2.restricted_rank(1 << 8)

    def test_chain_restriction_matches_enumeration(self, torus_k2, stars_k2):
        chain = named_partition(torus_k2, "chain")
        restricted = stars_k2.restricted_rank(chain.a_mask)
        projections = {m & chain.a_mask for m in enumerate_masks(stars_k2)}
        assert 1 << restricted == len(projections)
        # equivalently rank minus the dimension supported inside B
        assert restricted == stars_k2.rank() - stars_k2.trivial_on_dimension(
            chain.b_mask
        )

    def test_random_split_dimension_identity(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 14)
            m = random_matrix(rng, rng.randint(1, 10), n)
            a_mask = rng.getrandbits(n)
            b_mask = ((1 << n) - 1) ^ a_mask
            assert (
                m.trivial_on_dimension(a_mask) + m.restricted_rank(b_mask)
                == m.rank()
            )


class TestTrivialOnDimension:
    def test_full_support_is_rank(self, stars_k2):
        assert stars_k2.trivial_on_dimension(0xFF) == stars_k2.rank()

    def test_chain_supports_nothing(self, torus_k2, stars_k2):
        chain = named_partition(torus_k2, "chain")
        assert stars_k2.trivial_on_dimension(chain.a_mask) == 0

    def test_matches_row_space_count(self):
        rng = random.Random(14)
        for _ in range(30):
            m = random_matrix(rng, 4, 6)
            support = rng.getrandbits(6)
            inside = sum(
                1 for v in enumerate_masks(m) if v & ~support == 0
            )
            assert 1 << m.trivial_on_dimension(support) == inside


class TestContains:
    def test_zero_vector(self, stars_k2):
        assert stars_k2.contains(0)

    def test_product_of_all_stars_is_identity(self, stars_k2):
        total = 0
        for mask in stars_k2.row_masks:
            total ^= mask
        assert total == 0
        assert stars_k2.contains(total)

    def test_single_link_flip_not_in_star_group(self, stars_k2):
        assert not stars_k2.contains(0b1)
        assert 0b1 not in enumerate_masks(stars_k2)

    def test_length_mismatch(self, stars_k2):
        with pytest.raises(ValueError):
            stars_k2.contains(1 << 8)

    def test_agrees_with_enumeration(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(2, 14)
            m = random_matrix(rng, rng.randint(1, 12), n)
            members = set(enumerate_masks(m))
            for _ in range(50):
                v = rng.getrandbits(n)
                assert m.contains(v) == (v in members)


class TestEnumerateRowSpace:
    def test_rank_zero_yields_only_zero(self):
        vs = list(Gf2Matrix([0, 0], 6).enumerate_row_space())
        assert vs == [0]

    def test_k2_star_group_has_eight_elements(self, stars_k2):
        masks = enumerate_masks(stars_k2)
        assert len(masks) == 8
        assert len(set(masks)) == 8
        assert 0 in masks

    def test_count_is_two_to_rank_and_closed_under_xor(self):
        rng = random.Random(16)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(0, 6), rng.randint(1, 10))
            masks = set(enumerate_masks(m))
            assert len(masks) == 1 << m.rank()
            sample = sorted(masks)[: min(len(masks), 8)]
            for a in sample:
                for b in sample:
                    assert a ^ b in masks

    def test_cap_enforced(self):
        m = identity_matrix(6)
        with pytest.raises(ResourceLimitError):
            list(m.enumerate_row_space(max_rank=5))

    def test_order_is_deterministic(self, stars_k2):
        first = enumerate_masks(stars_k2)
        second = enumerate_masks(stars_k2)
        assert first == second


@st.composite
def graphic_cases(draw, max_rows=8, max_cols=14):
    """Row count, column ends and a column mask of a matrix whose columns
    have weight at most 2.  Column c is the edge between its two drawn
    ends; an end equal to the row count is the outer vertex, no row, so a
    column gets weight 0, 1 or 2 (a loop has weight 0), and rows that no
    column reaches are zero rows (isolated vertices)."""
    n_rows = draw(st.integers(0, max_rows))
    end = st.integers(0, n_rows)
    ends = draw(st.lists(st.tuples(end, end), max_size=max_cols))
    mask = draw(st.integers(0, (1 << len(ends)) - 1))
    return n_rows, ends, mask


def cut_rows(n_rows, ends):
    """Row v is the cut of vertex v: the columns with exactly one end at v."""
    rows = [0] * n_rows
    for c, pair in enumerate(ends):
        for r in pair:
            if r < n_rows:
                rows[r] ^= 1 << c
    return rows


def eliminated_ranks(rows, mask):
    return len(_echelonize(rows)), len(_echelonize([r & mask for r in rows]))


class TestGraphicRank:
    """Matrices whose columns have weight <= 2 are ranked as graphs;
    Gaussian elimination is the reference."""

    @PROPERTY_SETTINGS
    @given(case=graphic_cases())
    # rows 0 and 1 repeat, row 2 is zero (an isolated vertex), column 2
    # has weight 1 and column 3 weight 0
    @example(case=(4, [(0, 1), (0, 1), (3, 4), (4, 4)], 0))
    @example(case=(4, [(0, 1), (0, 1), (3, 4), (4, 4)], 0b1111))
    @example(case=(4, [(0, 1), (0, 1), (3, 4), (4, 4)], 0b0101))
    @example(case=(0, [(0, 0)] * 3, 0b101))
    @example(case=(2, [], 0))
    # a loop at a row's vertex is a zero column
    @example(case=(2, [(0, 0), (0, 1)], 0b11))
    def test_forest_size_equals_elimination(self, case):
        n_rows, ends, mask = case
        rows = cut_rows(n_rows, ends)
        m = Gf2Matrix(rows, len(ends), graph=Graph(n_rows + 1, ends))
        assert (m.rank(), m.restricted_rank(mask)) == eliminated_ranks(rows, mask)
        assert "_echelon" not in m.__dict__

    @PROPERTY_SETTINGS
    @given(case=graphic_cases(max_rows=6), data=st.data())
    def test_weight_three_column_falls_back(self, case, data):
        n_rows, ends, mask = case
        n_cols = len(ends)
        rows = cut_rows(n_rows, ends) + [0] * (3 - n_rows)
        heavy = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=3))
        rows = [r | (1 << n_cols) if i in heavy else r for i, r in enumerate(rows)]
        mask |= data.draw(st.integers(0, 1)) << n_cols
        m = Gf2Matrix(rows, n_cols + 1)
        assert (m.rank(), m.restricted_rank(mask)) == eliminated_ranks(rows, mask)

    @PROPERTY_SETTINGS
    @given(case=graphic_cases())
    def test_rows_alone_are_ranked_by_elimination(self, case):
        n_rows, ends, mask = case
        rows = cut_rows(n_rows, ends)
        m = Gf2Matrix(rows, len(ends))
        assert m.graph is None
        assert (m.rank(), m.restricted_rank(mask)) == eliminated_ranks(rows, mask)
        assert "_echelon" in m.__dict__
