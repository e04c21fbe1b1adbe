import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flipent import (
    Gf2Matrix,
    Partition,
    ResourceLimitError,
    absolute_entanglement_scan,
    bipartition_masks,
    boundary_bounds_check,
    build_torus,
    disk_region,
    entropy_equal_superposition,
    geometric_entropy,
    ground_degeneracy,
    independent_generator_count,
    is_closed_string_net,
    is_diagonal,
    ladder_operators,
    named_partition,
    oracle_entropy,
    parse_lattice_document,
    perimeter_entropy,
    plaquette_group,
    random_simple_region,
    star_group,
)
from flipent.engine import entropy_bounds
from tests.test_lattice import cube_document

GOLDEN = Path(__file__).resolve().parent / "golden"


def full_flip_group(n):
    return Gf2Matrix([1 << i for i in range(n)], n)


def symplectic_generator_count(lat):
    """Reference: stars in the X half and plaquettes in the Z half of one
    2n-column matrix, ranked together."""
    rows = list(lat.star_masks())
    rows += [m << lat.n_links for m in lat.plaquette_masks()]
    return Gf2Matrix(rows, 2 * lat.n_links).rank()


class TestEqualSuperpositionEntropy:
    def test_full_group_has_zero_entropy(self):
        g = full_flip_group(8)
        rep = entropy_equal_superposition(g, Partition(8, 0b00001111))
        assert rep.s_bits == 0

    def test_chain_k4(self):
        lat = build_torus(4)
        rep = entropy_equal_superposition(star_group(lat), named_partition(lat, "chain"))
        assert rep.s_bits == 3
        assert rep.diagonal

    def test_vertical_true_value(
        self, torus_k2, torus_k3, stars_k2, stars_k3, xi00_k2, xi00_k3
    ):
        # products of full star rows act only on vertical links, so the
        # vertical cut comes out at (k-1)^2; the oracle agrees.
        for lat, stars, state, k in (
            (torus_k2, stars_k2, xi00_k2, 2),
            (torus_k3, stars_k3, xi00_k3, 3),
        ):
            p = named_partition(lat, "vertical")
            rep = entropy_equal_superposition(stars, p)
            assert rep.s_bits == (k - 1) ** 2
            assert rep.log2_inside_a == k - 1
            s_oracle = oracle_entropy(state, p)
            assert abs(s_oracle - rep.s_bits) < 1e-9

    def test_swap_symmetry(self, stars_k3):
        rng = random.Random(3)
        for _ in range(40):
            mask = rng.randint(1, (1 << 18) - 2)
            p = Partition(18, mask)
            a = entropy_equal_superposition(stars_k3, p).s_bits
            b = entropy_equal_superposition(stars_k3, p.complement()).s_bits
            assert a == b

    def test_report_identities(self, stars_k3):
        rng = random.Random(4)
        for _ in range(20):
            p = Partition(18, rng.randint(1, (1 << 18) - 2))
            rep = entropy_equal_superposition(stars_k3, p)
            assert rep.s_bits == rep.log2_group - rep.log2_inside_a - rep.log2_inside_b
            assert rep.log2_free == rep.log2_group - rep.log2_inside_b
            assert 0 <= rep.s_bits <= min(p.size_a, p.n_links - p.size_a)
            assert rep.diagonal == (rep.log2_inside_a == 0)

    def test_dependent_generator_changes_nothing(self, torus_k2, stars_k2):
        p = named_partition(torus_k2, "chain")
        masks = list(stars_k2.row_masks)
        bigger = Gf2Matrix(masks + [masks[0] ^ masks[2]], 8)
        assert entropy_equal_superposition(bigger, p) == entropy_equal_superposition(
            stars_k2, p
        )

    def test_improper_partition_rejected(self, stars_k2):
        with pytest.raises(ValueError):
            entropy_equal_superposition(stars_k2, Partition(8, 0))
        with pytest.raises(ValueError):
            entropy_equal_superposition(stars_k2, Partition(8, 255))

    def test_width_mismatch_rejected(self, stars_k2):
        with pytest.raises(ValueError):
            entropy_equal_superposition(stars_k2, Partition(9, 1))


class TestDiagonality:
    def test_single_spin_diagonal(self, torus_k2, stars_k2):
        assert is_diagonal(stars_k2, named_partition(torus_k2, "single_spin"))

    def test_one_star_support_not_diagonal(self, torus_k3, stars_k3):
        p = Partition.from_links(torus_k3.star_links[4], 18)
        assert not is_diagonal(stars_k3, p)

    def test_ladder_diagonal(self, torus_k3, stars_k3):
        assert is_diagonal(stars_k3, named_partition(torus_k3, "ladder"))


class TestGeometricEntropy:
    def test_unit_disk(self):
        lat = build_torus(4)
        _, st = disk_region(lat, rect=(0, 0, 1, 1))
        assert geometric_entropy(st) == 3
        assert perimeter_entropy(st) == 3

    def test_convex_rect_is_perimeter_minus_one(self):
        lat = build_torus(7)
        for w, h in [(1, 2), (3, 3), (2, 5), (4, 1)]:
            _, st = disk_region(lat, rect=(1, 1, w, h))
            assert geometric_entropy(st) == st.boundary_length - 1

    def test_notch_discounts(self):
        lat = build_torus(6)
        from flipent import region_from_sites

        block = {j * 6 + i for i in range(4) for j in range(3)}
        block.discard(2 * 6 + 3)
        block.discard(2 * 6 + 1)
        _, st = region_from_sites(lat, block)
        assert (st.n2, st.n3) == (1, 1)
        assert geometric_entropy(st) == st.boundary_length - 4

    def test_matches_rank_formula_on_disks(self):
        lat = build_torus(8)
        stars = star_group(lat)
        rng = random.Random(5)
        for _ in range(40):
            part, st = random_simple_region(lat, rng)
            s_exact = entropy_equal_superposition(stars, part).s_bits
            assert geometric_entropy(st) == s_exact
            assert perimeter_entropy(st) == s_exact


class TestBoundaryBounds:
    def test_examples(self):
        lat = build_torus(5)
        _, st8 = disk_region(lat, rect=(0, 0, 2, 2))
        assert st8.boundary_length == 8
        assert boundary_bounds_check(st8, 7)
        _, st4 = disk_region(lat, rect=(0, 0, 1, 1))
        assert boundary_bounds_check(st4, 3)

    def test_random_loops_within_bounds(self):
        lat = build_torus(12)
        stars = star_group(lat)
        rng = random.Random(6)
        for _ in range(60):
            part, st = random_simple_region(lat, rng)
            s = entropy_equal_superposition(stars, part).s_bits
            assert boundary_bounds_check(st, s)
            lo, hi = entropy_bounds(st.boundary_length)
            assert lo <= s <= hi


class TestDegeneracy:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_torus_fourfold(self, k):
        lat = build_torus(k)
        assert ground_degeneracy(lat) == 4
        assert independent_generator_count(lat) == 2 * k * k - 2

    def test_cube_unique_ground_state(self):
        lat = parse_lattice_document(cube_document())
        assert ground_degeneracy(lat) == 1

    @pytest.mark.parametrize(
        "lat",
        [build_torus(k) for k in range(2, 9)]
        + [parse_lattice_document((GOLDEN / f"{name}.lat").read_text())
           for name in ("cube", "patch")],
        ids=[f"torus-k{k}" for k in range(2, 9)] + ["cube", "patch"],
    )
    def test_rank_sum_equals_symplectic_rank(self, lat):
        assert independent_generator_count(lat) == symplectic_generator_count(lat)

    def test_open_lattice_unsupported(self):
        from tests.test_lattice import planar_patch_document

        lat = parse_lattice_document(planar_patch_document())
        with pytest.raises(ValueError):
            ground_degeneracy(lat)


class TestClosedStringNets:
    def test_stars_are_closed(self, torus_k3):
        for sm in torus_k3.star_masks():
            assert is_closed_string_net(torus_k3, sm)

    def test_single_link_is_open(self, torus_k3):
        assert not is_closed_string_net(torus_k3, 1)

    def test_ladder_times_star_is_closed(self, torus_k3, stars_k3):
        w1, _ = ladder_operators(torus_k3)
        assert is_closed_string_net(torus_k3, w1 ^ stars_k3.row_masks[2])

    def test_equivalent_to_star_plus_ladder_membership(self, torus_k2, stars_k2):
        w1, w2 = ladder_operators(torus_k2)
        extended = Gf2Matrix(
            list(stars_k2.row_masks) + [w1, w2], 8
        )
        for v in range(256):
            assert is_closed_string_net(torus_k2, v) == extended.contains(v)


class TestAbsoluteEntanglementScan:
    def test_k2_exhaustive(self, stars_k2):
        res = absolute_entanglement_scan(stars_k2, "exhaustive")
        assert res.evaluated == 254
        assert res.min_s_bits == 1

    def test_full_group_control(self):
        res = absolute_entanglement_scan(full_flip_group(8), "exhaustive")
        assert res.min_s_bits == 0

    def test_k3_sampled_positive(self, stars_k3):
        res = absolute_entanglement_scan(stars_k3, "sampled", count=20000, seed=9)
        assert res.min_s_bits >= 1

    def test_sampled_deterministic(self, stars_k3):
        a = absolute_entanglement_scan(stars_k3, "sampled", count=500, seed=17)
        b = absolute_entanglement_scan(stars_k3, "sampled", count=500, seed=17)
        assert a == b

    def test_exhaustive_cap(self, stars_k3):
        with pytest.raises(ResourceLimitError):
            absolute_entanglement_scan(stars_k3, "exhaustive", max_links=10)

    def test_plaquette_group_scan_matches_star_by_duality(self, torus_k2):
        res = absolute_entanglement_scan(plaquette_group(torus_k2), "exhaustive")
        assert res.min_s_bits == 1


class TestBipartitionMasks:
    def test_exhaustive_is_a_range(self):
        masks = bipartition_masks(18, "exhaustive")
        assert masks == range(1, (1 << 18) - 1)
        assert isinstance(masks, range)

    def test_exhaustive_cap(self):
        with pytest.raises(ResourceLimitError, match="25 links exceeds the 24-link cap"):
            bipartition_masks(25, "exhaustive")
        with pytest.raises(ResourceLimitError):
            bipartition_masks(11, "exhaustive", max_links=10)
        assert len(bipartition_masks(10, "exhaustive", max_links=10)) == 1022

    def test_sampled_draws_are_proper_and_reproducible(self):
        masks = bipartition_masks(18, "sampled", count=300, seed=4)
        assert len(masks) == 300
        assert all(0 < m < (1 << 18) - 1 for m in masks)
        assert masks == bipartition_masks(18, "sampled", count=300, seed=4)
        assert masks != bipartition_masks(18, "sampled", count=300, seed=5)

    def test_sampled_follows_the_rng_draw_sequence(self):
        rng = random.Random(12)
        expected = []
        for _ in range(20):
            size = rng.randint(1, 7)
            expected.append(sum(1 << l for l in rng.sample(range(8), size)))
        assert bipartition_masks(8, "sampled", count=20, seed=12) == expected

    @pytest.mark.parametrize("count", [None, 0, -3])
    def test_sampled_needs_positive_count(self, count):
        with pytest.raises(ValueError, match="positive count"):
            bipartition_masks(8, "sampled", count=count, seed=1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_sampled_needs_two_links(self, n):
        with pytest.raises(ValueError, match=f"at least 2 links, got {n}"):
            bipartition_masks(n, "sampled", count=1, seed=1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown scan mode"):
            bipartition_masks(8, "rects")

    def test_scan_visits_exactly_these_masks(self, stars_k3):
        masks = bipartition_masks(18, "sampled", count=200, seed=9)
        res = absolute_entanglement_scan(stars_k3, "sampled", count=200, seed=9)
        best = min(
            (entropy_equal_superposition(stars_k3, Partition(18, m)).s_bits, m)
            for m in masks
        )
        assert res.evaluated == 200
        assert (res.min_s_bits, res.argmin.a_mask) == best


PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=200, deadline=None
)


@st.composite
def groups_and_partitions(draw):
    """A random generator set of width <= 12 with at most 8 rows, and a
    random proper partition of its columns."""
    n = draw(st.integers(min_value=2, max_value=12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    a_mask = draw(st.integers(min_value=1, max_value=(1 << n) - 2))
    return Gf2Matrix(rows, n), Partition(n, a_mask)


def log2_count(elements):
    count = sum(1 for _ in elements)
    assert count & (count - 1) == 0  # a subgroup has 2**d elements
    return count.bit_length() - 1


class TestEntropyProperty:
    @PROPERTY_SETTINGS
    @given(case=groups_and_partitions())
    def test_counts_symmetry_and_bounds(self, case):
        group, p = case
        elements = list(group.enumerate_row_space())
        inside_a = log2_count(e for e in elements if e & p.b_mask == 0)
        inside_b = log2_count(e for e in elements if e & p.a_mask == 0)
        s = entropy_equal_superposition(group, p).s_bits
        assert s == log2_count(elements) - inside_a - inside_b
        assert entropy_equal_superposition(group, p.complement()).s_bits == s
        # checked here too, because python -O strips the engine's assert
        assert 0 <= s <= min(p.size_a, p.n_links - p.size_a)
