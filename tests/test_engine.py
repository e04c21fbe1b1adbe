import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flipent import (
    Gf2Matrix,
    LatticeFormatError,
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
    is_diagonal,
    ladder_operators,
    lattice_to_document,
    named_partition,
    oracle_entropy,
    parse_lattice_document,
    plaquette_group,
    random_rectangle_region,
    random_simple_region,
    star_group,
)
from flipent import engine, gf2
from flipent.cli import main
from flipent.engine import EntropyReport, ScanResult, entropy_bounds
from flipent.lattice import BoundaryStats, Lattice, torus_h, torus_v
from flipent.states import GroundStateCoeffs
from tests.test_lattice import cube_document

GOLDEN = Path(__file__).resolve().parent / "golden"


def full_flip_group(n):
    return Gf2Matrix([1 << i for i in range(n)], n)


def symplectic_generator_count(lat):
    """Reference: stars in the X half and plaquettes in the Z half of one
    2n-column matrix, ranked together by elimination."""
    rows = list(lat.star_masks())
    rows += [m << lat.n_links for m in lat.plaquette_masks()]
    return len(gf2._echelonize(rows))


class TestValueTypes:
    """The per-row value types are immutable, hashable named tuples."""

    VALUES = {
        "partition": lambda: Partition(8, 0b1011),
        "stats": lambda: BoundaryStats(1, 2, 3, 0, 1),
        "report": lambda: EntropyReport(2, 7, 1, 3),
    }

    @pytest.mark.parametrize("name", VALUES)
    def test_fields_are_read_only(self, name):
        value = self.VALUES[name]()
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        with pytest.raises(AttributeError):
            value.other = 0
        assert value == self.VALUES[name]()

    @pytest.mark.parametrize("name", VALUES)
    def test_equal_values_hash_equal(self, name):
        a, b = self.VALUES[name](), self.VALUES[name]()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_mask_wider_than_the_lattice(self):
        for make in (
            lambda: Partition(3, 8),
            lambda: Partition(3, -1),
            lambda: Partition(3, 5)._replace(a_mask=8),
            lambda: Partition._make((3, 8)),
        ):
            with pytest.raises(ValueError, match="partition mask wider than the lattice"):
                make()
        assert Partition(3, 7).b_mask == 0

    def test_properties(self):
        p = Partition(8, 0b1011)
        assert (p.b_mask, p.size_a, p.a_links()) == (0b11110100, 3, (0, 1, 3))
        assert p.complement() == Partition(8, 0b11110100)
        assert repr(p) == "Partition(n_links=8, a_mask=11)"
        stats = BoundaryStats(1, 2, 3, 0, 1)
        assert (stats.sigma_ab, stats.boundary_length) == (4, 6)
        report = EntropyReport(2, 7, 0, 3)
        assert (report.log2_free, report.diagonal) == (4, True)


class TestValidatedValueTypes:
    """`Lattice` and `GroundStateCoeffs` are named tuples that check their
    fields on every constructor, ``_make`` and ``_replace`` included."""

    def test_lattice_replace_and_make_validate(self):
        lat = build_torus(3)
        ends = list(lat.link_sites)
        ends[4] = (2, 2)
        loop = "^link 4 is a self-loop at site 2$"
        with pytest.raises(LatticeFormatError, match=loop):
            lat._replace(link_sites=tuple(ends))
        with pytest.raises(LatticeFormatError, match=loop):
            Lattice._make((9, tuple(ends), *lat[2:]))
        euler = "^Euler count 0 inconsistent with genus 2$"
        with pytest.raises(LatticeFormatError, match=euler):
            lat._replace(genus=2)
        with pytest.raises(LatticeFormatError, match=euler):
            Lattice._make((*lat[:3], 2, 3))
        for same in (Lattice._make(lat), lat._replace(), Lattice(*lat), Lattice(**lat._asdict())):
            assert type(same) is Lattice and same == lat

    def test_lattice_is_read_only(self):
        lat = build_torus(2)
        assert lat.star_links is lat.star_links  # cached in the instance
        for name in (*Lattice._fields, "star_links", "n_links", "other"):
            with pytest.raises(AttributeError):
                setattr(lat, name, 0)
            with pytest.raises(AttributeError):
                delattr(lat, name)
        assert lat == build_torus(2) and lat.star_links == build_torus(2).star_links
        assert repr(Lattice(2, ((0, 1),), ())) == (
            "Lattice(n_sites=2, link_sites=((0, 1),), plaquette_links=(), "
            "genus=None, torus_k=None)"
        )

    def test_equal_lattices_hash_equal(self):
        a, b = build_torus(3), build_torus(3)
        a.star_masks(), a.link_faces  # cached values enter neither
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != build_torus(4)

    def test_coeffs_replace_and_make_normalize(self):
        for make in (
            lambda: GroundStateCoeffs.xi(0, 0)._replace(a00=2),
            lambda: GroundStateCoeffs._make((2, 0, 0, 0)),
        ):
            with pytest.raises(
                ValueError, match=r"^coefficients are not normalized: \|c\|\^2 = 4\.0$"
            ):
                make()
        assert GroundStateCoeffs._make((0, 1, 0, 0)) == GroundStateCoeffs.xi(0, 1)
        assert repr(GroundStateCoeffs.xi(0, 0)) == (
            "GroundStateCoeffs(a00=(1+0j), a01=0j, a10=0j, a11=0j)"
        )


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
        st = disk_region(lat, rect=(0, 0, 1, 1)).stats
        assert geometric_entropy(st) == 3
        # the paper's perimeter form, L - n2 - 2*n3 - 1
        assert st.boundary_length - st.n2 - 2 * st.n3 - 1 == 3

    def test_convex_rect_is_perimeter_minus_one(self):
        lat = build_torus(7)
        for w, h in [(1, 2), (3, 3), (2, 5), (4, 1)]:
            st = disk_region(lat, rect=(1, 1, w, h)).stats
            assert geometric_entropy(st) == st.boundary_length - 1

    def test_notch_discounts(self):
        lat = build_torus(6)
        from flipent import region_from_sites

        block = {j * 6 + i for i in range(4) for j in range(3)}
        block.discard(2 * 6 + 3)
        block.discard(2 * 6 + 1)
        st = region_from_sites(lat, gf2.mask_from_indices(block, lat.n_sites)).stats
        assert (st.n2, st.n3) == (1, 1)
        assert geometric_entropy(st) == st.boundary_length - 4

    def test_matches_rank_formula_on_disks(self):
        lat = build_torus(8)
        stars = star_group(lat)
        rng = random.Random(5)
        for _ in range(40):
            part, st, _ = random_simple_region(lat, rng)
            s_exact = entropy_equal_superposition(stars, part).s_bits
            assert geometric_entropy(st) == s_exact
            assert st.boundary_length - st.n2 - 2 * st.n3 - 1 == s_exact


class TestBoundaryBounds:
    def test_examples(self):
        lat = build_torus(5)
        st8 = disk_region(lat, rect=(0, 0, 2, 2)).stats
        assert st8.boundary_length == 8
        assert boundary_bounds_check(st8, 7)
        st4 = disk_region(lat, rect=(0, 0, 1, 1)).stats
        assert boundary_bounds_check(st4, 3)

    def test_random_loops_within_bounds(self):
        lat = build_torus(12)
        stars = star_group(lat)
        rng = random.Random(6)
        for _ in range(60):
            part, st, _ = random_simple_region(lat, rng)
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

    def test_each_group_is_ranked_once(self, monkeypatch, capsys):
        forests = []
        forest_size = gf2._forest_size

        def counted(n_vertices, edges):
            forests.append(n_vertices)
            return forest_size(n_vertices, edges)

        monkeypatch.setattr(gf2, "_forest_size", counted)
        lat = build_torus(5)
        assert star_group(lat) is star_group(lat)
        assert plaquette_group(lat) is plaquette_group(lat)
        for _ in range(2):
            assert star_group(lat).rank() == plaquette_group(lat).rank() == 24
            assert independent_generator_count(lat) == 48
            assert ground_degeneracy(lat) == 4
        assert len(forests) == 2
        forests.clear()
        assert main(["lattice-info", "--lattice", "torus:k=5"]) == 0
        assert "ground_degeneracy: 4" in capsys.readouterr().out
        assert len(forests) == 2

    def test_each_group_is_flood_ranked_once(self, monkeypatch, capsys):
        # from GRID_MIN_K on a full group floods without union-find, so this
        # counts the full-column calls of Graph.rank
        full_ranks = []
        rank = gf2.Graph.rank

        def counted(graph, mask):
            if mask == (1 << len(graph.edges)) - 1:
                full_ranks.append(graph.n_vertices)
            return rank(graph, mask)

        monkeypatch.setattr(gf2.Graph, "rank", counted)
        k = gf2.GRID_MIN_K
        lat = build_torus(k)
        assert all(graph.grid for graph in lat._graphs)
        for _ in range(2):
            assert star_group(lat).rank() == plaquette_group(lat).rank() == k * k - 1
            assert independent_generator_count(lat) == 2 * k * k - 2
            assert ground_degeneracy(lat) == 4
        assert len(full_ranks) == 2
        full_ranks.clear()
        assert main(["lattice-info", "--lattice", f"torus:k={k}"]) == 0
        assert "ground_degeneracy: 4" in capsys.readouterr().out
        assert len(full_ranks) == 2

    def test_open_lattice_unsupported(self):
        from tests.test_lattice import planar_patch_document

        lat = parse_lattice_document(planar_patch_document())
        with pytest.raises(ValueError):
            ground_degeneracy(lat)


class TestFloodRanks:
    """From GRID_MIN_K on, the torus ranks a connected column set by one
    flood over site masks, with no union-find."""

    def test_disks_and_rects_run_no_union_find(self, monkeypatch):
        def refused(n_vertices, edges):
            raise AssertionError("union-find ran")

        monkeypatch.setattr(gf2, "_forest_size", refused)
        lat = build_torus(32)
        rng = random.Random(32)
        regions = [random_simple_region(lat, rng) for _ in range(20)]
        regions += [random_rectangle_region(lat, rng) for _ in range(20)]
        for region in regions:
            stars = entropy_equal_superposition(star_group(lat), region.partition)
            assert stars.s_bits == region.stats.sigma_ab - 1
            plaqs = entropy_equal_superposition(plaquette_group(lat), region.partition)
            assert 0 < plaqs.s_bits <= region.stats.boundary_length

    def test_vertical_cut_union_finds_its_other_cycles(self, monkeypatch):
        # all vertical links are k cycles of the site graph: one floods and
        # the other k - 1 go through union-find
        forests = []
        forest_size = gf2._forest_size

        def counted(n_vertices, edges):
            forests.append(n_vertices)
            return forest_size(n_vertices, edges)

        monkeypatch.setattr(gf2, "_forest_size", counted)
        k = 16
        lat = build_torus(k)
        report = entropy_equal_superposition(star_group(lat), named_partition(lat, "vertical"))
        assert report.s_bits == (k - 1) ** 2
        assert forests


class TestClosedStringNets:
    def test_equivalent_to_star_plus_ladder_membership(self, torus_k2, stars_k2):
        # the flips that meet every plaquette on an even number of links,
        # so commute with the Hamiltonian, are the stars and the ladders
        w1, w2 = ladder_operators(torus_k2)
        extended = Gf2Matrix(
            list(stars_k2.row_masks) + [w1, w2], 8
        )
        for v in range(256):
            closed = all((v & pm).bit_count() % 2 == 0
                         for pm in torus_k2.plaquette_masks())
            assert closed == extended.contains(v)


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

    @pytest.mark.parametrize(
        "name", ["stars-k2", "full-8", "cube-stars", "cube-plaquettes"]
    )
    def test_exhaustive_equals_brute_force_once_per_pair(self, monkeypatch, name):
        group = {
            "stars-k2": lambda: star_group(build_torus(2)),
            "full-8": lambda: full_flip_group(8),
            "cube-stars": lambda: star_group(GRAPH_LATTICES["cube"]),
            "cube-plaquettes": lambda: plaquette_group(GRAPH_LATTICES["cube"]),
        }[name]()
        n = group.n_cols
        best = min(
            (entropy_equal_superposition(group, Partition(n, m)).s_bits, m)
            for m in range(1, (1 << n) - 1)
        )
        calls = []

        def counted(g, p):
            calls.append(p.a_mask)
            return entropy_equal_superposition(g, p)

        monkeypatch.setattr(engine, "entropy_equal_superposition", counted)
        res = absolute_entanglement_scan(group, "exhaustive")
        assert res == ScanResult(best[0], Partition(n, best[1]), (1 << n) - 2)
        # one evaluation per unordered pair {A, B}, at the side without link n-1
        assert calls == list(range(1, 1 << (n - 1)))


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


def component_count(n_vertices, edges):
    """Connected components by depth-first search; isolated vertices count."""
    adj = [[] for _ in range(n_vertices)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n_vertices
    count = 0
    for start in range(n_vertices):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return count


def flip_graph(lat, group):
    """Vertex count and per-link edges of the graph whose cut space is the
    group: the lattice itself for the stars; for the plaquettes the dual
    graph, where a link in one plaquette (or none) ends at an outer vertex."""
    if group == "stars":
        return lat.n_sites, list(lat.link_sites)
    outer = lat.n_plaquettes
    ends = [[] for _ in range(lat.n_links)]
    for p, links in enumerate(lat.plaquette_links):
        for l in links:
            ends[l].append(p)
    return outer + 1, [tuple((e + [outer, outer])[:2]) for e in ends]


GRAPH_LATTICES = {
    **{f"torus-k{k}": build_torus(k) for k in range(2, 7)},
    **{name: parse_lattice_document((GOLDEN / f"{name}.lat").read_text())
       for name in ("cube", "patch")},
}


class TestComponentCounts:
    """S = |V| + c - c_A - c_B, with c, c_A and c_B the component counts of
    the group's graph with all links, the A links and the B links."""

    @pytest.mark.parametrize("group", ["stars", "plaquettes"])
    @pytest.mark.parametrize("name", GRAPH_LATTICES)
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_entropy_is_a_component_count(self, name, group, data):
        lat = GRAPH_LATTICES[name]
        n = lat.n_links
        p = Partition(n, data.draw(st.integers(1, (1 << n) - 2)))
        n_vertices, edges = flip_graph(lat, group)

        def components(mask):
            return component_count(
                n_vertices, [e for l, e in enumerate(edges) if mask >> l & 1]
            )

        everything = p.a_mask | p.b_mask
        s = (n_vertices + components(everything)
             - components(p.a_mask) - components(p.b_mask))
        matrix = star_group(lat) if group == "stars" else plaquette_group(lat)
        assert entropy_equal_superposition(matrix, p).s_bits == s

    def test_patch_has_weight_one_plaquette_columns(self):
        _, edges = flip_graph(GRAPH_LATTICES["patch"], "plaquettes")
        assert any(4 in e for e in edges)  # 4 = the outer vertex

    def test_star_entropy_builds_no_echelon_form(self):
        lat = build_torus(16)
        group = star_group(lat)
        part = Partition(lat.n_links, random.Random(16).getrandbits(lat.n_links))
        entropy_equal_superposition(group, part)
        assert "_echelon" not in group.__dict__


def eliminated_report(group, p):
    """The engine's report from three ranks by Gaussian elimination."""
    rows = group.row_masks
    r = len(gf2._echelonize(rows))
    r_a = len(gf2._echelonize([m & p.a_mask for m in rows]))
    r_b = len(gf2._echelonize([m & p.b_mask for m in rows]))
    return EntropyReport(
        s_bits=r_a + r_b - r, log2_group=r,
        log2_inside_a=r - r_b, log2_inside_b=r - r_a,
    )


def loop_classes(lat, group):
    """Link sets of the annihilator's loop classes beyond the dual graph's
    cuts: none on the cube and the patch; on the torus the column and row
    loops for the stars, the two kinds of ladder for the plaquettes."""
    k = lat.torus_k
    if k is None:
        return []
    h = [[torus_h(k, i, j) for i in range(k)] for j in range(k)]  # h[j]: row j
    v = [[torus_v(k, i, j) for i in range(k)] for j in range(k)]
    columns = [list(c) for c in zip(*v)]  # {v(i, j) : j}, one per i
    ladders = [list(c) for c in zip(*h)]  # {h(i, j) : j}, one per i
    return [columns, h] if group == "stars" else [ladders, v]


def record_ranks(monkeypatch, graph):
    """The masks that ``graph`` is ranked on from now on; other graphs
    are ranked unrecorded."""
    masks = []
    rank = gf2.Graph.rank

    def recorded(self, mask):
        if self is graph:
            masks.append(mask)
        return rank(self, mask)

    monkeypatch.setattr(gf2.Graph, "rank", recorded)
    return masks


def dual_path_applies(lat, group, p):
    """True iff every loop class has a loop that misses the smaller side
    (A when |A| <= |B|)."""
    x = p.a_mask if 2 * p.size_a <= p.n_links else p.b_mask
    return all(
        any(not any(x >> l & 1 for l in loop) for loop in loops)
        for loops in loop_classes(lat, group)
    )


DUAL_LATTICES = {
    **{f"torus-k{k}": build_torus(k) for k in range(2, 9)},
    **{name: GRAPH_LATTICES[name] for name in ("cube", "patch")},
}


@st.composite
def dual_cases(draw, lat, group):
    """A proper partition: a sparse side of 1..n/4 links, a sampled disk or
    rect, `cross`, `vertical`, a side that meets every loop of one class,
    or any mask; either side may be A."""
    n = lat.n_links
    kinds = ["sparse", "any"]
    if lat.torus_k is not None:
        kinds += ["cross", "vertical", "hits-a-class"]
        kinds += ["rect"] * (lat.torus_k >= 3) + ["disk"] * (lat.torus_k >= 4)
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "sparse":
        size = rng.randint(1, max(1, n // 4))
        mask = sum(1 << l for l in rng.sample(range(n), size))
    elif kind == "any":
        mask = rng.randint(1, (1 << n) - 2)
    elif kind in ("cross", "vertical"):
        mask = named_partition(lat, kind).a_mask
    elif kind == "hits-a-class":
        loops = rng.choice(loop_classes(lat, group))
        mask = sum(1 << rng.choice(loop) for loop in loops)
    else:
        sample = random_simple_region if kind == "disk" else random_rectangle_region
        mask = sample(lat, rng)[0].a_mask
    if draw(st.booleans()):
        mask ^= (1 << n) - 1
    return Partition(n, mask)


class TestDualPath:
    """S = r(X) + r_dual(X) - |X| on the smaller side X, where the dual path
    applies, and the two-rank path everywhere else."""

    @pytest.mark.parametrize("group", ["stars", "plaquettes"])
    @pytest.mark.parametrize("name", DUAL_LATTICES)
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_elimination_on_the_expected_path(self, name, group, data):
        lat = DUAL_LATTICES[name]
        matrix = star_group(lat) if group == "stars" else plaquette_group(lat)
        dual = matrix.graph.dual
        assert dual is not None  # built outside the recording below
        p = data.draw(dual_cases(lat, group))
        with pytest.MonkeyPatch.context() as mp:
            dual_ranks = record_ranks(mp, dual)
            report = entropy_equal_superposition(matrix, p)
        assert report == eliminated_report(matrix, p)
        assert bool(dual_ranks) == dual_path_applies(lat, group, p)

    @pytest.mark.parametrize("group", ["stars", "plaquettes"])
    def test_both_paths_run(self, monkeypatch, group):
        lat = build_torus(6)
        matrix = star_group(lat) if group == "stars" else plaquette_group(lat)
        calls = record_ranks(monkeypatch, matrix.graph.dual)
        disk = disk_region(lat, rect=(1, 1, 2, 3))[0]
        for p in (disk, disk.complement()):
            report = entropy_equal_superposition(matrix, p)
            assert report == eliminated_report(matrix, p)
        assert calls == [disk.a_mask, disk.a_mask]
        calls.clear()
        for name in ("cross", "vertical"):
            p = named_partition(lat, name)
            report = entropy_equal_superposition(matrix, p)
            assert report == eliminated_report(matrix, p)
        assert calls == []

    def test_documents_with_uncovered_loops_keep_two_ranks(self):
        # a torus read from a document carries no loops, so it has no dual
        lat = parse_lattice_document(lattice_to_document(build_torus(3)))
        rng = random.Random(7)
        for matrix in (star_group(lat), plaquette_group(lat)):
            assert matrix.graph.dual is None
            for _ in range(20):
                p = Partition(lat.n_links, rng.randint(1, (1 << lat.n_links) - 2))
                report = entropy_equal_superposition(matrix, p)
                assert report == eliminated_report(matrix, p)
        cube = star_group(GRAPH_LATTICES["cube"]).graph
        assert cube.dual is not None
        assert cube.loop_classes == ()

    def test_link_on_three_faces(self, capsys, tmp_path):
        # four parallel links between two sites, link 0 on all three faces:
        # the faces would be no graph's vertices, so the lattice is refused
        doc = (
            "LATTICE v1 open\nSITES\n0\n1\nLINKS\n0 1\n0 1\n0 1\n0 1\n"
            "PLAQUETTES\n0 1\n0 2\n0 3\n"
        )
        message = "link 0 lies on plaquettes 0, 1 and 2"
        with pytest.raises(LatticeFormatError, match=f"^{message}$"):
            parse_lattice_document(doc)
        path = tmp_path / "three-faces.lat"
        path.write_text(doc)
        assert main(["lattice-info", "--lattice", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--lattice", "torus:k=8", "--mode", "disks", "--count", "20",
             "--seed", "3"],
            ["entropy", "--lattice", "torus:k=8", "--partition", "cross"],
        ],
        ids=["scan-disks", "entropy-cross"],
    )
    def test_builds_no_plaquette_masks(self, monkeypatch, capsys, argv):
        # the face graph's edges are `link_faces`, so the star group's dual
        # path ranks it without a plaquette mask
        def refused(self):
            raise AssertionError("plaquette masks built")

        monkeypatch.setattr(Lattice, "plaquette_masks", refused)
        monkeypatch.setattr(Lattice, "_plaquette_masks", property(refused))
        ranked = set()  # the vertex counts of the graphs ranked
        rank = gf2.Graph.rank

        def recorded(self, mask):
            ranked.add(self.n_vertices)
            return rank(self, mask)

        monkeypatch.setattr(gf2.Graph, "rank", recorded)
        assert main(argv) == 0
        assert capsys.readouterr().out
        # the disks take the dual path through the face graph (64 faces and
        # the outer vertex); `cross` meets both loop classes, so it ranks
        # the site graph alone
        assert ranked == ({64, 65} if argv[0] == "scan" else {64})

    def test_repeated_link_in_a_plaquette(self):
        # the repeat leaves the masks alone and counts once in the face
        # graph, so the disk takes the dual path and gets the torus's S
        torus = build_torus(6)
        links = torus.plaquette_links
        lat = torus._replace(
            plaquette_links=((links[0][0], *links[0]), *links[1:])
        )
        assert lat.plaquette_masks() == torus.plaquette_masks()
        p = disk_region(lat, rect=(0, 0, 2, 2))[0]
        matrix = star_group(lat)
        report = entropy_equal_superposition(matrix, p)
        assert report.s_bits == 7
        assert report == entropy_equal_superposition(star_group(torus), p)
        assert report == eliminated_report(matrix, p)
        assert matrix.graph.dual is not None


class TestTorusLoops:
    """Both graphs' loop classes, the ladder flips and the named cuts
    `chain`, `ladder` and `cross` come from one set of torus loops."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_loops_are_the_explicit_link_lists(self, k):
        lat = build_torus(k)
        n = lat.n_links

        def mask(links):
            return sum(1 << l for l in links)

        chain = [torus_v(k, 0, j) for j in range(k)]
        ladder = [torus_h(k, 0, j) for j in range(k)]
        rung = [torus_v(k, i, 0) for i in range(k)]
        assert ladder_operators(lat) == (mask(rung), mask(ladder))
        for name, links in [("chain", chain), ("ladder", ladder),
                            ("cross", chain + ladder)]:
            assert named_partition(lat, name) == Partition(n, mask(links))
        graphs = {"stars": star_group(lat).graph,
                  "plaquettes": plaquette_group(lat).graph}
        for group, graph in graphs.items():
            want = [tuple(map(mask, loops)) for loops in loop_classes(lat, group)]
            assert list(graph.loop_classes) == want
        assert graphs["stars"].dual is graphs["plaquettes"]
        assert graphs["plaquettes"].dual is graphs["stars"]


class TestOneIncidence:
    def test_swapped_link_ends(self):
        # Masks, graphs and neighbours all follow the stored incidence, so
        # relabelling links 0 and 9 in both fields gives one consistent
        # lattice: the torus with two columns exchanged.  Without torus_k
        # it has no loops, and every rank path agrees with elimination.
        torus = build_torus(3)
        swap = {0: 9, 9: 0}
        ends = [torus.link_sites[swap.get(l, l)] for l in range(torus.n_links)]
        plaqs = [sorted(swap.get(l, l) for l in p) for p in torus.plaquette_links]
        lat = Lattice(
            torus.n_sites, tuple(ends), tuple(map(tuple, plaqs)), genus=1
        )
        stars = lat.star_masks()
        group = star_group(lat)
        assert group.graph.edges == lat.link_sites
        faces = [torus.link_faces[swap.get(l, l)] for l in range(lat.n_links)]
        assert plaquette_group(lat).graph.edges == lat.link_faces == tuple(faces)
        for v in range(lat.n_sites):
            cut = [l for l, ab in enumerate(lat.link_sites) if v in ab]
            assert stars[v] == sum(1 << l for l in cut)
            assert lat._neighbor_sites[v] == tuple(
                b if a == v else a for a, b in map(lat.link_sites.__getitem__, cut)
            )
        masks = Gf2Matrix(stars, lat.n_links)
        rng = random.Random(15)
        for _ in range(200):
            p = Partition(lat.n_links, rng.randrange(1, (1 << lat.n_links) - 1))
            want = eliminated_report(masks, p)
            r_a = group.restricted_rank(p.a_mask)
            r_b = group.restricted_rank(p.b_mask)
            assert r_a + r_b - group.rank() == want.s_bits
            assert (r_a, r_b) == (want.log2_group - want.log2_inside_b,
                                  want.log2_group - want.log2_inside_a)
            assert entropy_equal_superposition(group, p) == want

    def test_swapping_link_ends_alone_is_refused(self):
        # Links 0 and 9 trading ends in link_sites only: the stars no longer
        # commute with the plaquettes.  Unchecked, the dual path gave S = 7
        # where elimination gives 8 on 2 of 200 partitions; construction,
        # also through ``_replace``, now refuses the lattice.
        torus = build_torus(3)
        ends = list(torus.link_sites)
        ends[0], ends[9] = ends[9], ends[0]
        with pytest.raises(
            LatticeFormatError,
            match="^star 1 and plaquette 2 share an odd number of links$",
        ):
            torus._replace(link_sites=tuple(ends))
