import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from flipent import (
    LatticeFormatError,
    ResourceLimitError,
    boundary_stats,
    build_torus,
    disk_region,
    entropy_equal_superposition,
    ladder_operators,
    lattice_to_document,
    named_partition,
    parse_lattice_document,
    plaquette_group,
    random_rectangle_region,
    random_simple_region,
    region_from_sites,
    star_group,
)
from flipent.cli import _try_stats
from flipent.gf2 import mask_from_indices
from flipent.lattice import (
    MAX_TORUS_BYTES,
    Lattice,
    Partition,
    torus_h,
    torus_v,
)


def planar_patch_document():
    # open 2x2 patch of plaquettes: 3x3 sites, 12 links, 4 faces
    links = []
    for j in range(3):
        for i in range(2):
            links.append((3 * j + i, 3 * j + i + 1))  # horizontal, ids 0..5
    for j in range(2):
        for i in range(3):
            links.append((3 * j + i, 3 * j + i + 3))  # vertical, ids 6..11
    faces = [
        (0, 2, 6, 7),
        (1, 3, 7, 8),
        (2, 4, 9, 10),
        (3, 5, 10, 11),
    ]
    lines = ["LATTICE v1 open", "SITES"]
    lines += [str(s) for s in range(9)]
    lines.append("LINKS")
    lines += [f"{a} {b}" for a, b in links]
    lines.append("PLAQUETTES")
    lines += [" ".join(map(str, f)) for f in faces]
    return "\n".join(lines) + "\n"


def cube_document():
    # genus-0 closed surface: corners of a cube, 12 edges, 6 faces
    x_edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    y_edges = [(0, 2), (1, 3), (4, 6), (5, 7)]
    z_edges = [(0, 4), (1, 5), (2, 6), (3, 7)]
    links = x_edges + y_edges + z_edges
    faces = [
        (0, 1, 4, 5),
        (2, 3, 6, 7),
        (0, 2, 8, 9),
        (1, 3, 10, 11),
        (4, 6, 8, 10),
        (5, 7, 9, 11),
    ]
    lines = ["LATTICE v1 closed", "SITES"]
    lines += [str(s) for s in range(8)]
    lines.append("LINKS")
    lines += [f"{a} {b}" for a, b in links]
    lines.append("PLAQUETTES")
    lines += [" ".join(map(str, f)) for f in faces]
    return "\n".join(lines) + "\n"


class TestBuildTorus:
    def test_k2_counts(self, torus_k2):
        assert torus_k2.n_links == 8
        assert torus_k2.n_sites == 4
        assert torus_k2.n_plaquettes == 4

    def test_k3_euler(self, torus_k3):
        assert torus_k3.n_sites - torus_k3.n_links + torus_k3.n_plaquettes == 0
        assert torus_k3.genus == 1

    def test_k4_even_overlaps(self):
        lat = build_torus(4)
        for sm in lat.star_masks():
            for pm in lat.plaquette_masks():
                assert (sm & pm).bit_count() in (0, 2)

    def test_every_star_and_plaquette_has_four_links(self):
        lat = build_torus(5)
        assert all(len(s) == 4 for s in lat.star_links)
        assert all(len(p) == 4 for p in lat.plaquette_links)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_stars_are_derived_from_link_ends(self, k):
        # star (i, j) is its two horizontal and two vertical links, sorted
        lat = build_torus(k)
        assert lat.star_links == tuple(
            tuple(sorted((torus_h(k, i, j), torus_h(k, i - 1, j),
                          torus_v(k, i, j), torus_v(k, i, j - 1))))
            for j in range(k)
            for i in range(k)
        )
        assert list(Lattice._fields) == [
            "n_sites", "link_sites", "plaquette_links", "genus", "torus_k"
        ]

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_torus(1)

    def test_size_cap_raises_before_allocating(self):
        # k=182 is the smallest size over the cap, and small enough to build
        # if the check were missing
        with pytest.raises(ResourceLimitError):
            build_torus(182)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                build_torus(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_cap_admits_k128(self):
        assert 128**4 <= MAX_TORUS_BYTES
        assert build_torus(128).n_links == 2 * 128 * 128

    def test_k48_unchanged_by_cap(self):
        lat = build_torus(48)
        assert (lat.n_sites, lat.n_links, lat.n_plaquettes) == (2304, 4608, 2304)


class TestFlipGroups:
    @pytest.mark.parametrize("k,rank", [(2, 3), (5, 24)])
    def test_star_rank(self, k, rank):
        assert star_group(build_torus(k)).rank() == rank

    @pytest.mark.parametrize("k", range(2, 9))
    def test_rank_structure_up_to_k8(self, k):
        lat = build_torus(k)
        assert star_group(lat).rank() == k * k - 1
        assert plaquette_group(lat).rank() == k * k - 1

    def test_star_rows_sum_to_zero(self):
        total = 0
        for mask in star_group(build_torus(3)).row_masks:
            total ^= mask
        assert total == 0

    def test_plaquette_rank_k2(self, torus_k2):
        assert plaquette_group(torus_k2).rank() == 3

    def test_plaquette_rows_sum_to_zero_k3(self, torus_k3):
        total = 0
        for mask in plaquette_group(torus_k3).row_masks:
            total ^= mask
        assert total == 0

    def test_single_plaquette_patch_rank(self):
        doc = planar_patch_document()
        lat = parse_lattice_document(doc)
        one = plaquette_group(lat)
        assert one.n_rows == 4
        # a lone face of the patch
        from flipent import Gf2Matrix

        assert Gf2Matrix([one.row_masks[0]], lat.n_links).rank() == 1


class TestLadderOperators:
    def test_outside_star_group(self, torus_k2, stars_k2):
        w1, w2 = ladder_operators(torus_k2)
        assert not stars_k2.contains(w1)
        assert not stars_k2.contains(w2)
        assert not stars_k2.contains(w1 ^ w2)

    def test_self_inverse(self, torus_k2):
        w1, _ = ladder_operators(torus_k2)
        assert w1 ^ w1 == 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_even_overlap_with_every_plaquette(self, k):
        lat = build_torus(k)
        w1, w2 = ladder_operators(lat)
        for pm in lat.plaquette_masks():
            assert (w1 & pm).bit_count() % 2 == 0
            assert (w2 & pm).bit_count() % 2 == 0

    def test_supports(self, torus_k3):
        w1, w2 = ladder_operators(torus_k3)
        assert w1 == sum(1 << torus_v(3, i, 0) for i in range(3))
        assert w2 == sum(1 << torus_h(3, 0, j) for j in range(3))

    def test_requires_torus(self):
        lat = parse_lattice_document(cube_document())
        with pytest.raises(ValueError):
            ladder_operators(lat)


#: the 8 symmetries of the square as site maps (i, j) -> (xx*i + xy*j,
#: yx*i + yy*j): the rotations by 0, 90, 180 and 270 degrees, then the
#: mirror (i, j) -> (-i, j), the transpose and the other two reflections
POINT_MAPS = [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
              (-1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1), (0, -1, -1, 0)]
IDENTITY, MIRROR, TRANSPOSE = POINT_MAPS[0], POINT_MAPS[4], POINT_MAPS[5]


def reference_symmetry(k: int, point, a: int = 0, b: int = 0) -> list[int]:
    """The link permutation of the torus symmetry (i, j) -> point(i, j) +
    (a, b), from `torus_h` and `torus_v`: each link goes to the link
    between the images of its two end sites."""
    xx, xy, yx, yy = point

    def site(i, j):  # unreduced, so that two ends differ by a unit step
        return xx * i + xy * j + a, yx * i + yy * j + b

    def link(end, other):
        (i, j), (i2, _) = sorted((end, other))
        return torus_v(k, i, j) if i == i2 else torus_h(k, i, j)

    perm = [0] * (2 * k * k)
    for i in range(k):
        for j in range(k):
            perm[torus_h(k, i, j)] = link(site(i, j), site(i + 1, j))
            perm[torus_v(k, i, j)] = link(site(i, j), site(i, j + 1))
    return perm


def reference_symmetries(k: int) -> list[list[int]]:
    """The 8 k**2 symmetries of the k x k torus, every translation after
    every point map."""
    return [reference_symmetry(k, point, a, b)
            for point in POINT_MAPS for a in range(k) for b in range(k)]


def permuted(perm: list[int], mask: int) -> int:
    return sum(1 << perm[l] for l in range(len(perm)) if mask >> l & 1)


def torus_maps(lat) -> tuple:
    """The unit column and row shifts of the torus, from
    `reference_symmetry`, and its transpose and mirror, from
    `Lattice._torus_shifts`, as maps of link masks."""
    k = lat.torus_k
    column = reference_symmetry(k, IDENTITY, 1, 0)
    row = reference_symmetry(k, IDENTITY, 0, 1)
    transpose, mirror, _, _ = lat._torus_shifts
    return (lambda mask: permuted(column, mask), lambda mask: permuted(row, mask),
            transpose, mirror)


class TestTorusShifts:
    """The translations and reflections of the torus, and the symmetry
    orbit the exhaustive scan shares its values over."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_shifts_map_stars_and_plaquettes_to_themselves(self, k):
        lat = build_torus(k)
        assert len(lat._torus_shifts) == 4
        for shift in torus_maps(lat):
            for masks in (lat.star_masks(), lat.plaquette_masks()):
                assert sorted(map(shift, masks)) == sorted(masks)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_k_shifts_are_the_identity(self, k):
        # k unit translations, or a reflection twice
        lat = build_torus(k)
        n = lat.n_links
        rng = random.Random(k)
        masks = [1 << l for l in range(n)] + [rng.getrandbits(n) for _ in range(50)]
        column_shift, row_shift, transpose, mirror = torus_maps(lat)
        for shift, order in ((column_shift, k), (row_shift, k), (transpose, 2), (mirror, 2)):
            for mask in masks:
                image = mask
                for _ in range(order):
                    image = shift(image)
                    assert image >> n == 0
                assert image == mask

    @pytest.mark.parametrize("k", range(2, 7))
    def test_unit_shifts_and_orbit_match_the_site_translations(self, k):
        lat = build_torus(k)
        expected = [reference_symmetry(k, IDENTITY, 1, 0),
                    reference_symmetry(k, IDENTITY, 0, 1),
                    reference_symmetry(k, TRANSPOSE), reference_symmetry(k, MIRROR)]
        perms = reference_symmetries(k)
        rng = random.Random(k)
        for mask in [1 << l for l in range(lat.n_links)] + [
            rng.getrandbits(lat.n_links) for _ in range(30)
        ]:
            for shift, perm in zip(torus_maps(lat), expected):
                assert shift(mask) == permuted(perm, mask)
            orbit = lat.symmetry_orbit(mask)
            assert orbit[0] == mask
            assert sorted(orbit) == sorted(permuted(p, mask) for p in perms)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_orbit_order_is_the_shifts_composed(self, k):
        # each translation after each point map, in the shifts' own order
        lat = build_torus(k)
        column_shift, row_shift, transpose, mirror = torus_maps(lat)
        rng = random.Random(k)
        for mask in [1 << l for l in range(lat.n_links)] + [
            rng.getrandbits(lat.n_links) for _ in range(30)
        ]:
            images, image = [], mask
            for reflect in (transpose, mirror) * 4:
                for _ in range(k):
                    for _ in range(k):
                        images.append(image)
                        image = column_shift(image)
                    image = row_shift(image)
                image = reflect(image)
            assert lat.symmetry_orbit(mask) == images

    @pytest.mark.parametrize("k", range(2, 6))
    def test_reference_maps_are_symmetries(self, k):
        # the reference the orbit is checked against: each of its 8 k**2
        # link permutations sends the stars onto the stars and the
        # plaquettes onto the plaquettes
        lat = build_torus(k)
        perms = reference_symmetries(k)
        assert len(perms) == 8 * k * k
        for perm in perms:
            assert sorted(perm) == list(range(lat.n_links))
            for masks in (lat.star_masks(), lat.plaquette_masks()):
                assert sorted(permuted(perm, m) for m in masks) == sorted(masks)

    @pytest.mark.parametrize("group", ["stars", "plaquettes"])
    @pytest.mark.parametrize("k, count", [(3, 40), (4, 12)])
    def test_orbit_keeps_entropy_and_stats(self, k, count, group):
        lat = build_torus(k)
        matrix = star_group(lat) if group == "stars" else plaquette_group(lat)
        n = lat.n_links
        rng = random.Random(100 + k)
        for mask in (rng.randrange(1, (1 << n) - 1) for _ in range(count)):
            values = {
                (entropy_equal_superposition(matrix, Partition(n, image)).s_bits,
                 _try_stats(lat, Partition(n, image)))
                for image in lat.symmetry_orbit(mask)
            }
            assert len(values) == 1

    def test_off_the_torus_the_orbit_is_the_mask(self):
        for doc in (cube_document(), planar_patch_document()):
            lat = parse_lattice_document(doc)
            assert lat._torus_shifts == ()
            for mask in range(1 << lat.n_links):
                assert lat.symmetry_orbit(mask) == [mask]


class TestNamedPartitions:
    def test_chain_size(self, torus_k3):
        assert named_partition(torus_k3, "chain").size_a == 3

    def test_cross_size(self):
        assert named_partition(build_torus(4), "cross").size_a == 8

    def test_vertical_size(self, torus_k3):
        assert named_partition(torus_k3, "vertical").size_a == 9

    def test_ladder_is_vertical_dual_loop(self, torus_k3):
        p = named_partition(torus_k3, "ladder")
        _, w2 = ladder_operators(torus_k3)
        assert p.a_mask == w2

    def test_single_spin_and_pair(self, torus_k2):
        assert named_partition(torus_k2, "single_spin", 5).a_links() == (5,)
        assert named_partition(torus_k2, "pair", 1, 6).a_links() == (1, 6)
        with pytest.raises(ValueError):
            named_partition(torus_k2, "pair", 1, 1)

    def test_unknown_name(self, torus_k2):
        with pytest.raises(ValueError):
            named_partition(torus_k2, "blob")


class TestBoundaryStats:
    def test_everything_in_a(self, torus_k3):
        p = Partition(torus_k3.n_links, (1 << torus_k3.n_links) - 1)
        st = boundary_stats(torus_k3, p)
        assert st.sigma_a == torus_k3.n_sites
        assert st.sigma_ab == 0

    def test_chain_straddles_everywhere(self, torus_k3):
        st = boundary_stats(torus_k3, named_partition(torus_k3, "chain"))
        assert st.sigma_a == 0
        assert (st.n1, st.n2, st.n3) == (0, 3, 0)
        assert st.sigma_ab == 3

    def test_site_classification_covers_lattice(self, torus_k3):
        rng = random.Random(7)
        for _ in range(50):
            mask = rng.getrandbits(torus_k3.n_links)
            st = boundary_stats(torus_k3, Partition(torus_k3.n_links, mask))
            st.check(torus_k3)


class TestDiskRegion:
    def test_unit_rect(self):
        lat = build_torus(4)
        part, st, loop = disk_region(lat, rect=(1, 1, 1, 1))
        assert part.size_a == 4
        assert loop == part.a_mask == lat.star_masks()[5]
        assert st.boundary_length == 4
        assert (st.n2, st.n3) == (0, 0)
        assert st.sigma_a == 1

    def test_two_by_two_rect(self):
        lat = build_torus(5)
        part, st, loop = disk_region(lat, rect=(0, 0, 2, 2))
        assert st.boundary_length == 8 == loop.bit_count()
        assert (st.n2, st.n3) == (0, 0)
        assert st.sigma_ab == 8
        assert st.sigma_a == 4
        assert part.size_a == 12

    def test_convex_rects_have_sigma_ab_equal_perimeter(self):
        lat = build_torus(7)
        for w in range(1, 6):
            for h in range(1, 6):
                st = disk_region(lat, rect=(2, 3, w, h)).stats
                assert st.sigma_ab == st.boundary_length == 2 * (w + h)

    def test_notched_region_counts(self):
        # 4x3 block of sites minus one corner (n2 site) and one top-edge
        # site buried on three sides (n3 site)
        lat = build_torus(6)
        k = 6
        block = {(j % k) * k + (i % k) for i in range(4) for j in range(3)}
        block.discard(2 * k + 3)  # corner notch
        block.discard(2 * k + 1)  # deep notch
        st = region_from_sites(lat, mask_from_indices(block, lat.n_sites)).stats
        assert st.n2 == 1
        assert st.n3 == 1

    @pytest.mark.parametrize("site", [-1, 16])
    def test_site_ids_outside_the_lattice_rejected(self, site):
        # the mask -1 has every bit set, above the 16 sites too; bit 16 is
        # the first bit past the last site
        lat = build_torus(4)
        mask = site if site < 0 else 1 << 5 | 1 << site
        with pytest.raises(ValueError, match="site mask out of range for 16 sites"):
            region_from_sites(lat, mask)

    @pytest.mark.parametrize("mask", [0, (1 << 16) - 1], ids=["empty", "full"])
    def test_empty_and_full_regions_rejected(self, mask):
        lat = build_torus(4)
        with pytest.raises(ValueError, match="region must enclose some but not all sites"):
            region_from_sites(lat, mask)

    def test_last_site_id_accepted(self):
        lat = build_torus(4)
        part, st, loop = region_from_sites(lat, 1 << 15)
        assert part.a_links() == lat.star_links[15]
        assert loop == part.a_mask
        assert (st.sigma_a, st.n1) == (1, 4)

    def test_loop_round_trip(self):
        # feed the crossed links of a known region back in as a dual loop
        lat = build_torus(6)
        k = 6
        block = {(j % k) * k + (i % k) for i in range(4) for j in range(3)}
        block.discard(2 * k + 3)
        block.discard(2 * k + 1)
        direct = region_from_sites(lat, mask_from_indices(block, lat.n_sites))
        crossed = [
            l
            for l, (a, b) in enumerate(lat.link_sites)
            if (a in block) != (b in block)
        ]
        via_loop = disk_region(lat, dual_loop=crossed)
        assert via_loop == direct
        assert via_loop.loop == direct.loop == mask_from_indices(crossed, lat.n_links)

    def test_loop_that_does_not_bound_its_region(self):
        # the path 0-1-2-3 with a second 2-3 link and no faces: cutting
        # links 0 and 3 splits off site 0, whose loop is link 0 alone
        lat = parse_lattice_document(
            "LATTICE v1 open\nSITES\n0\n1\n2\n3\n"
            "LINKS\n0 1\n1 2\n2 3\n2 3\nPLAQUETTES\n"
        )
        assert region_from_sites(lat, 0b1).loop == 0b1
        with pytest.raises(ValueError, match="loop does not bound the region"):
            disk_region(lat, dual_loop=[0, 3])

    def test_loop_check_reads_the_face_incidence(self, monkeypatch):
        # each plaquette's hits are counted from the crossed links' faces:
        # no plaquette mask is built, and the first error is the one that
        # ANDing every plaquette mask with the loop gives
        lat = build_torus(5)
        stars = lat.star_links
        bad_loops = [
            sorted(set(stars[0]) | set(stars[6])),  # meets plaquette 0 4 times
            list(stars[7][:3]),  # an open path: plaquettes met once
            [torus_v(5, i, 2) for i in range(5)],  # noncontractible, 2 each
        ]
        wants = []
        for loop in bad_loops:
            crossed = sum(1 << l for l in loop)
            hits = [(pm & crossed).bit_count() for pm in lat.plaquette_masks()]
            odd = [(p, d) for p, d in enumerate(hits) if d not in (0, 2)]
            wants.append(
                "dual edges meet plaquette {} {} times; not a simple cycle".format(
                    *odd[0]
                ) if odd else "loop splits the sites into 1 components"
            )

        def refused(self):
            raise AssertionError("plaquette masks built")

        monkeypatch.setattr(Lattice, "plaquette_masks", refused)
        lat = build_torus(5)
        for loop, want in zip(bad_loops, wants):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
                disk_region(lat, dual_loop=loop)
        block = {0, 1, 5, 6}
        crossed = [
            l for l, (a, b) in enumerate(lat.link_sites) if (a in block) != (b in block)
        ]
        region = disk_region(lat, dual_loop=crossed)
        assert region == region_from_sites(lat, mask_from_indices(block, lat.n_sites))
        assert region.loop == mask_from_indices(crossed, lat.n_links)
        assert region.stats.boundary_length == 8

    def test_noncontractible_loop_rejected(self, torus_k3):
        ring = [torus_v(3, i, 0) for i in range(3)]
        with pytest.raises(ValueError):
            disk_region(torus_k3, dual_loop=ring)

    @pytest.mark.parametrize("k", [3, 5, 8])
    @pytest.mark.parametrize(
        "link", [torus_v, lambda k, i, j: torus_h(k, j, i)], ids=["rows", "columns"]
    )
    def test_parallel_noncontractible_loops_rejected(self, k, link):
        # the links of rows 0 and 2 (or columns 0 and 2) are two dual
        # cycles; they split the sites in two, and each plaquette they
        # meet they meet twice, yet they are no disk's loop
        lat = build_torus(k)
        band = [link(k, i, j) for j in (0, 2) for i in range(k)]
        with pytest.raises(ValueError, match="^dual edges form 2 components; "):
            disk_region(lat, dual_loop=band)

    def test_non_simple_loop_rejected(self):
        lat = build_torus(5)
        fig8 = sorted(set(lat.star_links[0]) | set(lat.star_links[6]))
        with pytest.raises(ValueError):
            disk_region(lat, dual_loop=fig8)

    def test_equal_area_tie_rejected(self):
        lat = build_torus(4)
        blob = {0, 1, 2, 4, 5, 6, 8, 9}  # 8 of 16 sites, contractible
        crossed = [
            l
            for l, (a, b) in enumerate(lat.link_sites)
            if (a in blob) != (b in blob)
        ]
        with pytest.raises(ValueError):
            disk_region(lat, dual_loop=crossed)

    def test_rect_side_caps(self):
        lat = build_torus(4)
        with pytest.raises(ValueError):
            disk_region(lat, rect=(0, 0, 4, 1))
        with pytest.raises(ValueError):
            disk_region(lat, rect=(0, 0, 0, 1))

    def test_random_loop_invariants(self):
        lat = build_torus(9)
        rng = random.Random(42)
        for _ in range(100):
            part, st, loop = random_simple_region(lat, rng)
            st.check(lat)
            # recover the enclosed sites: those whose links all lie in A
            inside = {
                s
                for s, links in enumerate(lat.star_links)
                if all((part.a_mask >> l) & 1 for l in links)
            }
            crossed = sum(
                1 << l
                for l, (a, b) in enumerate(lat.link_sites)
                if (a in inside) != (b in inside)
            )
            assert st.sigma_a == len(inside)
            assert loop == crossed
            assert st.boundary_length == crossed.bit_count()
            assert st.sigma_ab == st.n1 + st.n2 + st.n3

    def test_random_rectangles_are_convex(self):
        lat = build_torus(8)
        rng = random.Random(1)
        for _ in range(50):
            st = random_rectangle_region(lat, rng).stats
            assert (st.n2, st.n3) == (0, 0)
            assert st.sigma_ab == st.boundary_length


class TestDocuments:
    def test_torus_round_trip(self, torus_k2):
        doc = lattice_to_document(torus_k2)
        back = parse_lattice_document(doc)
        assert back.star_masks() == torus_k2.star_masks()
        assert back.plaquette_masks() == torus_k2.plaquette_masks()
        assert back.genus == 1

    def test_open_patch(self):
        lat = parse_lattice_document(planar_patch_document())
        assert lat.genus is None
        assert (lat.n_sites, lat.n_links, lat.n_plaquettes) == (9, 12, 4)

    def test_cube_is_genus_zero(self):
        lat = parse_lattice_document(cube_document())
        assert lat.genus == 0

    def test_odd_overlap_rejected(self):
        doc = (
            "LATTICE v1 open\n"
            "SITES\n0\n1\n2\n"
            "LINKS\n0 1\n1 2\n"
            "PLAQUETTES\n0\n"
        )
        with pytest.raises(LatticeFormatError):
            parse_lattice_document(doc)

    def test_unknown_site_reports_line(self):
        doc = "LATTICE v1 open\nSITES\n0\n1\nLINKS\n0 7\nPLAQUETTES\n"
        with pytest.raises(LatticeFormatError) as err:
            parse_lattice_document(doc)
        assert err.value.line == 6

    def test_bad_header(self):
        with pytest.raises(LatticeFormatError):
            parse_lattice_document("LATTICE v2 closed\nSITES\nLINKS\nPLAQUETTES\n")

    def test_bad_euler_count(self):
        doc = (
            "LATTICE v1 closed\n"
            "SITES\n0\n1\n"
            "LINKS\n0 1\n"
            "PLAQUETTES\n"
        )
        with pytest.raises(LatticeFormatError):
            parse_lattice_document(doc)

    def test_odd_overlap_names_pair(self):
        doc = (
            "LATTICE v1 open\n"
            "SITES\n0\n1\n2\n"
            "LINKS\n0 1\n1 2\n"
            "PLAQUETTES\n0\n"
        )
        with pytest.raises(LatticeFormatError, match="star 0 and plaquette 0 share"):
            parse_lattice_document(doc)

    def test_comments_and_blank_lines(self):
        doc = lattice_to_document(build_torus(2))
        doc = "# header comment\n\n" + doc.replace("LINKS", "# links next\nLINKS")
        assert parse_lattice_document(doc).n_links == 8


# Random text; random lines of document tokens; and well-formed sections of
# random integer lines, which reach the overlap and Euler checks.
DOCUMENT_TOKENS = st.sampled_from(
    [
        "LATTICE", "v1", "v2", "closed", "open", "SITES", "LINKS", "PLAQUETTES",
        "#", "-1", "+2", "1.5", "1_0", "0x3", "x", "", "99999999999999999999",
    ]
)


def document_lines(line, max_size=10):
    return st.lists(line.map(lambda toks: " ".join(map(str, toks))), max_size=max_size)


def sectioned_document(n):
    link = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    return st.tuples(
        st.sampled_from(["LATTICE v1 closed", "LATTICE v1 open"]),
        st.just([str(s) for s in range(n)]),
        document_lines(link.map(lambda t: (t[0], (t[0] + t[1]) % n)), 14),
        document_lines(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)),
    ).map(
        lambda t: "\n".join(
            [t[0], "SITES", *t[1], "LINKS", *t[2], "PLAQUETTES", *t[3]]
        )
    )


DOCUMENTS = st.one_of(
    st.text(),
    document_lines(
        st.lists(st.one_of(DOCUMENT_TOKENS, st.integers(-1, 12)), max_size=4), 24
    ).map("\n".join),
    st.integers(2, 8).flatmap(sectioned_document),
)


class TestDocumentProperty:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(text=DOCUMENTS)
    def test_any_text_gives_a_lattice_or_a_format_error(self, text):
        try:
            lat = parse_lattice_document(text)
        except LatticeFormatError:
            return
        assert isinstance(lat, Lattice)


# ---------------------------------------------------------------------------
# validate_lattice: incidence counting against the pairwise-AND definition

def incidence(lat: Lattice, **changes) -> dict:
    """The stored fields of ``lat`` with ``changes`` applied: the raw
    incidence that `Lattice` validates when it is built."""
    fields = {name: getattr(lat, name) for name in Lattice._fields}
    return {**fields, **changes}


def pairwise_and_outcome(fields: dict):
    """The definition, on the raw incidence: each link on at most two
    plaquettes, every star mask ANDed with every plaquette mask, then on a
    closed surface each link on exactly two plaquettes and the Euler count."""
    link_sites, plaqs = fields["link_sites"], fields["plaquette_links"]
    on: list[list[int]] = [[] for _ in link_sites]
    for p, links in enumerate(plaqs):
        for l in dict.fromkeys(links):
            on[l].append(p)
            if len(on[l]) == 3:
                return f"link {l} lies on plaquettes {on[l][0]}, {on[l][1]} and {p}"
    stars = [
        sum(1 << l for l, ends in enumerate(link_sites) if s in ends)
        for s in range(fields["n_sites"])
    ]
    plaq_masks = [sum(1 << l for l in set(links)) for links in plaqs]
    for s, sm in enumerate(stars):
        for p, pm in enumerate(plaq_masks):
            if (sm & pm).bit_count() % 2:
                return f"star {s} and plaquette {p} share an odd number of links"
    genus = fields["genus"]
    if genus is not None:
        for l, faces in enumerate(on):
            if len(faces) < 2:
                on_faces = ("no plaquette", "one plaquette")[len(faces)]
                return f"link {l} lies on {on_faces}; a closed surface needs two"
        chi = fields["n_sites"] - len(link_sites) + len(plaqs)
        if chi != 2 * (1 - genus):
            return f"Euler count {chi} inconsistent with genus {genus}"
    return None


def validate_outcome(fields: dict):
    """The outcome of building a lattice from the raw incidence."""
    try:
        Lattice(**fields)
    except LatticeFormatError as exc:
        return str(exc)
    return None


BASE_LATTICES = {
    **{f"torus{k}": lambda k=k: build_torus(k) for k in range(2, 7)},
    "cube": lambda: parse_lattice_document(cube_document()),
    "patch": lambda: parse_lattice_document(planar_patch_document()),
}


def corrupted_copies(lat: Lattice, rng: random.Random):
    """One link dropped from a plaquette, or one plaquette link swapped,
    as raw incidence."""
    plaqs = lat.plaquette_links
    for _ in range(6):
        p = rng.randrange(len(plaqs))
        links = list(plaqs[p])
        if rng.random() < 0.5 and len(links) > 1:
            links.pop(rng.randrange(len(links)))
        else:
            spare = [l for l in range(lat.n_links) if l not in links]
            links[rng.randrange(len(links))] = rng.choice(spare)
        new = plaqs[:p] + (tuple(sorted(links)),) + plaqs[p + 1 :]
        yield incidence(lat, plaquette_links=new)


class TestValidateLattice:
    @pytest.mark.parametrize("name", BASE_LATTICES)
    def test_accepts_like_pairwise_and(self, name):
        fields = incidence(BASE_LATTICES[name]())
        assert pairwise_and_outcome(fields) is None
        assert validate_outcome(fields) is None

    @pytest.mark.parametrize("seed,name", enumerate(BASE_LATTICES))
    def test_corrupted_copies_match_pairwise_and(self, seed, name):
        lat = BASE_LATTICES[name]()
        rejected = 0
        for bad in corrupted_copies(lat, random.Random(seed)):
            want = pairwise_and_outcome(bad)
            assert validate_outcome(bad) == want
            rejected += want is not None
        assert rejected > 0

    def test_reports_smallest_odd_pair(self):
        # On the k=4 torus, drop h(1,1) from plaquette (1,0) and v(1,1) from
        # plaquette (0,1).  Star (1,1) = 5 is the first odd star, and it is
        # odd with both plaquettes, 1 and 4.
        lat = build_torus(4)
        plaqs = list(lat.plaquette_links)
        plaqs[1] = tuple(l for l in plaqs[1] if l != torus_h(4, 1, 1))
        plaqs[4] = tuple(l for l in plaqs[4] if l != torus_v(4, 1, 1))
        bad = incidence(lat, plaquette_links=tuple(plaqs))
        want = "star 5 and plaquette 1 share an odd number of links"
        assert pairwise_and_outcome(bad) == want
        assert validate_outcome(bad) == want

    @pytest.mark.parametrize("field", ["plaquette_links"])
    def test_repeated_link_counts_once(self, field):
        # a mask holds a repeated link once; so must the incidence count
        lat = build_torus(3)
        rows = list(getattr(lat, field))
        rows[0] = rows[0] + rows[0][:1]
        doubled = lat._replace(**{field: tuple(rows)})
        assert pairwise_and_outcome(incidence(doubled)) is None
        assert doubled.link_faces == lat.link_faces

    def test_out_of_range_link_rejected(self):
        lat = build_torus(2)
        *plaqs, last = lat.plaquette_links
        with pytest.raises(
            LatticeFormatError, match="^plaquette 3 lists link 8, outside 0..7$"
        ):
            lat._replace(plaquette_links=(*plaqs, last + (8,)))

    @pytest.mark.parametrize(
        "ends,message",
        [
            ((-1, 1), "link 4 joins sites -1 and 1, outside 0..8"),
            ((0, 9), "link 4 joins sites 0 and 9, outside 0..8"),
            ((2, 2), "link 4 is a self-loop at site 2"),
        ],
    )
    def test_bad_link_ends_rejected(self, ends, message):
        lat = build_torus(3)
        ends_list = list(lat.link_sites)
        ends_list[4] = ends
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lat._replace(link_sites=tuple(ends_list))

    def test_euler_check_unchanged(self):
        fields = incidence(build_torus(3), genus=2)
        assert validate_outcome(fields) == pairwise_and_outcome(fields)
        assert "Euler count 0" in validate_outcome(fields)

    def test_link_on_one_face(self):
        # Two bigons on four parallel links: each link lies on one face.
        # An open patch allows that, with the outer vertex as each link's
        # second face; a closed surface (Euler count 0, genus 1) does not.
        doc = (
            "LATTICE v1 open\nSITES\n0\n1\nLINKS\n0 1\n0 1\n0 1\n0 1\n"
            "PLAQUETTES\n0 1\n2 3\n"
        )
        open_patch = parse_lattice_document(doc)
        assert open_patch.link_faces == ((0, 2), (0, 2), (1, 2), (1, 2))
        message = "link 0 lies on one plaquette; a closed surface needs two"
        with pytest.raises(LatticeFormatError, match=f"^{message}$"):
            parse_lattice_document(doc.replace("open", "closed"))
        assert pairwise_and_outcome(incidence(open_patch, genus=1)) == message

    def test_faces_are_the_face_graph_edges(self):
        for name, build in BASE_LATTICES.items():
            lat = build()
            assert plaquette_group(lat).graph.edges is lat.link_faces
            for l, faces in enumerate(lat.link_faces):
                want = [p for p, links in enumerate(lat.plaquette_links) if l in links]
                want += [lat.n_plaquettes] * (2 - len(want))
                assert faces == tuple(want), name

    def test_does_not_build_masks(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("validate_lattice built an n-bit mask")

        monkeypatch.setattr(Lattice, "star_masks", forbidden)
        monkeypatch.setattr(Lattice, "plaquette_masks", forbidden)
        assert build_torus(6).n_links == 72
        parse_lattice_document(cube_document())
        odd = (
            "LATTICE v1 open\n"
            "SITES\n0\n1\n2\n"
            "LINKS\n0 1\n1 2\n"
            "PLAQUETTES\n0\n"
        )
        with pytest.raises(LatticeFormatError, match="star 0 and plaquette 0"):
            parse_lattice_document(odd)
