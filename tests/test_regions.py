"""Region layer: disk regions, boundary buckets and scan descriptors.

The region code takes a region as a site mask.  On the torus it shifts
that mask to each site's east and north neighbour: a link is in A when
either end is in the region and on the loop, the links the boundary
crosses, when exactly one is; a site's bucket, the count of its links
in A, is the sum of four shifted link masks.  Elsewhere a region's loop
is the XOR of its stars, and a bucket the popcount of a star within A.
A dual loop's sides are counted by the site graph's rank and one of
them is walked.  The reference functions below are the earlier
whole-lattice walks over ``link_sites`` and ``star_links``, and the
descriptor that scans built from a region's link mask alone; the tests
require identical results from both, draw for draw.
"""

import csv
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flipent import (
    boundary_bounds_check,
    boundary_stats,
    build_torus,
    disk_region,
    entropy_equal_superposition,
    geometric_entropy,
    parse_lattice_document,
    random_rectangle_region,
    random_simple_region,
    region_from_sites,
    star_group,
)
from flipent.cli import main, parse_partition_spec
from flipent.gf2 import mask_from_indices
from flipent.lattice import BoundaryStats, Lattice, Partition

GOLDEN = Path(__file__).resolve().parent / "golden"

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)


# ---------------------------------------------------------------------------
# reference implementations: walks over link_sites and star_links


def reference_boundary_stats(lat, p):
    sigma_a = sigma_b = 0
    buckets = [0, 0, 0]
    for links in lat.star_links:
        deg = len(links)
        inside = sum(1 for l in links if (p.a_mask >> l) & 1)
        if inside == deg:
            sigma_a += 1
        elif inside == 0:
            sigma_b += 1
        elif inside <= 3:
            buckets[inside - 1] += 1
        else:
            raise ValueError(
                f"boundary site with {inside} links in A is outside the "
                "n1/n2/n3 classification"
            )
    n1, n2, n3 = buckets
    return BoundaryStats(sigma_a, sigma_b, n1, n2, n3)


def reference_loop(lat, sites):
    """The links with exactly one end among ``sites``."""
    return sum(
        1 << l
        for l, (a, b) in enumerate(lat.link_sites)
        if (a in sites) != (b in sites)
    )


def reference_region_from_sites(lat, sites):
    links = set()
    for s in sites:
        links.update(lat.star_links[s])
    part = Partition.from_links(links, lat.n_links)
    return part, reference_boundary_stats(lat, part), reference_loop(lat, set(sites))


def reference_site_neighbors(lat):
    adj = [[] for _ in range(lat.n_sites)]
    for l, (a, b) in enumerate(lat.link_sites):
        adj[a].append((b, l))
        adj[b].append((a, l))
    return adj


def reference_components_avoiding(lat, crossed):
    adj = reference_site_neighbors(lat)
    seen = [False] * lat.n_sites
    comps = []
    for start in range(lat.n_sites):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v, l in adj[u]:
                if not seen[v] and not ((crossed >> l) & 1):
                    seen[v] = True
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def reference_dual_loop_region(lat, crossed):
    """`disk_region(dual_loop=)` by walks: each plaquette meets the loop 0
    or 2 times, its links form one component of the face graph, and they
    split the sites into two components, of which the smaller is the
    interior and is bounded by exactly those links."""
    ids = [l for l in range(lat.n_links) if crossed >> l & 1]
    hits = [0] * lat.n_plaquettes
    for l in ids:
        for f in lat.link_faces[l]:
            if f < lat.n_plaquettes:
                hits[f] += 1
    for f, d in enumerate(hits):
        if d not in (0, 2):
            raise ValueError(f"dual edges meet plaquette {f} {d} times; not a simple cycle")
    faces = {f for l in ids for f in lat.link_faces[l]}
    face_sets = {f: {f} for f in faces}
    for l in ids:
        a, b = (face_sets[f] for f in lat.link_faces[l])
        if a is not b:
            a |= b
            for f in b:
                face_sets[f] = a
    parts = len({id(c) for c in face_sets.values()})
    if parts != 1:
        raise ValueError(f"dual edges form {parts} components; a disk's loop is one cycle")
    comps = reference_components_avoiding(lat, crossed)
    if len(comps) != 2:
        raise ValueError(
            f"loop splits the sites into {len(comps)} components; a simple "
            "contractible loop gives exactly 2"
        )
    small, large = sorted(comps, key=len)
    if len(small) == len(large):
        raise ValueError("interior is ambiguous: both sides have equal area")
    region = reference_region_from_sites(lat, small)
    if region[2] != crossed:
        raise ValueError("loop does not bound the region it encloses")
    return region


def reference_simple_region(lat, rng, holes=None):
    """Blob growth, a crossed mask from a link scan, and a hole fill that
    absorbs every complement component but the outside one.  ``holes``,
    when given, gets the number of sites the fill absorbed."""
    k = lat.torus_k
    if k < 4:
        raise ValueError("need k >= 4 for a nontrivial blob")
    side = k - 2
    x0 = rng.randrange(k)
    y0 = rng.randrange(k)
    window = {((y0 + b) % k) * k + (x0 + a) % k for a in range(side) for b in range(side)}
    target = rng.randint(1, max(1, (side * side) // 2))
    adj = reference_site_neighbors(lat)
    start = ((y0 + rng.randrange(side)) % k) * k + (x0 + rng.randrange(side)) % k
    blob = {start}
    frontier = [v for v, _ in adj[start] if v in window]
    while len(blob) < target and frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        if v in blob:
            continue
        blob.add(v)
        frontier.extend(u for u, _ in adj[v] if u in window and u not in blob)
    crossed = reference_loop(lat, blob)
    outside_probe = ((y0 - 1) % k) * k + (x0 - 1) % k
    grown = len(blob)
    for comp in reference_components_avoiding(lat, crossed):
        if comp == blob or outside_probe in comp:
            continue
        blob |= comp
    if holes is not None:
        holes.append(len(blob) - grown)
    return reference_region_from_sites(lat, blob)


def reference_rectangle_region(lat, rng):
    k = lat.torus_k
    w = rng.randint(1, k - 2)
    h = rng.randint(1, k - 2)
    x = rng.randrange(k)
    y = rng.randrange(k)
    sites = {((y + b) % k) * k + (x + a) % k for a in range(w) for b in range(h)}
    return reference_region_from_sites(lat, sites)


def reference_inside_sites(lat, part):
    """The sites whose whole star lies in A."""
    return {
        s
        for s, links in enumerate(lat.star_links)
        if all((part.a_mask >> l) & 1 for l in links)
    }


def reference_disk_descriptor(lat, part):
    """A disk row's descriptor rebuilt from its link mask alone: the
    links with one end inside A, the way scans named regions before a
    region carried its loop."""
    inside = reference_inside_sites(lat, part)
    crossed = sorted(
        l
        for l, (a, b) in enumerate(lat.link_sites)
        if (a in inside) != (b in inside)
    )
    return "loop:" + ",".join(map(str, crossed))


def assert_loop_parses_back(lat, region):
    """``loop:`` plus the region's loop names the region's side with fewer
    sites: the region itself, or the complement's region."""
    part, stats, loop = region
    spec = "loop:" + lat.link_list(loop)
    assert spec == reference_disk_descriptor(lat, part)
    inside = reference_inside_sites(lat, part)
    if 2 * len(inside) == lat.n_sites:
        with pytest.raises(ValueError, match="interior is ambiguous"):
            parse_partition_spec(lat, spec)
        return
    parsed = parse_partition_spec(lat, spec)
    if 2 * len(inside) > lat.n_sites:
        part, stats, _ = reference_region_from_sites(
            lat, set(range(lat.n_sites)) - inside
        )
    assert (parsed.partition, parsed.stats) == (part, stats)


SAMPLERS = {
    "rects": (random_rectangle_region, reference_rectangle_region),
    "disks": (random_simple_region, reference_simple_region),
}
DRAWS = {"rects": 25, "disks": 200}


class WholeWindow(random.Random):
    """Draws blob sizes up to twice the sampler's bound of half the
    window, so that blobs as large as the whole window occur.  Such a
    blob empties its frontier, and a sampler that went on drawing from
    the empty frontier would ask for 0 bits forever: that request
    raises instead."""

    def randint(self, a, b):
        return super().randint(a, 2 * b + 1)

    def getrandbits(self, k):
        if k == 0:
            raise AssertionError("a draw from an empty frontier")
        return super().getrandbits(k)


class CornerWindow(random.Random):
    """Answers a draw's first two `randrange` calls, the window's corner
    x0 and y0, from ``corner``, which the caller sets before each draw."""

    corner = ()

    def randrange(self, *args):
        if self.corner:
            x, *self.corner = self.corner
            return x
        return super().randrange(*args)


class WholeCornerWindow(CornerWindow, WholeWindow):
    pass


def star_of_five_document():
    # site 0 has five links (4 of them in A is outside n1/n2/n3), and
    # site 6 has none (it counts as inside A)
    lines = ["LATTICE v1 open", "SITES"] + [str(s) for s in range(7)]
    lines += ["LINKS"] + [f"0 {s}" for s in range(1, 6)] + ["PLAQUETTES"]
    return "\n".join(lines) + "\n"


def unfilled_ladder_document():
    # a 2 x 3 ladder of sites with no plaquettes: every link's dual edge
    # is a loop at the outer face, so a loop may cross a link inside a side
    lines = ["LATTICE v1 open", "SITES"] + [str(s) for s in range(6)]
    lines += ["LINKS", "0 1", "1 2", "3 4", "4 5", "0 3", "1 4", "2 5"]
    return "\n".join(lines + ["PLAQUETTES"]) + "\n"


# ---------------------------------------------------------------------------


class TestAgainstReferenceWalks:
    @pytest.mark.parametrize("mode", SAMPLERS)
    @pytest.mark.parametrize("k", [*range(3, 17), 32, 64])
    def test_samplers_match_draw_for_draw(self, mode, k):
        lat = build_torus(k)
        sample, reference = SAMPLERS[mode]
        if mode == "disks" and k < 4:
            for fn in (sample, reference):
                with pytest.raises(ValueError, match="k >= 4"):
                    fn(lat, random.Random(k))
            return
        # Blobs as large as the window wrap the torus seam and leave holes
        # whose floods meet sites an earlier flood marked outside.
        rngs = [random.Random] if mode == "rects" else [random.Random, WholeWindow]
        for make_rng in rngs:
            rng, ref_rng = make_rng(100 + k), make_rng(100 + k)
            for _ in range(DRAWS[mode] if k <= 16 else 50):
                region = sample(lat, rng)
                # the loop is the links with exactly one end in the region
                assert region == reference(lat, ref_rng)
                assert rng.getstate() == ref_rng.getstate()
                assert_loop_parses_back(lat, region)

    @pytest.mark.parametrize("make_rng", [CornerWindow, WholeCornerWindow])
    @pytest.mark.parametrize("k", [4, 5, 8, 13, 32])
    def test_disks_on_the_seam_match_draw_for_draw(self, make_rng, k):
        # windows with x0 and y0 in {k - 2, k - 1} wrap the torus seam both
        # ways, and so do their blobs and the fill's flood
        lat = build_torus(k)
        holes = []
        for x0 in (k - 2, k - 1):
            for y0 in (k - 2, k - 1):
                rng, ref_rng = make_rng(1000 * x0 + y0), make_rng(1000 * x0 + y0)
                for _ in range(20):
                    rng.corner = ref_rng.corner = (x0, y0)
                    region = random_simple_region(lat, rng)
                    assert region == reference_simple_region(lat, ref_rng, holes)
                    assert rng.getstate() == ref_rng.getstate()
                    assert_loop_parses_back(lat, region)
        # some region absorbed a hole, so the fill's hole path ran (a 2 x 2
        # window holds none, and a 3 x 3 one only around an 8-site ring)
        assert any(holes) or k < 8

    def test_k128_disks_match_draw_for_draw(self):
        lat = build_torus(128)
        rng, ref_rng = WholeCornerWindow(128), WholeCornerWindow(128)
        for corner in [(), (126, 127), (127, 126)]:
            rng.corner = ref_rng.corner = corner
            assert random_simple_region(lat, rng) == reference_simple_region(lat, ref_rng)
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("k", [*range(2, 9), 16])
    def test_boundary_stats_on_random_partitions(self, k):
        lat = build_torus(k)
        rng = random.Random(k)
        for _ in range(200):
            p = Partition(lat.n_links, rng.getrandbits(lat.n_links))
            assert boundary_stats(lat, p) == reference_boundary_stats(lat, p)

    def test_boundary_stats_on_a_document(self):
        lat = parse_lattice_document(star_of_five_document())
        for mask in range(1 << lat.n_links):
            p = Partition(lat.n_links, mask)
            if mask.bit_count() == 4:
                for fn in (boundary_stats, reference_boundary_stats):
                    with pytest.raises(ValueError, match="site with 4 links in A"):
                        fn(lat, p)
            else:
                assert boundary_stats(lat, p) == reference_boundary_stats(lat, p)
        assert boundary_stats(lat, Partition(lat.n_links, 0)).sigma_a == 1

    def test_star_masks_are_built_once(self):
        lat = build_torus(4)
        assert lat.star_masks() is lat.star_masks()


class TestLoopDescriptors:
    @pytest.mark.parametrize("mode", SAMPLERS)
    @pytest.mark.parametrize("k", [5, 8, 13])
    def test_printed_loops_parse_back(self, capsys, mode, k):
        seed, count = 11, 20
        argv = ["scan", "--lattice", f"torus:k={k}", "--mode", mode,
                "--count", str(count), "--seed", str(seed)]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == count

        lat = build_torus(k)
        rng = random.Random(seed)
        sampled = {}
        for _ in range(count):
            part, stats, loop = SAMPLERS[mode][0](lat, rng)
            assert "loop:" + lat.link_list(loop) == reference_disk_descriptor(lat, part)
            sampled["loop:" + lat.link_list(loop)] = (part, stats)
        assert {r["partition"] for r in rows} == set(sampled)
        smaller_side = 0
        for row in rows:
            part, stats = sampled[row["partition"]]
            printed = (row["L"], row["n1"], row["n2"], row["n3"])
            assert printed == tuple(
                str(v) for v in (stats.boundary_length, stats.n1, stats.n2, stats.n3)
            )
            parsed = parse_partition_spec(lat, row["partition"])
            # A loop does not say which side is A: `disk_region` takes the
            # side with fewer sites, so only such regions come back as sampled.
            if 2 * stats.sigma_a > lat.n_sites:
                assert parsed.stats.sigma_a == lat.n_sites - stats.sigma_a
                ids = [int(l) for l in row["partition"][5:].split(",")]
                complement = disk_region(lat, dual_loop=ids)
                assert complement[:2] == (parsed.partition, parsed.stats)
                assert "loop:" + lat.link_list(complement.loop) == row["partition"]
                descriptor = reference_disk_descriptor(lat, parsed.partition)
                assert descriptor == row["partition"]
            else:
                assert (parsed.partition, parsed.stats) == (part, stats)
                smaller_side += 1
        assert smaller_side >= count // 2

    def test_half_lattice_loop_is_refused(self):
        # an 8 x 9 rect on the k=12 torus is one a rects scan can print
        lat = build_torus(12)
        part, _, loop = disk_region(lat, rect=(0, 0, 8, 9))
        spec = "loop:" + lat.link_list(loop)
        assert spec == reference_disk_descriptor(lat, part)
        with pytest.raises(ValueError, match="interior is ambiguous"):
            parse_partition_spec(lat, spec)


LATTICES = {
    **{f"torus{k}": build_torus(k) for k in range(2, 9)},
    "cube": parse_lattice_document((GOLDEN / "cube.lat").read_text()),
    "patch": parse_lattice_document((GOLDEN / "patch.lat").read_text()),
    "star_of_five": parse_lattice_document(star_of_five_document()),
}
DUAL_LOOP_LATTICES = {
    **LATTICES,
    "torus16": build_torus(16),  # ranks the site graph by grid floods
    "unfilled_ladder": parse_lattice_document(unfilled_ladder_document()),
}


@st.composite
def site_sets(draw, lat):
    """A set of sites: any set, or a connected blob grown one drawn
    neighbour at a time to a drawn size, often half the sites."""
    n = lat.n_sites
    if draw(st.booleans()):
        return draw(st.sets(st.integers(0, n - 1)))
    nbrs = reference_site_neighbors(lat)
    size = draw(st.just(n // 2) | st.integers(1, min(n, 16)))
    blob = {draw(st.integers(0, n - 1))}
    while len(blob) < size:
        frontier = sorted({v for u in blob for v, _ in nbrs[u]} - blob)
        if not frontier:
            break
        blob.add(frontier[draw(st.integers(0, len(frontier) - 1))])
    return blob


class TestDualLoopDisks:
    """`disk_region(dual_loop=)` counts the sites' components by the site
    graph's rank and walks one side of the loop; the reference walks every
    component.  The loops are the crossed links of a drawn site set,
    sometimes XORed with a noncontractible dual loop on a torus and with
    one link elsewhere, so that each refusal occurs: a plaquette met 4
    times, several dual components, 1 or 3 or more site components,
    sides of equal area, and a crossed link inside a side."""

    @pytest.mark.parametrize("name", DUAL_LOOP_LATTICES)
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_matches_the_reference_walks(self, name, data):
        lat = DUAL_LOOP_LATTICES[name]
        crossed = reference_loop(lat, data.draw(site_sets(lat)))
        if not data.draw(st.integers(0, 3)):
            if lat.torus_k is None:
                crossed ^= 1 << data.draw(st.integers(0, lat.n_links - 1))
            else:
                _, _, ladders, rungs = lat._torus_loops
                crossed ^= data.draw(st.sampled_from(ladders + rungs))
        ids = [l for l in range(lat.n_links) if crossed >> l & 1]
        try:
            expected = reference_dual_loop_region(lat, crossed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                disk_region(lat, dual_loop=ids)
            return
        assert disk_region(lat, dual_loop=ids) == expected


class TestCutSpace:
    @pytest.mark.parametrize("name", LATTICES)
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_star_xor_is_the_crossed_links(self, name, data):
        lat = LATTICES[name]
        sites = data.draw(st.sets(st.integers(0, lat.n_sites - 1)))
        xor = 0
        for s in sites:
            xor ^= lat.star_masks()[s]
        crossed = sum(
            1 << l
            for l, (a, b) in enumerate(lat.link_sites)
            if (a in sites) != (b in sites)
        )
        assert xor == crossed


class TestRegionStats:
    """Off the torus `region_from_sites` XORs the region's stars into its
    loop, and on it the loop and the stats come from shifts of the site
    mask; every site must land where `boundary_stats` and the reference
    walks put it."""

    @pytest.mark.parametrize("name", LATTICES)
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_region_stats_match_the_whole_lattice(self, name, data):
        lat = LATTICES[name]
        sites = data.draw(
            st.sets(st.integers(0, lat.n_sites - 1), min_size=1, max_size=lat.n_sites - 1)
        )
        a_mask = 0
        for s in sites:
            a_mask |= lat.star_masks()[s]
        part = Partition(lat.n_links, a_mask)
        mask = mask_from_indices(sites, lat.n_sites)
        try:
            expected = boundary_stats(lat, part)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                region_from_sites(lat, mask)
            return
        region = region_from_sites(lat, mask)
        assert region == (part, expected, reference_loop(lat, sites))

    @pytest.mark.parametrize("k", range(2, 9))
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_torus_site_masks_match_the_reference(self, k, data):
        # a block with its corner in the last two columns and rows wraps
        # the seam, alone or mixed with a random mask
        lat = LATTICES[f"torus{k}"]
        full = (1 << lat.n_sites) - 1
        x, y = data.draw(st.integers(k - 2, k - 1)), data.draw(st.integers(k - 2, k - 1))
        w, h = data.draw(st.integers(1, k)), data.draw(st.integers(1, k))
        block = mask_from_indices(
            {((y + b) % k) * k + (x + a) % k for a in range(w) for b in range(h)},
            lat.n_sites,
        )
        noise = data.draw(st.integers(0, full))
        for mask in (noise, block, block ^ noise, block | noise):
            if mask in (0, full):
                with pytest.raises(ValueError, match="some but not all sites"):
                    region_from_sites(lat, mask)
                continue
            sites = [s for s in range(lat.n_sites) if mask >> s & 1]
            assert region_from_sites(lat, mask) == reference_region_from_sites(lat, sites)

    def test_torus_regions_read_no_star_mask(self, monkeypatch):
        # on the torus the stats, A and the loop come from site-mask shifts
        def refused(self):
            raise AssertionError("star masks read")

        monkeypatch.setattr(Lattice, "star_masks", refused)
        lat = build_torus(8)
        rng, ref_rng = random.Random(8), random.Random(8)
        for _ in range(20):
            p = Partition(lat.n_links, rng.getrandbits(lat.n_links))
            assert boundary_stats(lat, p) == reference_boundary_stats(lat, p)
            ref_rng.getrandbits(lat.n_links)
            region = random_simple_region(lat, rng)
            assert region == reference_simple_region(lat, ref_rng)
            mask = mask_from_indices(reference_inside_sites(lat, region.partition), lat.n_sites)
            assert region_from_sites(lat, mask) == region
        assert disk_region(lat, rect=(6, 7, 3, 4)).stats.boundary_length == 14

    def test_isolated_site_stays_in_sigma_a(self):
        # site 6 of the star of five has no links
        lat = LATTICES["star_of_five"]
        stats = region_from_sites(lat, 0b10).stats
        assert (stats.sigma_a, stats.sigma_b, stats.n1) == (2, 4, 1)


class TestBoundaryLawAtScale:
    def test_k64_disks_obey_the_paper(self):
        lat = build_torus(64)
        stars = star_group(lat)
        rng = random.Random(64)
        for _ in range(20):
            part, stats, _ = random_simple_region(lat, rng)
            s = entropy_equal_superposition(stars, part).s_bits
            assert s == stats.sigma_ab - 1 == geometric_entropy(stats)
            assert boundary_bounds_check(stats, s)
