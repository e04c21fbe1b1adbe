"""Lattices, bipartitions and boundary bookkeeping.

Spins live on links.  A lattice is described by its star incidence (links
meeting each site) and plaquette incidence (links bounding each face),
either built directly as a k x k torus or ingested from a small text
document format (see `parse_lattice_document`).

Torus link indexing convention (0-based, periodic both ways, sites (i, j)
with i the column and j the row):

    horizontal link h(i, j) = j*k + i        from (i, j) to (i+1, j)
    vertical   link v(i, j) = k*k + j*k + i  from (i, j) to (i, j+1)

Link 0 is the least significant bit everywhere, which keeps bitmask
arithmetic consistent with the statevector oracle's basis ordering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, Sequence

from .errors import LatticeFormatError, ResourceLimitError
from .gf2 import Gf2Matrix, Graph, _bit_flags, _incidence_edges, mask_from_indices

DOCUMENT_HEADER = "LATTICE v1"

#: Byte cap for `build_torus`.  The largest live structures of a k x k
#: torus are the star and plaquette masks: k**2 rows of 2k**2 bits each
#: per group, about k**4/4 bytes for the two.  `lattice-info` ranks both
#: groups as graphs and builds no echelon copy of either.  The cap, about
#: k**4 bytes, admits k <= 181 in 1 GiB.
MAX_TORUS_BYTES = 1 << 30


@dataclass(frozen=True)
class Lattice:
    """Immutable incidence description of a lattice with spins on links."""

    n_sites: int
    n_links: int
    n_plaquettes: int
    star_links: tuple[tuple[int, ...], ...]
    plaquette_links: tuple[tuple[int, ...], ...]
    link_sites: tuple[tuple[int, int], ...]
    genus: int | None = None
    torus_k: int | None = None

    @property
    def closed(self) -> bool:
        return self.genus is not None

    def star_masks(self) -> tuple[int, ...]:
        return self._star_masks

    def plaquette_masks(self) -> tuple[int, ...]:
        return self._plaquette_masks

    def link_list(self, mask: int) -> str:
        """The links set in ``mask`` as decimal ids joined by commas, lowest
        first: the body of a ``links:`` or ``loop:`` descriptor."""
        return ",".join(compress(self._link_names, _bit_flags(mask)))

    @cached_property
    def _link_names(self) -> tuple[str, ...]:
        return tuple(map(str, range(self.n_links)))

    @cached_property
    def _star_masks(self) -> tuple[int, ...]:
        return tuple(mask_from_indices(s, self.n_links) for s in self.star_links)

    @cached_property
    def _plaquette_masks(self) -> tuple[int, ...]:
        return tuple(mask_from_indices(p, self.n_links) for p in self.plaquette_links)

    # one matrix per group, so each rank is computed once per lattice
    @cached_property
    def _star_group(self) -> Gf2Matrix:
        return Gf2Matrix(self.star_masks(), self.n_links, graph=self._site_graph)

    @cached_property
    def _plaquette_group(self) -> Gf2Matrix:
        return Gf2Matrix(self.plaquette_masks(), self.n_links, graph=self._face_graph)

    @cached_property
    def _site_graph(self) -> Graph:
        # the star group's graph, link l joining the sites link_sites[l]; on
        # the torus its loops are the column loops {v(i, j) : j} and the row
        # loops {h(i, j) : i}
        return Graph(
            self.n_sites,
            self.link_sites,
            self._loop_classes(torus_v, torus_h),
            lambda: self._dual(self._face_graph),
        )

    @cached_property
    def _face_graph(self) -> Graph | None:
        # the plaquette group's graph, with an outer vertex for links on fewer
        # than two faces, or None when a link lies on three; on the torus its
        # loops are the ladders {h(i, j) : j} and {v(i, j) : i}
        edges = _incidence_edges(self.plaquette_links, self.n_links)
        if edges is None:
            return None
        return Graph(
            self.n_plaquettes + 1,
            edges,
            self._loop_classes(torus_h, torus_v),
            lambda: self._dual(self._site_graph),
        )

    def _dual(self, other: Graph) -> Graph | None:
        # Each graph's cycle space is spanned by the other's cuts and one
        # loop of each of its own classes: on the torus always, off it only
        # if the cuts alone span it (the faces of a sphere or of a planar
        # patch), since no loops are known there.  No face graph, no dual.
        face = self._face_graph
        full = (1 << self.n_links) - 1
        if face is None or self.torus_k is None and (
            self._site_graph.rank(full) + face.rank(full) != self.n_links
        ):
            return None
        return other

    def _loop_classes(self, down, across) -> tuple[tuple[int, ...], ...]:
        # On the torus, the loops {down(i, j) : j} for each i and the loops
        # {across(i, j) : i} for each j.  Both link functions are an offset
        # plus j*k + i, so the loops of a class are shifts of its first one.
        k = self.torus_k
        if k is None:
            return ()
        down0 = mask_from_indices([down(k, 0, j) for j in range(k)], self.n_links)
        across0 = mask_from_indices([across(k, i, 0) for i in range(k)], self.n_links)
        return (
            tuple(down0 << i for i in range(k)),
            tuple(across0 << j * k for j in range(k)),
        )

    @cached_property
    def _neighbors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # per site, (neighbor site, connecting link) in link order; blob
        # growth draws from this order, so it must not change
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_sites)]
        for l, (a, b) in enumerate(self.link_sites):
            adj[a].append((b, l))
            adj[b].append((a, l))
        return tuple(map(tuple, adj))

    @cached_property
    def _neighbor_sites(self) -> tuple[tuple[int, ...], ...]:
        # `_neighbors` without the links, in the same order
        return tuple(tuple(v for v, _ in nbrs) for nbrs in self._neighbors)

    @cached_property
    def _empty_stars(self) -> int:
        # sites with no link, which every partition counts in sigma_a
        return self._star_masks.count(0)


@dataclass(frozen=True)
class Partition:
    """A bipartition (A, B) of the links; ``a_mask`` marks side A."""

    n_links: int
    a_mask: int

    def __post_init__(self) -> None:
        if self.a_mask < 0 or self.a_mask >> self.n_links:
            raise ValueError("partition mask wider than the lattice")

    @classmethod
    def from_links(cls, links: Iterable[int], n_links: int) -> "Partition":
        return cls(n_links, mask_from_indices(links, n_links))

    @property
    def b_mask(self) -> int:
        return ((1 << self.n_links) - 1) & ~self.a_mask

    @property
    def size_a(self) -> int:
        return self.a_mask.bit_count()

    def a_links(self) -> tuple[int, ...]:
        return tuple(compress(range(self.n_links), _bit_flags(self.a_mask)))

    def complement(self) -> "Partition":
        return Partition(self.n_links, self.b_mask)

    def is_proper(self) -> bool:
        return 0 < self.a_mask < (1 << self.n_links) - 1


@dataclass(frozen=True)
class BoundaryStats:
    """Site classification of a bipartition.

    sigma_a / sigma_b count sites whose stars act only on A / only on B;
    n1, n2, n3 bucket the straddling sites by how many of their incident
    links lie in A.  The boundary length is the incidence-weighted count
    n1 + 2*n2 + 3*n3; for a disk region cut out by a dual loop it equals
    the loop length, i.e. the number of crossed links.
    """

    sigma_a: int
    sigma_b: int
    sigma_ab: int
    n1: int
    n2: int
    n3: int

    @property
    def boundary_length(self) -> int:
        return self.n1 + 2 * self.n2 + 3 * self.n3

    def check(self, lat: Lattice | None = None) -> None:
        if self.sigma_ab != self.n1 + self.n2 + self.n3:
            raise ValueError("straddling-site buckets do not sum to sigma_ab")
        if lat is not None and self.sigma_a + self.sigma_b + self.sigma_ab != lat.n_sites:
            raise ValueError("site classification does not cover the lattice")


# ---------------------------------------------------------------------------
# torus construction

def torus_h(k: int, i: int, j: int) -> int:
    """Index of the horizontal link leaving site (i, j) eastward."""
    return (j % k) * k + (i % k)


def torus_v(k: int, i: int, j: int) -> int:
    """Index of the vertical link leaving site (i, j) northward."""
    return k * k + (j % k) * k + (i % k)


def build_torus(k: int) -> Lattice:
    """Build the k x k square-lattice torus (k**2 sites, 2*k**2 links)."""
    if k < 2:
        raise ValueError(f"torus size must be at least 2, got {k}")
    if k**4 > MAX_TORUS_BYTES:
        raise ResourceLimitError(
            f"torus k={k} needs about {k**4} bytes, over the "
            f"{MAX_TORUS_BYTES}-byte cap"
        )
    n_links = 2 * k * k
    stars = []
    plaqs = []
    link_sites: list[tuple[int, int]] = [(0, 0)] * n_links
    for j in range(k):
        for i in range(k):
            site = j * k + i
            stars.append(
                (
                    torus_h(k, i, j),
                    torus_h(k, i - 1, j),
                    torus_v(k, i, j),
                    torus_v(k, i, j - 1),
                )
            )
            # plaquette (i, j): face with corners (i, j) .. (i+1, j+1)
            plaqs.append(
                (
                    torus_h(k, i, j),
                    torus_h(k, i, j + 1),
                    torus_v(k, i, j),
                    torus_v(k, i + 1, j),
                )
            )
            link_sites[torus_h(k, i, j)] = (site, j * k + (i + 1) % k)
            link_sites[torus_v(k, i, j)] = (site, ((j + 1) % k) * k + i)
    lat = Lattice(
        n_sites=k * k,
        n_links=n_links,
        n_plaquettes=k * k,
        star_links=tuple(tuple(sorted(s)) for s in stars),
        plaquette_links=tuple(tuple(sorted(p)) for p in plaqs),
        link_sites=tuple(link_sites),
        genus=1,
        torus_k=k,
    )
    validate_lattice(lat)
    return lat


def validate_lattice(lat: Lattice) -> None:
    """Check commutation (even star/plaquette overlap) and Euler count.

    Overlap parities are counted through link incidence: every (star,
    link) incidence toggles each plaquette on that link.  That costs
    O(sum over links of stars(l) * plaquettes(l)), linear in the link
    count on bounded-degree lattices.  The error names the smallest odd
    (star, plaquette) pair.
    """
    n = lat.n_links
    stars = [_link_set(links, n) for links in lat.star_links]
    link_plaquettes: list[list[int]] = [[] for _ in range(n)]
    for p, links in enumerate(lat.plaquette_links):
        for l in _link_set(links, n):
            link_plaquettes[l].append(p)
    for s, links in enumerate(stars):
        odd: set[int] = set()
        for l in links:
            odd.symmetric_difference_update(link_plaquettes[l])
        if odd:
            raise LatticeFormatError(
                f"star {s} and plaquette {min(odd)} share an odd number of links"
            )
    if lat.genus is not None:
        chi = lat.n_sites - lat.n_links + lat.n_plaquettes
        if chi != 2 * (1 - lat.genus):
            raise LatticeFormatError(
                f"Euler count {chi} inconsistent with genus {lat.genus}"
            )


def _link_set(links: Iterable[int], n: int) -> set[int]:
    # the distinct links of one star or plaquette, range-checked like
    # `mask_from_indices`
    for l in links:
        if not 0 <= l < n:
            raise ValueError(f"column index {l} out of range for width {n}")
    return set(links)


# ---------------------------------------------------------------------------
# document format

def parse_lattice_document(text: str) -> Lattice:
    """Parse the three-section lattice document format.

    Layout::

        LATTICE v1 closed|open
        SITES
        <site id, one per line, must be 0..n_sites-1 in order>
        LINKS
        <site-id site-id, one line per link>
        PLAQUETTES
        <link ids, one line per plaquette>

    Blank lines and ``#`` comments are ignored.  ``closed`` surfaces get
    their genus inferred from the Euler formula; ``open`` patches skip
    the Euler check and carry no genus.
    """
    lines = text.splitlines()
    entries = []  # (line_no, content)
    for idx, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            entries.append((idx, content))
    if not entries:
        raise LatticeFormatError("empty document")
    head_no, head = entries[0]
    parts = head.split()
    if parts[:2] != DOCUMENT_HEADER.split() or len(parts) != 3:
        raise LatticeFormatError(
            f"expected header '{DOCUMENT_HEADER} closed|open'", head_no
        )
    if parts[2] not in ("closed", "open"):
        raise LatticeFormatError(f"unknown surface kind {parts[2]!r}", head_no)
    is_closed = parts[2] == "closed"

    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for no, content in entries[1:]:
        if content in ("SITES", "LINKS", "PLAQUETTES"):
            if content in sections:
                raise LatticeFormatError(f"duplicate section {content}", no)
            current = content
            sections[content] = []
            continue
        if current is None:
            raise LatticeFormatError(f"data before any section: {content!r}", no)
        sections[current].append((no, content))
    for name in ("SITES", "LINKS", "PLAQUETTES"):
        if name not in sections:
            raise LatticeFormatError(f"missing section {name}")

    def parse_ints(no: int, content: str) -> list[int]:
        try:
            return [int(tok) for tok in content.split()]
        except ValueError:
            raise LatticeFormatError(f"expected integers, got {content!r}", no)

    site_ids = []
    for no, content in sections["SITES"]:
        vals = parse_ints(no, content)
        if len(vals) != 1:
            raise LatticeFormatError("one site id per line", no)
        site_ids.append((no, vals[0]))
    n_sites = len(site_ids)
    for pos, (no, sid) in enumerate(site_ids):
        if sid != pos:
            raise LatticeFormatError(
                f"site ids must be 0..{n_sites - 1} in order, got {sid}", no
            )

    links: list[tuple[int, int]] = []
    for no, content in sections["LINKS"]:
        vals = parse_ints(no, content)
        if len(vals) != 2:
            raise LatticeFormatError("a link needs exactly two site ids", no)
        a, b = vals
        for s in (a, b):
            if not 0 <= s < n_sites:
                raise LatticeFormatError(f"unknown site id {s}", no)
        if a == b:
            raise LatticeFormatError("self-loop links are not supported", no)
        links.append((a, b))
    n_links = len(links)

    plaqs: list[tuple[int, ...]] = []
    for no, content in sections["PLAQUETTES"]:
        vals = parse_ints(no, content)
        if not vals:
            raise LatticeFormatError("empty plaquette", no)
        if len(set(vals)) != len(vals):
            raise LatticeFormatError("repeated link in plaquette", no)
        for l in vals:
            if not 0 <= l < n_links:
                raise LatticeFormatError(f"unknown link id {l}", no)
        plaqs.append(tuple(sorted(vals)))

    star_links: list[list[int]] = [[] for _ in range(n_sites)]
    for l, (a, b) in enumerate(links):
        star_links[a].append(l)
        star_links[b].append(l)

    genus: int | None = None
    if is_closed:
        chi = n_sites - n_links + len(plaqs)
        if chi % 2 or chi > 2:
            raise LatticeFormatError(
                f"closed surface has impossible Euler count {chi}"
            )
        genus = (2 - chi) // 2

    lat = Lattice(
        n_sites=n_sites,
        n_links=n_links,
        n_plaquettes=len(plaqs),
        star_links=tuple(tuple(sorted(s)) for s in star_links),
        plaquette_links=tuple(plaqs),
        link_sites=tuple(links),
        genus=genus,
        torus_k=None,
    )
    validate_lattice(lat)
    return lat


def lattice_to_document(lat: Lattice) -> str:
    """Serialize a lattice back to document text (round-trips incidence)."""
    kind = "closed" if lat.closed else "open"
    out = [f"{DOCUMENT_HEADER} {kind}", "SITES"]
    out.extend(str(s) for s in range(lat.n_sites))
    out.append("LINKS")
    out.extend(f"{a} {b}" for a, b in lat.link_sites)
    out.append("PLAQUETTES")
    out.extend(" ".join(str(l) for l in p) for p in lat.plaquette_links)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# flip groups and ladder operators

def star_group(lat: Lattice) -> Gf2Matrix:
    """One generator per site: the x-flip on all links meeting it.

    Built once per lattice; every call returns the same matrix.
    """
    return lat._star_group


def plaquette_group(lat: Lattice) -> Gf2Matrix:
    """One generator per face: the support of its boundary links.

    Built once per lattice; every call returns the same matrix.
    """
    return lat._plaquette_group


def ladder_operators(lat: Lattice) -> tuple[int, int]:
    """The link masks of the two noncontractible x-loop flips of the torus.

    The first winds horizontally (dual loop along row 0, flipping the k
    vertical links of that row), the second vertically (dual loop along
    column 0, flipping the k horizontal links of that column).  Neither
    is a product of stars; any homotopic representative differs from
    these by a star-group element.
    """
    if lat.torus_k is None:
        raise ValueError("ladder operators are only defined for the torus builder")
    k = lat.torus_k
    w1 = mask_from_indices([torus_v(k, i, 0) for i in range(k)], lat.n_links)
    w2 = mask_from_indices([torus_h(k, 0, j) for j in range(k)], lat.n_links)
    return w1, w2


# ---------------------------------------------------------------------------
# named partitions

def named_partition(lat: Lattice, name: str, *ids: int) -> Partition:
    """Build one of the canonical torus partitions.

    chain    k vertical links of column 0 (a lattice loop winding
             vertically);
    ladder   k horizontal links of column 0 (the links crossed by a
             vertical dual loop);
    cross    union of chain and ladder (2k links);
    vertical all k**2 vertical links;
    single_spin / pair take explicit link ids (single_spin defaults to
    link 0).
    """
    if lat.torus_k is None:
        raise ValueError("named partitions are only defined for the torus builder")
    k = lat.torus_k
    n = lat.n_links
    if name == "single_spin":
        link = ids[0] if ids else 0
        return Partition.from_links([link], n)
    if name == "pair":
        if len(ids) != 2 or ids[0] == ids[1]:
            raise ValueError("pair needs two distinct link ids")
        return Partition.from_links(ids, n)
    if name == "chain":
        return Partition.from_links([torus_v(k, 0, j) for j in range(k)], n)
    if name == "ladder":
        return Partition.from_links([torus_h(k, 0, j) for j in range(k)], n)
    if name == "cross":
        links = [torus_v(k, 0, j) for j in range(k)]
        links += [torus_h(k, 0, j) for j in range(k)]
        return Partition.from_links(links, n)
    if name == "vertical":
        return Partition.from_links(range(k * k, 2 * k * k), n)
    raise ValueError(f"unknown partition name {name!r}")


# ---------------------------------------------------------------------------
# boundary statistics and disk regions

def boundary_stats(
    lat: Lattice, p: Partition, *, sites: Collection[int] | None = None
) -> BoundaryStats:
    """Classify every site by how many of its incident links lie in A.

    A site with no links counts in sigma_a.  ``sites``, when given, are
    distinct site ids that include every site with a link in A, such as
    a region and its neighbours: only their stars are tested, and every
    other site counts in sigma_b, or in sigma_a if it has no links.
    """
    stars = lat.star_masks()
    if sites is None:
        sigma_a = sigma_b = 0
    else:
        stars = [stars[s] for s in sites]
        sigma_a = lat._empty_stars - stars.count(0)
        sigma_b = lat.n_sites - len(stars) - sigma_a
    buckets = [0, 0, 0]
    a_mask = p.a_mask
    for star in stars:
        inside = star & a_mask
        if inside == star:
            sigma_a += 1
        elif not inside:
            sigma_b += 1
        else:
            count = inside.bit_count()
            if count > 3:
                raise ValueError(
                    f"boundary site with {count} links in A is outside the "
                    "n1/n2/n3 classification"
                )
            buckets[count - 1] += 1
    n1, n2, n3 = buckets
    return BoundaryStats(
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        sigma_ab=n1 + n2 + n3,
        n1=n1,
        n2=n2,
        n3=n3,
    )


def _components_avoiding(lat: Lattice, crossed: int) -> list[set[int]]:
    # connected components of sites, walking only uncrossed links
    adj = lat._neighbors
    cut = set(Partition(lat.n_links, crossed).a_links())
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
                if not seen[v] and l not in cut:
                    seen[v] = True
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def region_from_sites(lat: Lattice, sites: Iterable[int]) -> tuple[Partition, BoundaryStats]:
    """Partition whose A side is every link touching the given sites.

    Site ids must lie in ``0..n_sites-1``.  The stats test only the
    stars of the region and its neighbours, the sites A's links touch.
    """
    inside = set(sites)
    n = lat.n_sites
    for s in inside:
        if not 0 <= s < n:
            raise ValueError(f"site id {s} out of range for {n} sites")
    if not inside or len(inside) >= n:
        raise ValueError("region must enclose some but not all sites")
    stars = lat.star_masks()
    nbrs = lat._neighbor_sites
    a_mask = 0
    touched = set(inside)
    for s in inside:
        a_mask |= stars[s]
        touched.update(nbrs[s])
    part = Partition(lat.n_links, a_mask)
    return part, boundary_stats(lat, part, sites=touched)


def disk_region(
    lat: Lattice,
    rect: tuple[int, int, int, int] | None = None,
    dual_loop: Sequence[int] | None = None,
) -> tuple[Partition, BoundaryStats]:
    """Cut out a disk: all links inside or crossed by a dual loop.

    ``rect=(x, y, w, h)`` encloses the w x h block of sites with corner
    (x, y); the crossed links are the block's outgoing links, so the
    boundary length is 2*(w+h).  ``dual_loop`` lists the crossed link
    ids of an explicit dual-edge cycle; it must be a single simple cycle
    that separates the sites into two components (noncontractible loops
    do not), and the smaller component becomes the interior.
    """
    if (rect is None) == (dual_loop is None):
        raise ValueError("specify exactly one of rect or dual_loop")
    if rect is not None:
        if lat.torus_k is None:
            raise ValueError("rect regions are only defined for the torus builder")
        k = lat.torus_k
        x, y, w, h = rect
        if w < 1 or h < 1 or w > k - 1 or h > k - 1:
            raise ValueError(
                f"rect sides must be in 1..{k - 1} so the region stays a disk"
            )
        sites = {((y + b) % k) * k + (x + a) % k for a in range(w) for b in range(h)}
        return region_from_sites(lat, sites)

    crossed = mask_from_indices(dual_loop, lat.n_links)
    if crossed.bit_count() != len(list(dual_loop)):
        raise ValueError("dual loop repeats a link")
    # each dual vertex (= plaquette) must meet the cycle 0 or 2 times
    for pi, pm in enumerate(lat.plaquette_masks()):
        d = (pm & crossed).bit_count()
        if d not in (0, 2):
            raise ValueError(
                f"dual edges meet plaquette {pi} {d} times; not a simple cycle"
            )
    comps = _components_avoiding(lat, crossed)
    if len(comps) != 2:
        raise ValueError(
            f"loop splits the sites into {len(comps)} components; a simple "
            "contractible loop gives exactly 2"
        )
    comps.sort(key=len)
    if len(comps[0]) == len(comps[1]):
        raise ValueError("interior is ambiguous: both sides have equal area")
    part, stats = region_from_sites(lat, comps[0])
    if stats.boundary_length != crossed.bit_count():
        raise ValueError("loop does not bound the region it encloses")
    return part, stats


# ---------------------------------------------------------------------------
# random region sampling (boundary-law sweeps)

def random_rectangle_region(
    lat: Lattice, rng: random.Random
) -> tuple[Partition, BoundaryStats]:
    """Random axis-aligned rectangle of sites, small enough to be convex.

    Sides are capped at k-2 so that every straddling site touches the
    region on exactly one link (no wrap-around contact), which is what
    makes the perimeter law S = L - 1 exact.
    """
    if lat.torus_k is None:
        raise ValueError("rect regions are only defined for the torus builder")
    k = lat.torus_k
    if k < 3:
        raise ValueError("need k >= 3 for a convex rectangle")
    w = rng.randint(1, k - 2)
    h = rng.randint(1, k - 2)
    x = rng.randrange(k)
    y = rng.randrange(k)
    return disk_region(lat, rect=(x, y, w, h))


def _torus_block(k: int, x: int, y: int, w: int, h: int) -> bytearray:
    # one flag byte per site of the k x k torus, set on the w x h block
    # with corner (x, y) and wrapping both ways; w <= k and h <= k
    row = b"\1" * w + bytes(k - w)
    x %= k
    row = row[k - x:] + row[:k - x]  # row[i] is set when (i - x) % k < w
    flags = bytearray(k * k)
    for b in range(h):
        j = (y + b) % k * k
        flags[j:j + k] = row
    return flags


def random_simple_region(
    lat: Lattice, rng: random.Random, max_sites: int | None = None
) -> tuple[Partition, BoundaryStats]:
    """Random simply-connected site blob grown inside a (k-2)^2 window.

    The blob starts at a random window site.  Each step pops a random
    entry of the frontier, a list of the blob's window neighbours that
    keeps duplicates, and adds it unless it has joined already; either
    way the pop spends one draw.  Holes are then filled so the
    complement stays connected: one flood from the ring of sites just
    outside the blob's bounding box walks the box's other sites, and
    every box site it misses joins the region.  The result is always a
    valid disk region (equivalent to some simple rectilinear dual loop),
    generally with concave notches contributing n2/n3 sites.

    A draw takes Python steps in proportion to the region and its
    bounding box, not to the lattice: window and box membership are byte
    flags filled by row slices, and the stats test only the stars next
    to the region (see `region_from_sites`).
    """
    if lat.torus_k is None:
        raise ValueError("blob regions are only defined for the torus builder")
    k = lat.torus_k
    if k < 4:
        raise ValueError("need k >= 4 for a nontrivial blob")
    side = k - 2
    x0 = rng.randrange(k)
    y0 = rng.randrange(k)
    if max_sites is None:
        max_sites = max(1, (side * side) // 2)
    target = rng.randint(1, max_sites)

    nbrs = lat._neighbor_sites
    free = _torus_block(k, x0, y0, side, side)  # window sites not in the blob
    start = ((y0 + rng.randrange(side)) % k) * k + (x0 + rng.randrange(side)) % k
    free[start] = 0
    blob = [start]
    frontier = list(filter(free.__getitem__, nbrs[start]))
    getrandbits = rng.getrandbits
    while len(blob) < target and frontier:
        # rng.randrange(m), inlined: CPython 3.10 to 3.13 draw getrandbits of
        # m's bit length until the value is below m, so the draws and the
        # final state of rng are the same as through randrange
        m = len(frontier)
        b = m.bit_length()
        i = getrandbits(b)
        while i >= m:
            i = getrandbits(b)
        v = frontier.pop(i)
        if not free[v]:
            continue
        free[v] = 0
        blob.append(v)
        frontier.extend(filter(free.__getitem__, nbrs[v]))

    # Fill holes.  The bounding box is taken in window offsets, so it
    # never wraps, and it is at most k - 2 sites wide: the box plus a
    # one-site ring around it fits on the torus, and the ring is
    # connected and free of the blob.
    cols = [(s % k - x0) % k for s in blob]
    rows = [(s // k - y0) % k for s in blob]
    i_lo, j_lo = min(cols) - 1, min(rows) - 1
    # box and ring sites outside the blob, cleared as the flood reaches them
    frame = _torus_block(
        k, x0 + i_lo, y0 + j_lo, max(cols) - i_lo + 2, max(rows) - j_lo + 2
    )
    for s in blob:
        frame[s] = 0
    corner = (y0 + j_lo) % k * k + (x0 + i_lo) % k
    frame[corner] = 0
    stack = [corner]
    while stack:
        for v in nbrs[stack.pop()]:
            if frame[v]:
                frame[v] = 0
                stack.append(v)
    blob.extend(compress(range(lat.n_sites), frame))  # the holes
    return region_from_sites(lat, blob)
