"""Lattices, bipartitions and boundary bookkeeping.

Spins live on links.  A lattice stores each incidence once: the two end
sites of each link (`link_sites`) and the links bounding each face
(`plaquette_links`).  Every other fact is derived from these two: the
links meeting each site (`star_links`), the faces on each link
(`link_faces`), the counts, the masks and the graphs, so no two of them
can disagree.  Every lattice is validated when it is built, so later
paths may rely on `validate_lattice`.  A lattice is either built
directly as a k x k torus or ingested from a small text document format
(see `parse_lattice_document`).

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
from itertools import chain, compress
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import LatticeFormatError, ResourceLimitError
from .gf2 import GRID_MIN_K, Gf2Matrix, Graph, _bit_flags, mask_from_indices

DOCUMENT_HEADER = "LATTICE v1"

#: Byte cap for `build_torus`.  The largest live structures of a k x k
#: torus are the star and plaquette masks: k**2 rows of 2k**2 bits each
#: per group, about k**4/4 bytes for the two.  `lattice-info` ranks both
#: groups as graphs and builds no echelon copy of either.  The cap, about
#: k**4 bytes, admits k <= 181 in 1 GiB.
MAX_TORUS_BYTES = 1 << 30


@dataclass(frozen=True)
class Lattice:
    """Immutable incidence description of a lattice with spins on links.

    Stored: the site count, each link's two end sites, each plaquette's
    links, the genus of a closed surface and the size of a torus.  Derived
    and cached: `n_links`, `n_plaquettes`, `star_links`, each site's links
    in ascending order, and `link_faces`.  Construction, also through
    ``dataclasses.replace``, runs `validate_lattice`.
    """

    n_sites: int
    link_sites: tuple[tuple[int, int], ...]
    plaquette_links: tuple[tuple[int, ...], ...]
    genus: int | None = None
    torus_k: int | None = None

    def __post_init__(self) -> None:
        validate_lattice(self)

    @cached_property
    def n_links(self) -> int:
        return len(self.link_sites)

    @cached_property
    def n_plaquettes(self) -> int:
        return len(self.plaquette_links)

    @cached_property
    def star_links(self) -> tuple[tuple[int, ...], ...]:
        stars: list[list[int]] = [[] for _ in range(self.n_sites)]
        for l, (a, b) in enumerate(self.link_sites):
            stars[a].append(l)
            stars[b].append(l)
        return tuple(map(tuple, stars))

    @cached_property
    def link_faces(self) -> tuple[tuple[int, int], ...]:
        """Each link's two plaquettes, the outer vertex ``n_plaquettes``
        standing in for a missing one: the face graph's edges.  A repeated
        link counts once; a link on three plaquettes raises."""
        n, outer = self.n_links, self.n_plaquettes
        first, second = [outer] * n, [outer] * n
        for p, links in enumerate(self.plaquette_links):
            for l in links:
                if not 0 <= l < n:
                    raise LatticeFormatError(
                        f"plaquette {p} lists link {l}, outside 0..{n - 1}"
                    )
                if first[l] == outer:
                    first[l] = p
                elif second[l] == outer and first[l] != p:
                    second[l] = p
                elif p not in (first[l], second[l]):
                    raise LatticeFormatError(
                        f"link {l} lies on plaquettes {first[l]}, {second[l]} and {p}"
                    )
        return tuple(zip(first, second))

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
        return Gf2Matrix(self.star_masks(), self.n_links, graph=self._graphs[0])

    @cached_property
    def _plaquette_group(self) -> Gf2Matrix:
        return Gf2Matrix(self.plaquette_masks(), self.n_links, graph=self._graphs[1])

    @cached_property
    def _graphs(self) -> tuple[Graph, Graph]:
        # The star group's graph, link l joining the sites link_sites[l], and
        # the plaquette group's, with an outer vertex for links on fewer than
        # two faces.  Each graph's cycle space is spanned by the other's cuts
        # and one loop of each of its own classes: on the torus always, off it
        # only if the cuts alone span it (the faces of a sphere or of a planar
        # patch), since no loops are known there.  A torus of size GRID_MIN_K
        # or more also gives both graphs their grid layout: link c joins site
        # c to its east and link k**2 + c to its north neighbour, and joins
        # plaquette c to its south and to its west neighbour.
        loops, n = self._torus_loops, self.n_links
        site_grid = face_grid = None
        if (self.torus_k or 0) >= GRID_MIN_K:
            east, west, north, south = self._site_shifts
            site_grid = self.n_sites, (west, east), (south, north)
            face_grid = self.n_sites, (north, south), (east, west)
        sites = Graph(self.n_sites, self.link_sites, loops[:2], site_grid)
        faces = Graph(self.n_plaquettes + 1, self.link_faces, loops[2:], face_grid)
        if self.torus_k is not None or sites.full_rank + faces.full_rank == n:
            sites.dual, faces.dual = faces, sites
        return sites, faces

    @cached_property
    def _torus_loops(self) -> tuple[tuple[int, ...], ...]:
        # On the torus, four families of k loop masks: the chains
        # {v(i, j) : j} and the ladders {h(i, j) : j}, one per column i, and
        # the rows {h(i, j) : i} and the rungs {v(i, j) : i}, one per row j,
        # each loop a shift of the first column or row.  Off the torus, none.
        k = self.torus_k
        if k is None:
            return ()
        column = sum(1 << j * k for j in range(k))  # {h(0, j) : j}
        row = (1 << k) - 1  # {h(i, 0) : i}
        v = k * k  # the offset of the vertical links
        return (
            tuple(column << v + i for i in range(k)),  # chains
            tuple(row << j * k for j in range(k)),  # rows
            tuple(column << i for i in range(k)),  # ladders
            tuple(row << v + j * k for j in range(k)),  # rungs
        )

    @cached_property
    def _site_shifts(self) -> tuple:
        # On the torus, four maps of k**2-bit site masks, bit j*k + i for
        # site (i, j): east, west, north and south, whose bit at each site
        # is the input's bit at that neighbour, rows and columns wrapping.
        # Off the torus, none.
        k = self.torus_k
        if k is None:
            return ()
        n, row = k * k, (1 << k) - 1  # row 0
        full = (1 << n) - 1
        first = full // row  # column 0: bit j*k of each row j
        last, low = first << k - 1, full >> k  # column k - 1, rows 0 .. k - 2
        inner, outer, up = full ^ first, full ^ last, n - k
        return (
            lambda m: (m & inner) >> 1 | (m & first) << k - 1,
            lambda m: (m & outer) << 1 | (m & last) >> k - 1,
            lambda m: m >> k | (m & row) << up,
            lambda m: (m & low) << k | m >> up,
        )

    @cached_property
    def _torus_shifts(self) -> tuple:
        # On the torus, two maps of link masks and two masks, for the maps
        # that send stars to stars and plaquettes to plaquettes.  The
        # transpose (i, j) -> (j, i) swaps h(i, j) and v(j, i), and the
        # mirror (i, j) -> (-i, j) sends h(i, j) to h(-i-1, j) and v(i, j)
        # to v(-i, j).  The column shift (i, j) -> (i+1, j) rotates each
        # k-link row of both link blocks by one, the links of column k - 1
        # wrapping, and the row shift (i, j) -> (i, j+1) rotates each
        # k**2-link block by k, the links of row k - 1 wrapping.  Off the
        # torus, none.
        k = self.torus_k
        if k is None:
            return ()
        n = self.n_links
        chains, rows, ladders, rungs = self._torus_loops
        transpose, mirror = [0] * n, [0] * n  # the image bit of each link
        for i in range(k):
            for j in range(k):
                h, v = torus_h(k, i, j), torus_v(k, i, j)
                transpose[h], transpose[v] = 1 << torus_v(k, j, i), 1 << torus_h(k, j, i)
                mirror[h], mirror[v] = 1 << torus_h(k, -i - 1, j), 1 << torus_v(k, -i, j)

        def reflection(bits):
            return lambda mask: sum(compress(bits, _bit_flags(mask)))

        last, top = chains[-1] | ladders[-1], rows[-1] | rungs[-1]  # column, row k - 1
        return reflection(transpose), reflection(mirror), last, top

    def symmetry_orbit(self, mask: int) -> list[int]:
        """The images of a link mask under every symmetry of the torus, each
        translation after each of the 8 symmetries of the square: 8 k**2
        of them with repeats, the mask itself first; off the torus, the
        mask alone.  A symmetry maps each group to itself, so it keeps
        every entropy and boundary statistic."""
        if not self._torus_shifts:
            return [mask]
        transpose, mirror, last, top = self._torus_shifts
        k, images = self.torus_k, []
        keep_row, keep_block, up, down = ~last, ~top, k - 1, k * k - k
        # mirror after transpose is a quarter turn, so alternating the two
        # reflections passes the 8 point images of the mask; each inner
        # step is a column shift and each outer one a row shift
        for reflect in (transpose, mirror) * 4:
            for _ in range(k):
                for _ in range(k):
                    images.append(mask)
                    mask = (mask & keep_row) << 1 | (mask & last) >> up
                mask = (mask & keep_block) << k | (mask & top) >> down
            mask = reflect(mask)
        return images

    @cached_property
    def _neighbor_sites(self) -> tuple[tuple[int, ...], ...]:
        # per site, the far end of each of its links, in link order; blob
        # growth draws from this order, so it must not change
        ends = self.link_sites
        return tuple(
            tuple(sum(ends[l]) - v for l in star)
            for v, star in enumerate(self.star_links)
        )

    @cached_property
    def _empty_stars(self) -> int:
        # sites with no link, which every partition counts in sigma_a
        return self.star_links.count(())


class _PartitionFields(NamedTuple):
    n_links: int
    a_mask: int


class Partition(_PartitionFields):
    """A bipartition (A, B) of the links; ``a_mask`` marks side A.

    A named tuple, cheap to build: an exhaustive scan makes one per row.
    Every constructor, ``_make`` and ``_replace`` included, checks that
    the mask fits the links.
    """

    __slots__ = ()

    def __new__(cls, n_links: int, a_mask: int) -> "Partition":
        if a_mask < 0 or a_mask >> n_links:
            raise ValueError("partition mask wider than the lattice")
        return tuple.__new__(cls, (n_links, a_mask))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Partition":
        return cls(*iterable)

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


class BoundaryStats(NamedTuple):
    """Site classification of a bipartition.

    sigma_a / sigma_b count sites whose stars act only on A / only on B;
    n1, n2, n3 bucket the straddling sites by how many of their incident
    links lie in A, and sigma_ab, their sum, counts the straddling sites.
    The boundary length is the incidence-weighted count n1 + 2*n2 + 3*n3;
    for a disk region cut out by a dual loop it equals the loop length,
    i.e. the number of crossed links.
    """

    sigma_a: int
    sigma_b: int
    n1: int
    n2: int
    n3: int

    @property
    def sigma_ab(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def boundary_length(self) -> int:
        return self.n1 + 2 * self.n2 + 3 * self.n3

    def check(self, lat: Lattice) -> None:
        if self.sigma_a + self.sigma_b + self.sigma_ab != lat.n_sites:
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
    plaqs = []
    link_sites: list[tuple[int, int]] = [(0, 0)] * (2 * k * k)
    for j in range(k):
        for i in range(k):
            site = j * k + i
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
    return Lattice(
        n_sites=k * k,
        link_sites=tuple(link_sites),
        plaquette_links=tuple(tuple(sorted(p)) for p in plaqs),
        genus=1,
        torus_k=k,
    )


def validate_lattice(lat: Lattice) -> None:
    """Check link ends, face incidence, commutation and the Euler count.

    `Lattice` runs this when it is built.  Each link must join two
    distinct sites in ``0..n_sites-1``, and lie on at most two plaquettes
    (`Lattice.link_faces`), exactly two on a closed surface.  Overlap
    parities are counted through that incidence: each link of a star
    toggles its faces, so the check costs O(links), and the error names
    the smallest odd (star, plaquette) pair.
    """
    n_sites = lat.n_sites
    for l, (a, b) in enumerate(lat.link_sites):
        if not (0 <= a < n_sites and 0 <= b < n_sites):
            raise LatticeFormatError(
                f"link {l} joins sites {a} and {b}, outside 0..{n_sites - 1}"
            )
        if a == b:
            raise LatticeFormatError(f"link {l} is a self-loop at site {a}")
    faces = lat.link_faces
    outer = lat.n_plaquettes
    for s, links in enumerate(lat.star_links):
        odd: set[int] = set()
        for l in links:
            odd.symmetric_difference_update(faces[l])
        odd.discard(outer)
        if odd:
            raise LatticeFormatError(
                f"star {s} and plaquette {min(odd)} share an odd number of links"
            )
    if lat.genus is not None:
        for l, (f, g) in enumerate(faces):
            if g == outer:
                on = "one plaquette" if f != outer else "no plaquette"
                raise LatticeFormatError(
                    f"link {l} lies on {on}; a closed surface needs two"
                )
        chi = lat.n_sites - lat.n_links + lat.n_plaquettes
        if chi != 2 * (1 - lat.genus):
            raise LatticeFormatError(
                f"Euler count {chi} inconsistent with genus {lat.genus}"
            )


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

    genus: int | None = None
    if is_closed:
        chi = n_sites - n_links + len(plaqs)
        if chi % 2 or chi > 2:
            raise LatticeFormatError(
                f"closed surface has impossible Euler count {chi}"
            )
        genus = (2 - chi) // 2

    return Lattice(
        n_sites=n_sites,
        link_sites=tuple(links),
        plaquette_links=tuple(plaqs),
        genus=genus,
        torus_k=None,
    )


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
    _, _, ladders, rungs = lat._torus_loops
    return rungs[0], ladders[0]


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
    chains, _, ladders, _ = lat._torus_loops
    if name == "chain":
        return Partition(n, chains[0])
    if name == "ladder":
        return Partition(n, ladders[0])
    if name == "cross":
        return Partition(n, chains[0] | ladders[0])
    if name == "vertical":
        return Partition.from_links(range(k * k, 2 * k * k), n)
    raise ValueError(f"unknown partition name {name!r}")


# ---------------------------------------------------------------------------
# boundary statistics and disk regions

def boundary_stats(
    lat: Lattice, p: Partition, *, sites: Collection[int] | None = None
) -> BoundaryStats:
    """Classify every site by how many of its incident links lie in A.

    A site with no links counts in sigma_a.  The torus reads no star
    mask.  Elsewhere ``sites``, when given, are distinct site ids that
    include every site with a link in A, such as a region and its
    neighbours: only their stars are tested, and every other site counts
    in sigma_b, or in sigma_a if it has no links.
    """
    if lat._site_shifts:
        # A's links as four site masks, each site's east, north, west and
        # south link, summed by a bit-sliced adder: a fixed number of
        # whole-mask operations
        _, west, _, south = lat._site_shifts
        n = lat.n_sites
        east = p.a_mask & (1 << n) - 1  # h(i, j) at site (i, j)
        north = p.a_mask >> n  # v(i, j) at site (i, j)
        west, south = west(east), south(north)  # h(i - 1, j), v(i, j - 1)
        # half adders per pair, then the count's ones, twos and fours
        ew, ns = east ^ west, north ^ south
        ew2, ns2 = east & west, north & south
        ones, fours = ew ^ ns, ew2 & ns2
        twos = ew2 ^ ns2 | ew & ns
        n3 = (ones & twos).bit_count()
        sigma_a = fours.bit_count()
        n1, n2 = ones.bit_count() - n3, twos.bit_count() - n3
        return BoundaryStats(sigma_a, n - sigma_a - n1 - n2 - n3, n1, n2, n3)
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
    return BoundaryStats(sigma_a, sigma_b, n1, n2, n3)


def _components_avoiding(lat: Lattice, crossed: int) -> list[set[int]]:
    # connected components of sites, walking only uncrossed links
    nbrs, stars = lat._neighbor_sites, lat.star_links
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
            for v, l in zip(nbrs[u], stars[u]):
                if not seen[v] and l not in cut:
                    seen[v] = True
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


class Region(NamedTuple):
    """A disk region: its partition, whose A side is every link touching
    a region site, the partition's boundary statistics, and ``loop``, the
    link mask of the region's boundary: the links with exactly one end
    in the region, which the region's dual loop crosses."""

    partition: Partition
    stats: BoundaryStats
    loop: int


def region_from_sites(lat: Lattice, sites: int) -> Region:
    """The region of a site mask, bit s for site s; its A side is every
    link touching those sites.

    The mask must fit ``n_sites`` bits.  Off the torus one pass over the
    region's stars ORs them into A and XORs them into the loop; the
    stats test only the stars of the region and of the loop's far ends.
    """
    n = lat.n_sites
    if sites < 0 or sites >> n:
        raise ValueError(f"site mask out of range for {n} sites")
    if not sites or sites == (1 << n) - 1:
        raise ValueError("region must enclose some but not all sites")
    if lat._site_shifts:
        # h(i, j) is in A when site (i, j) or its east neighbour is in the
        # region, and on the loop when exactly one is; v(i, j) likewise
        # with the north neighbour
        east, _, north, _ = lat._site_shifts
        east, north = east(sites), north(sites)
        part = Partition(lat.n_links, sites | east | (sites | north) << n)
        return Region(part, boundary_stats(lat, part), sites ^ east | (sites ^ north) << n)
    a_mask = loop = 0
    for star in compress(lat.star_masks(), _bit_flags(sites)):
        a_mask |= star
        loop ^= star
    part = Partition(lat.n_links, a_mask)
    inside = compress(range(n), _bit_flags(sites))
    loop_ends = chain.from_iterable(compress(lat.link_sites, _bit_flags(loop)))
    stats = boundary_stats(lat, part, sites=set(chain(inside, loop_ends)))
    return Region(part, stats, loop)


def disk_region(
    lat: Lattice,
    rect: tuple[int, int, int, int] | None = None,
    dual_loop: Sequence[int] | None = None,
) -> Region:
    """Cut out a disk: all links inside or crossed by a dual loop.

    ``rect=(x, y, w, h)`` encloses the w x h block of sites with corner
    (x, y); the crossed links are the block's outgoing links, so the
    boundary length is 2*(w+h).  ``dual_loop`` lists the crossed link
    ids of an explicit dual-edge cycle; it must be a single simple cycle,
    one component of the face graph, that separates the sites into two
    components (a noncontractible loop does not, and a pair of parallel
    ones is two cycles), and the smaller component becomes the interior,
    whose region's ``loop`` must be exactly those links.
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
        return region_from_sites(lat, _site_mask(_torus_block(k, x, y, w, h)))

    crossed = mask_from_indices(dual_loop, lat.n_links)
    if crossed.bit_count() != len(dual_loop):
        raise ValueError("dual loop repeats a link")
    # each dual vertex (= plaquette) must meet the cycle 0 or 2 times
    hits = [0] * (lat.n_plaquettes + 1)  # the last counts the outer vertex
    for l in dual_loop:
        for f in lat.link_faces[l]:
            hits[f] += 1
    for pi, d in enumerate(hits[:-1]):
        if d not in (0, 2):
            raise ValueError(
                f"dual edges meet plaquette {pi} {d} times; not a simple cycle"
            )
    # the faces the links touch, less a spanning forest's edges, count the
    # components of the dual edges; two parallel noncontractible loops
    # also split the sites in two, so this check comes first
    parts = len(hits) - hits.count(0) - lat._graphs[1].rank(crossed)
    if parts != 1:
        raise ValueError(
            f"dual edges form {parts} components; a disk's loop is one cycle"
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
    region = region_from_sites(lat, mask_from_indices(comps[0], lat.n_sites))
    if region.loop != crossed:
        raise ValueError("loop does not bound the region it encloses")
    return region


# ---------------------------------------------------------------------------
# random region sampling (boundary-law sweeps)

def random_rectangle_region(lat: Lattice, rng: random.Random) -> Region:
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


_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _site_mask(flags: bytearray) -> int:
    # the site mask, bit s set when flags[s] is 1, of one 0/1 byte per site
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


def random_simple_region(lat: Lattice, rng: random.Random) -> Region:
    """Random simply-connected site blob grown inside a (k-2)^2 window.

    The blob aims at a size drawn from 1 to half the window, and starts
    at a random window site.  Each step pops a random entry of the
    frontier, a list of the blob's window neighbours that keeps
    duplicates, and adds it unless it has joined already; either way the
    pop spends one draw.  Holes are then filled so the complement stays
    connected: a flood from every site outside the window walks the
    sites off the blob, and every site it misses joins the region.  The
    result is always a valid disk region (equivalent to some simple
    rectilinear dual loop), generally with concave notches contributing
    n2/n3 sites.

    Only the growth's draws take Python steps per site.  The rest works
    on whole rows or masks: the window is byte flags filled by row
    slices, packed into a k**2-bit site mask, each flood step shifts the
    whole mask four ways, and `region_from_sites` shifts the region's
    mask.  A flood takes about k/2 steps: 16.2 on average and 23 at most
    over 1000 draws at k = 32, 64.0 and 71 over 50 draws at k = 128.
    """
    if lat.torus_k is None:
        raise ValueError("blob regions are only defined for the torus builder")
    k = lat.torus_k
    if k < 4:
        raise ValueError("need k >= 4 for a nontrivial blob")
    side = k - 2
    x0 = rng.randrange(k)
    y0 = rng.randrange(k)
    target = rng.randint(1, max(1, side * side // 2))

    nbrs = lat._neighbor_sites
    free = _torus_block(k, x0, y0, side, side)  # window sites not in the blob
    window = _site_mask(free)
    start = ((y0 + rng.randrange(side)) % k) * k + (x0 + rng.randrange(side)) % k
    free[start] = 0
    need = target - 1  # sites the blob has yet to gain
    is_free = free.__getitem__
    frontier = list(filter(is_free, nbrs[start]))
    pop, extend, getrandbits = frontier.pop, frontier.extend, rng.getrandbits
    # a blob as large as the window empties the frontier, and then no draw
    # is left to make
    while need and frontier:
        # rng.randrange(m), inlined: CPython 3.10 to 3.13 draw getrandbits of
        # m's bit length until the value is below m, so the draws and the
        # final state of rng are the same as through randrange
        m = len(frontier)
        b = m.bit_length()
        i = getrandbits(b)
        while i >= m:
            i = getrandbits(b)
        v = pop(i)
        if free[v]:
            free[v] = 0
            need -= 1
            extend(filter(is_free, nbrs[v]))

    # Fill holes.  The window is k - 2 sites wide, so the sites outside it
    # are connected and free of the blob, and a site joins the region
    # when no path off the blob links it to them.
    n = lat.n_sites
    full = (1 << n) - 1
    open_sites = full ^ window ^ _site_mask(free)  # every site off the blob
    east, west, north, south = lat._site_shifts
    reach, grown = 0, full ^ window
    while grown != reach:  # each step reaches one site further, four ways
        reach = grown
        grown |= open_sites & (east(reach) | west(reach) | north(reach) | south(reach))
    return region_from_sites(lat, full ^ reach)
