"""Command-line front end.

Subcommands: ``entropy`` (one partition, one state), ``verify``
(oracle-vs-engine sweep at k <= 3), ``scan`` (partition sweeps to
CSV/JSON) and ``lattice-info``.

Exit codes: 0 success, 1 verification or closed-form mismatch, 2 input
error, 3 resource cap exceeded, 4 output could not be written, 5
internal error (any other exception, reported as one ``error: internal
error: <Type>: <message>`` line on stderr, never exit 1).  Output
for a fixed configuration (including seed) is byte-identical between
runs: rows are sorted by partition descriptor and floats rendered via
repr.

The statevector oracle, and numpy with it, is imported only by
``verify`` and on the ``--oracle`` paths.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from array import array
from dataclasses import dataclass
from itertools import chain

from . import __version__
from .engine import (
    EXHAUSTIVE_SCAN_MAX_LINKS,
    bipartition_masks,
    entropy_bounds,
    entropy_equal_superposition,
    geometric_entropy,
    ground_degeneracy,
)
from .errors import (
    MAX_ORACLE_LINKS,
    MAX_SUBSYSTEM_LINKS,
    ORACLE_TOL,
    LatticeFormatError,
    ResourceLimitError,
)
from .lattice import (
    BoundaryStats,
    Lattice,
    Partition,
    boundary_stats,
    build_torus,
    disk_region,
    named_partition,
    parse_lattice_document,
    plaquette_group,
    random_rectangle_region,
    random_simple_region,
    star_group,
)
from .states import GroundStateCoeffs, amplitude_norm, closed_form_entropy

COEFF_NORM_SLACK = 1e-6

CSV_COLUMNS = (
    "partition",
    "size_A",
    "L",
    "n1",
    "n2",
    "n3",
    "S_bits",
    "S_closed_form",
    "lower_bound",
    "upper_bound",
    "oracle_S",
)


@dataclass
class ParsedPartition:
    descriptor: str
    partition: Partition
    stats: BoundaryStats | None
    closed_form_name: str | None
    is_disk: bool


# ---------------------------------------------------------------------------
# spec parsers

def parse_lattice_spec(spec: str) -> Lattice:
    """``torus:k=K`` or a path to a lattice document."""
    if spec.startswith("torus:"):
        body = spec[len("torus:"):]
        if not body.startswith("k="):
            raise ValueError(f"expected torus:k=<int>, got {spec!r}")
        try:
            k = int(body[2:])
        except ValueError:
            raise ValueError(f"bad torus size in {spec!r}")
        return build_torus(k)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read lattice file {spec!r}: {exc}")
    return parse_lattice_document(text)


def _parse_int_list(body: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in body.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad {what} list: {body!r}")


def parse_partition_spec(lat: Lattice, spec: str) -> ParsedPartition:
    """Grammar: chain | ladder | cross | vertical | spin:<id> |
    pair:<id>,<id> | links:<id,...> | rect:<x>,<y>,<w>,<h> |
    loop:<link id,...>."""
    closed_form_name = None
    stats = None
    is_disk = spec.startswith(("rect:", "loop:"))
    if spec in ("chain", "ladder", "cross", "vertical"):
        part = named_partition(lat, spec)
        closed_form_name = spec
    elif spec.startswith("spin:"):
        ids = _parse_int_list(spec[5:], "spin")
        if len(ids) != 1:
            raise ValueError("spin: needs exactly one link id")
        part = named_partition(lat, "single_spin", ids[0])
        closed_form_name = "single_spin"
    elif spec.startswith("pair:"):
        part = named_partition(lat, "pair", *_parse_int_list(spec[5:], "pair"))
    elif spec.startswith("links:"):
        ids = _parse_int_list(spec[6:], "link")
        if not ids:
            raise ValueError("links: needs at least one link id")
        part = Partition.from_links(ids, lat.n_links)
    elif spec.startswith("rect:"):
        vals = _parse_int_list(spec[5:], "rect")
        if len(vals) != 4:
            raise ValueError("rect: needs x,y,w,h")
        part, stats, _ = disk_region(lat, rect=tuple(vals))
    elif spec.startswith("loop:"):
        ids = _parse_int_list(spec[5:], "loop")
        if not ids:
            raise ValueError("loop: needs at least one link id")
        part, stats, _ = disk_region(lat, dual_loop=ids)
    else:
        raise ValueError(f"unknown partition spec {spec!r}")
    if not is_disk:
        stats = _try_stats(lat, part)
    return ParsedPartition(spec, part, stats, closed_form_name, is_disk)


def _try_stats(lat: Lattice, part: Partition) -> BoundaryStats | None:
    try:
        return boundary_stats(lat, part)
    except ValueError:
        return None


def parse_state_spec(spec: str) -> tuple[str, GroundStateCoeffs, bool]:
    """Returns (label, coefficients, is_basis_state)."""
    if spec.startswith("xi:"):
        ids = _parse_int_list(spec[3:], "basis index")
        if len(ids) != 2:
            raise ValueError("xi: needs two indices, e.g. xi:0,1")
        return spec, GroundStateCoeffs.xi(*ids), True
    if spec.startswith("coeffs:"):
        toks = spec[len("coeffs:"):].split(",")
        if len(toks) != 4:
            raise ValueError("coeffs: needs four complex amplitudes")
        try:
            amps = [complex(t) for t in toks]
        except ValueError:
            raise ValueError(f"bad complex literal in {spec!r}")
        norm = amplitude_norm(amps)
        if not abs(norm - 1) < COEFF_NORM_SLACK:  # rejects NaN too
            raise ValueError(
                f"coefficient norm {norm!r} is too far from 1 to renormalize"
            )
        if norm != 1:
            print(f"note: renormalizing coefficients (norm {norm!r})", file=sys.stderr)
        coeffs = GroundStateCoeffs.from_sequence(amps, renormalize=True)
        return spec, coeffs, False
    if spec.startswith("random:"):
        try:
            seed = int(spec[len("random:"):])
        except ValueError:
            raise ValueError(f"bad random seed in {spec!r}")
        return spec, GroundStateCoeffs.random(random.Random(seed)), False
    raise ValueError(f"unknown state spec {spec!r}")


# ---------------------------------------------------------------------------
# output helpers

#: characters per write of the row emitters: one write per 8 KiB of rows,
#: not one per row, which an unbuffered stdout makes a system call
BLOCK_CHARS = 8192
#: a subtree of at most 2**WALK_TABLE_DEPTH rows is one block of `_descriptor_walk`
WALK_TABLE_DEPTH = 7


def emit_json(obj, out) -> None:
    json.dump(obj, out, indent=2)
    out.write("\n")


def emit_rows_json(fixed: dict, tails, rows, out) -> None:
    """Write `emit_json`'s bytes for ``fixed`` plus a last key ``"rows"``,
    the blocks of (descriptor, position) ``rows`` as objects keyed by
    `CSV_COLUMNS`, the other fields ``tails[position]``, a block at a time
    (`_row_texts`, `_write_blocks`)."""
    keys = [json.dumps(c) for c in CSV_COLUMNS]
    head = ",\n    {\n      %s: " % keys[0]

    def tail_text(tail) -> str:
        fields = "".join(
            f",\n      {key}: {json.dumps(v)}" for key, v in zip(keys[1:], tail)
        )
        return fields + "\n    }"

    def texts():
        yield [json.dumps({**fixed, "rows": []}, indent=2)[:-3]]  # through "["
        empty = True
        for block in _row_texts(tails, rows, lambda v: head + json.dumps(v), tail_text):
            if empty and block:
                block[0], empty = block[0][1:], False  # no comma before the first
            yield block
        yield ["]\n}\n" if empty else "\n  ]\n}\n"]  # [] when no rows

    _write_blocks(texts(), out)


class _Echo:
    """A pseudo-file whose ``write`` returns its text, so that a csv
    writer over it returns each line it formats."""

    def write(self, text: str) -> str:
        return text


_csv_line = csv.writer(_Echo(), lineterminator="\n").writerow


def _csv_head(value) -> str:
    """The first field of a row of several, as the csv module writes it."""
    if type(value) is str and value.isprintable() and not ('"' in value or " " in value):
        return f'"{value}"' if "," in value else value  # quoted, never escaped
    return _csv_line((value, None))[:-2]


def emit_rows_csv(tails, rows, out) -> None:
    """``rows`` are blocks (iterables) of (descriptor, position) pairs,
    ``tails[position]`` holding the other `CSV_COLUMNS` fields, written as
    the csv module writes them: None as an empty field and a float as its
    repr.  Lines are made by `_row_texts` and written in blocks by
    `_write_blocks`."""
    lines = _row_texts(tails, rows, _csv_head, lambda tail: _csv_line(("", *tail)))
    _write_blocks(chain([[_csv_line(CSV_COLUMNS)]], lines), out)


def _row_texts(tails, rows, head_text, tail_text):
    """For each block of (head, position) ``rows``, yield the list of
    ``head_text(head) + tail_text(tails[position])``, one list
    comprehension a block.

    ``tail_text`` runs once per position of ``tails``, the scan's table of
    distinct tails (`_scan_rows`), a few hundred in an exhaustive scan:
    before each block, on the positions added since the last.  As in that
    table, position 0 is no row's and is not formatted.
    """
    texts = [None]
    for block in rows:
        texts += map(tail_text, tails[len(texts):])
        yield [head_text(h) + texts[i] for h, i in block]


def _write_blocks(texts, out) -> None:
    """Write the text lists ``texts`` joined into blocks of at most
    `BLOCK_CHARS` characters, one ``out.write`` each; a longer text alone."""
    block, size = [], 0
    for text in chain.from_iterable(texts):
        size += len(text)
        if size > BLOCK_CHARS and block:
            out.write("".join(block))
            block.clear()
            size = len(text)
        block.append(text)
    if block:
        out.write("".join(block))


def _text(value) -> str:
    # str of a float is its repr
    return "-" if value is None else str(value)


def emit_fields(obj: dict, out) -> None:
    """One ``key: value`` line per field, ``-`` for None."""
    for key, value in obj.items():
        out.write(f"{key}: {_text(value)}\n")


def emit_rows_table(tails, rows, out) -> None:
    """Columns padded to their widest cell, ``-`` for None.  The blocks of
    (descriptor, position) ``rows``, the other fields ``tails[position]``,
    are walked twice, for the widths and then to write, so they must be
    the same on each walk: a list, or `_Rewalk`.  Each walk measures or
    pads a position once (`_row_texts`)."""
    # the distinct tuples of cell lengths, a position's found once
    lengths = set(chain.from_iterable(_row_texts(
        tails, rows, lambda v: (len(_text(v)),),
        lambda tail: tuple(len(_text(v)) for v in tail)
    )))
    head_width, *tail_widths = (max(col) for col in zip(map(len, CSV_COLUMNS), *lengths))

    def tail_line(tail) -> str:
        return "".join(f"  {_text(v).ljust(w)}" for v, w in zip(tail, tail_widths)) + "\n"

    head, *tail = CSV_COLUMNS
    lines = _row_texts(tails, rows, lambda v: _text(v).ljust(head_width), tail_line)
    _write_blocks(chain([[head.ljust(head_width) + tail_line(tail)]], lines), out)


# ---------------------------------------------------------------------------
# entropy command

def _oracle(args, lat: Lattice, coeffs):
    """The oracle's entropy of a partition in the state ``coeffs``, under
    the command's ``--max-links`` and ``--max-subsystem`` caps.

    The first call imports the oracle, checks for a torus and builds the
    state and its support, so a command's own input checks come first.
    Each distinct side A is traced once: drawn regions on small tori repeat.
    """
    state = support = None
    memo: dict[int, float] = {}  # a_mask -> oracle_S

    def oracle_s(part: Partition) -> float:
        nonlocal state, support
        from . import oracle

        if state is None:
            if lat.torus_k is None:
                raise ValueError("the statevector oracle needs a torus lattice")
            state = oracle.build_ground_state(lat, coeffs, max_links=args.max_links)
            support = oracle.support(state)
        s = memo.get(part.a_mask)
        if s is None:
            s = memo[part.a_mask] = oracle.oracle_entropy(
                state, part, max_subsystem=args.max_subsystem, support=support
            )
        return s

    return oracle_s


def _state_entropy(lat: Lattice, parsed: ParsedPartition, coeffs, is_basis, report):
    """Best value for the requested state plus the closed-form entry."""
    closed = None
    if parsed.closed_form_name is not None and lat.torus_k is not None:
        closed = closed_form_entropy(
            parsed.closed_form_name,
            lat.torus_k,
            None if is_basis else coeffs,
        )
    if is_basis:
        return float(report.s_bits), closed
    if closed is not None:
        return closed, closed
    if parsed.is_disk:
        # disk entropy is the same for every ground state
        return float(report.s_bits), None
    return None, None


def cmd_entropy(args) -> int:
    lat = parse_lattice_spec(args.lattice)
    parsed = parse_partition_spec(lat, args.partition)
    label, coeffs, is_basis = parse_state_spec(args.state)
    if lat.torus_k is None and args.state != "xi:0,0":
        raise ValueError(
            "loaded lattices only support the plain equal superposition xi:0,0"
        )
    group = plaquette_group(lat) if args.group == "plaquettes" else star_group(lat)
    report = entropy_equal_superposition(group, parsed.partition)
    s_state, closed = _state_entropy(lat, parsed, coeffs, is_basis, report)

    geometric = geometric_entropy(parsed.stats) if parsed.is_disk else None
    oracle_s = None
    if args.oracle:
        oracle_s = _oracle(args, lat, coeffs)(parsed.partition)

    mismatch = False
    if is_basis and closed is not None and closed != report.s_bits:
        mismatch = True
    if geometric is not None and geometric != report.s_bits:
        mismatch = True
    if oracle_s is not None and s_state is not None:
        if abs(oracle_s - s_state) > ORACLE_TOL:
            mismatch = True

    stats = parsed.stats
    out = {
        "command": "entropy",
        "lattice": args.lattice,
        "partition": parsed.descriptor,
        "state": label,
        "group": args.group,
        "size_A": parsed.partition.size_a,
        "S_bits": report.s_bits,
        "log2_group": report.log2_group,
        "log2_inside_A": report.log2_inside_a,
        "log2_inside_B": report.log2_inside_b,
        "log2_free": report.log2_free,
        "diagonal": report.diagonal,
        "S": s_state,
        "S_closed_form": closed,
        "S_geometric": geometric,
        "L": stats.boundary_length if stats else None,
        "n1": stats.n1 if stats else None,
        "n2": stats.n2 if stats else None,
        "n3": stats.n3 if stats else None,
        "sigma_A": stats.sigma_a if stats else None,
        "sigma_B": stats.sigma_b if stats else None,
        "sigma_AB": stats.sigma_ab if stats else None,
        "oracle_S": oracle_s,
        "mismatch": mismatch,
    }
    if args.format == "json":
        emit_json(out, sys.stdout)
    elif args.format == "csv":
        sys.stdout.write(_csv_line(out) + _csv_line(out.values()))
    else:
        emit_fields(out, sys.stdout)
    if mismatch:
        print(
            "error: closed-form/engine/oracle values disagree "
            f"(S_bits={report.s_bits}, closed={closed}, oracle={oracle_s})",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify command

def cmd_verify(args) -> int:
    from .verify import default_suite, max_deviation, verify_partitions

    if not (args.tol >= 0 and math.isfinite(args.tol)):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    lat = parse_lattice_spec(args.lattice)
    _, coeffs, is_basis = parse_state_spec(args.state)
    if not is_basis:
        raise ValueError(
            "verify compares the equal-superposition engine against the "
            "oracle, so the state must be a basis state xi:<i>,<j>"
        )
    suite = default_suite(lat)
    results = verify_partitions(lat, suite, coeffs, tol=args.tol)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        emit_json(
            {
                "command": "verify",
                "lattice": args.lattice,
                "state": args.state,
                "tol": args.tol,
                "results": [
                    {
                        "partition": r.name,
                        "S_engine": r.s_engine,
                        "S_oracle": r.s_oracle,
                        "deviation": r.deviation,
                        "passed": r.passed,
                    }
                    for r in results
                ],
                "max_deviation": max_deviation(results),
                "passed": not failed,
            },
            sys.stdout,
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{status} {r.name}: engine={r.s_engine} "
                f"oracle={r.s_oracle!r} dev={r.deviation!r}"
            )
        print(
            f"{len(results) - len(failed)}/{len(results)} passed, "
            f"max deviation {max_deviation(results)!r}"
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# scan command

def _scan_rows(args, lat, group):
    """Check the mode's inputs and caps, then return ``(tails, rows)``:
    the scan's table of distinct row tails and its rows in blocks, in
    descriptor order, ready to emit, with the oracle's entropy under
    ``--oracle``.

    A row is a (descriptor, position) pair, ``tails[position]`` holding
    the other `CSV_COLUMNS` fields.  Each distinct tail, oracle value
    included, is added to the table once, by the first row that needs
    it, so that an emitter formats each position once per walk
    (`_row_texts`) and every position is some row's; a float is matched
    by its repr, since 0.0 and -0.0 are equal and NaN is not, and each
    prints as its repr.  Position 0 is no row's, so that 0 in the
    exhaustive scan's index means a tail not yet computed.

    The checks run here, before any row, so that an error leaves stdout
    empty even when `cmd_scan` streams the rows.  Exhaustive rows come a
    walk subtree per block (`_descriptor_walk`), as a `_Rewalk` whose
    walks share one `_tail_index` (the engine and stats run once per
    torus symmetry orbit): a row's own work is one index read in its
    block's list comprehension.  Under ``--oracle``, whose trace is per
    side anyway, each row is evaluated on its own side, with no index,
    and all are held in a list.  The drawn modes are sorted into one
    block, rows of one descriptor in draw order.  A region row names its
    region by the links of its boundary loop.
    """
    mode = args.mode
    n = lat.n_links
    oracle = _oracle(args, lat, GroundStateCoeffs.xi(0, 0)) if args.oracle else None

    tails: list = [None]
    positions = {}  # the values a tail is made of -> its position in tails

    def tail_of(part, stats, closed, s_bits) -> int:
        """The position of the row's tail, with the oracle's entropy of
        ``part`` under ``--oracle``; the bounds follow from the stats."""
        oracle_s = None if oracle is None else oracle(part)
        key = (part.size_a, stats, s_bits, repr(closed), repr(oracle_s))
        i = positions.get(key)
        if i is None:
            i = positions[key] = len(tails)
            if stats is None:
                tails.append((part.size_a, None, None, None, None, s_bits, closed,
                              None, None, oracle_s))
            else:
                length = stats.boundary_length
                tails.append((part.size_a, length, stats.n1, stats.n2, stats.n3,
                              s_bits, closed, *entropy_bounds(length), oracle_s))
        return i

    def entropy(part):
        return entropy_equal_superposition(group, part).s_bits

    def link_tail(mask):
        part = Partition(n, mask)
        return tail_of(part, _try_stats(lat, part), None, entropy(part))

    def exhaustive_rows(index, miss):
        for block in _descriptor_walk(n):
            yield [(desc, index[mask] or miss(mask)) for mask, desc in block]

    def drawn(rows):  # sorted into one block, draw order kept
        return tails, [sorted(rows, key=lambda row: row[0])]

    def region_rows(sample, rng):
        for _ in range(args.count):
            part, stats, loop = sample(lat, rng)
            desc = "loop:" + lat.link_list(loop)
            yield desc, tail_of(part, stats, float(geometric_entropy(stats)), entropy(part))

    def table1_rows(k):
        for name in ("single_spin", "chain", "ladder", "cross", "vertical"):
            part = named_partition(lat, name)
            closed = closed_form_entropy(name, k)
            yield name, tail_of(part, _try_stats(lat, part), closed, entropy(part))
        side = 2 if k >= 4 else 1
        part, stats, _ = disk_region(lat, rect=(0, 0, side, side))
        desc = f"rect:0,0,{side},{side}"
        yield desc, tail_of(part, stats, float(geometric_entropy(stats)), entropy(part))

    if mode == "exhaustive":
        bipartition_masks(n, max_links=args.scan_cap)  # only for its link cap
        if oracle is None:
            found = _tail_index(lat, group, tails, tail_of)  # once per orbit, over all walks
            return tails, _Rewalk(lambda: exhaustive_rows(*found))
        cap = args.max_subsystem
        if n - 1 > cap:
            # rows keep up to n - 1 links on one side, so exit before any
            # trace: the first row over the cap in mask order, max(cap, 0) + 1
            # links wide, raises the cap's error before any work
            oracle(Partition(n, (1 << max(cap + 1, 1)) - 1))
        # the trace is per side, so is each row; all are held, so that an
        # oracle cap on any row leaves stdout empty
        return tails, [[(desc, link_tail(mask)) for mask, desc in block]
                       for block in _descriptor_walk(n)]
    if mode == "sampled":
        _require_count_seed(args)
        masks = bipartition_masks(
            n, mode, count=args.count, seed=args.seed, max_links=args.scan_cap
        )
        return drawn(("links:" + lat.link_list(mask), link_tail(mask)) for mask in masks)
    if mode in ("rects", "disks"):
        _require_count_seed(args)
        sample = random_rectangle_region if mode == "rects" else random_simple_region
        return drawn(region_rows(sample, random.Random(args.seed)))
    if mode == "table1":
        if lat.torus_k is None:
            raise ValueError("table1 mode needs a torus lattice")
        return drawn(table1_rows(lat.torus_k))
    raise ValueError(f"unknown scan mode {mode!r}")


class _Rewalk:
    """An iterable that calls ``walk`` for a new iterator on each walk."""

    def __init__(self, walk):
        self.walk = walk

    def __iter__(self):
        return self.walk()


def _descriptor_walk(n: int):
    """Yield (mask, ``links:`` descriptor) for every proper side A of ``n``
    links, in the order of the sorted descriptors, in lists (blocks) of at
    most 2**`WALK_TABLE_DEPTH` pairs.

    A descriptor lists A's links ascending, and ``,`` sorts below every
    digit, so that order is a depth-first walk over ascending link lists
    which yields each list before its extensions and tries the next link
    in the string order of its name (0, 1, 10, 11, ..., 2, ...).  Each
    descriptor is its parent's plus one ``,<name>``, and the full mask is
    skipped.  A node whose last link c has at most `WALK_TABLE_DEPTH`
    links above it is a block of its whole subtree, joined from c's table
    of (mask, suffix) extensions, built once per walk; any other node is
    a block alone.
    """
    names = [str(link) for link in range(n)]
    order = sorted(range(n), key=names.__getitem__)
    tables = {}  # last link -> its subtree's (mask, suffix) extensions, in order
    for last in range(n - 1, max(n - 2 - WALK_TABLE_DEPTH, -1), -1):
        tables[last] = [(0, "")] + [(1 << c | mask, f",{names[c]}{suffix}")
                                    for c in order if c > last
                                    for mask, suffix in tables[c]]
    stack = [(1 << c, "links:" + names[c], c) for c in reversed(order)]
    while stack:
        mask, desc, last = stack.pop()
        table = tables.get(last)
        if table is None:
            yield [(mask, desc)]
            stack.extend((mask | 1 << c, f"{desc},{names[c]}", c)  # popped in string order
                         for c in reversed(order) if c > last)
        else:
            block = [(mask | ext, desc + suffix) for ext, suffix in table]
            full = (1 << n) - 1  # only in the subtree of links 0 to c
            yield block if mask != (2 << last) - 1 else [r for r in block if r[0] != full]


def _tail_index(lat: Lattice, group, tails: list, tail_of):
    """The positions in ``tails`` of an exhaustive scan's row tails, each
    computed once per symmetry orbit (`Lattice.symmetry_orbit`, 8 k**2
    maps on the torus), as ``(index, miss)``: the position of side A's
    tail is ``index[A] or miss(A)``.

    ``index`` has one 2-byte entry per mask, its tail's position, or 0
    for a tail not yet computed.  On a miss the engine runs once for the
    pair {A, B}, since S(A) = S(B), and `_try_stats` and ``tail_of(part,
    stats, None, s_bits)``, which adds a new tail to ``tails``, give A's
    position, then B's.  A torus symmetry maps the group to itself, so it
    keeps both values, and the complement of an image is an image of B:
    A's position is written at every image and B's at every complement.
    Once ``tails`` holds the 2**16 positions that 2 bytes index, a miss
    gives A's position alone and indexes nothing: such a side is
    computed again at each use, and no row costs more than direct
    evaluation.  Any order of queries thus gives the tails of direct
    evaluation.  Memory: 2**(n+1) bytes.  Off the torus the orbit is the
    mask alone.  Built only without ``--oracle``.
    """
    n = lat.n_links
    full = (1 << n) - 1
    index = array("H", [0]) * (1 << n)

    def miss(mask: int) -> int:
        part = Partition(n, mask)
        s_bits = entropy_equal_superposition(group, part).s_bits
        i = tail_of(part, _try_stats(lat, part), None, s_bits)
        if len(tails) < 1 << 16:  # A's position and a new one for B fit
            rest = Partition(n, full ^ mask)
            j = tail_of(rest, _try_stats(lat, rest), None, s_bits)
            for image in lat.symmetry_orbit(mask):
                index[image], index[full ^ image] = i, j
        return i

    return index, miss


def _require_count_seed(args) -> None:
    if args.count is None or args.count < 1:
        raise ValueError(f"mode {args.mode!r} needs --count >= 1")
    if args.seed is None:
        raise ValueError(f"mode {args.mode!r} needs --seed for reproducibility")
    if (args.count + 1).bit_length() > args.scan_cap:  # count > 2**cap - 2
        raise ResourceLimitError(
            f"--count {args.count} exceeds the row budget 2**{args.scan_cap} - 2 "
            "set by --scan-cap"
        )


def cmd_scan(args) -> int:
    """Print the scan's (descriptor, position) rows, in blocks sorted by
    descriptor, the other fields of each at its position in the scan's
    table of distinct tails (`_scan_rows`).

    Exhaustive rows are made in that order, a walk subtree per block
    from the walk's suffix tables, so CSV and JSON format each block as
    it comes and write in blocks of at most `BLOCK_CHARS` characters:
    memory is `_tail_index`'s 2**(n+1) bytes (32 MiB at the 24-link
    cap), the table of tails and one text per position, plus a block.
    A table walks the exhaustive rows twice, for its column widths and
    then to write, so any error comes before its first write.  Every
    ``--oracle`` scan and the drawn modes come with all rows held, so
    that an error leaves stdout empty.
    """
    lat = parse_lattice_spec(args.lattice)
    group = plaquette_group(lat) if args.group == "plaquettes" else star_group(lat)
    tails, rows = _scan_rows(args, lat, group)
    if args.format == "json":
        fixed = {
            "command": "scan",
            "mode": args.mode,
            "lattice": args.lattice,
            "seed": args.seed,
            "count": args.count,
        }
        emit_rows_json(fixed, tails, rows, sys.stdout)
    elif args.format == "table":
        emit_rows_table(tails, rows, sys.stdout)
    else:
        emit_rows_csv(tails, rows, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# lattice-info command

def cmd_lattice_info(args) -> int:
    lat = parse_lattice_spec(args.lattice)
    stars = star_group(lat)
    plaqs = plaquette_group(lat)
    independent = degeneracy = None
    if lat.closed:
        # degeneracy = 2**(n_links - independent)
        degeneracy = ground_degeneracy(lat)
        independent = lat.n_links - (degeneracy.bit_length() - 1)
    info = {
        "command": "lattice-info",
        "lattice": args.lattice,
        "n_sites": lat.n_sites,
        "n_links": lat.n_links,
        "n_plaquettes": lat.n_plaquettes,
        "genus": lat.genus,
        "torus_k": lat.torus_k,
        "star_rank": stars.rank(),
        "plaquette_rank": plaqs.rank(),
        "independent_generators": independent,
        "ground_degeneracy": degeneracy,
    }
    if args.format == "json":
        emit_json(info, sys.stdout)
    else:
        emit_fields(info, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(sub, *, formats=("table", "csv", "json")) -> None:
    sub.add_argument("--lattice", required=True, help="torus:k=K or document path")
    sub.add_argument("--format", choices=formats, default=formats[0])


def _add_group_and_oracle(sub) -> None:
    sub.add_argument("--group", choices=("stars", "plaquettes"), default="stars")
    sub.add_argument("--oracle", action="store_true", help="cross-check on the oracle")
    sub.add_argument(
        "--max-links",
        type=int,
        default=MAX_ORACLE_LINKS,
        help="oracle statevector cap (links)",
    )
    sub.add_argument(
        "--max-subsystem",
        type=int,
        default=MAX_SUBSYSTEM_LINKS,
        help="oracle partial-trace cap (links kept)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipent",
        description="entanglement entropy of spin-flip stabilizer states",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("entropy", help="entropy of one partition in one state")
    _add_common(p)
    _add_group_and_oracle(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--state", default="xi:0,0")
    p.set_defaults(func=cmd_entropy)

    p = subs.add_parser("verify", help="oracle-vs-engine sweep (k <= 3)")
    _add_common(p, formats=("table", "json"))
    p.add_argument("--state", default="xi:0,0")
    p.add_argument("--tol", type=float, default=ORACLE_TOL)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("scan", help="partition sweeps with boundary statistics")
    _add_common(p, formats=("csv", "json", "table"))
    p.add_argument(
        "--mode",
        choices=("exhaustive", "sampled", "rects", "disks", "table1"),
        default="exhaustive",
    )
    _add_group_and_oracle(p)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--scan-cap",
        type=int,
        default=EXHAUSTIVE_SCAN_MAX_LINKS,
        help="row budget of every mode: at most 2**cap - 2 rows "
        "(the exhaustive-mode link cap)",
    )
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("lattice-info", help="counts, ranks and degeneracy")
    _add_common(p, formats=("table", "json"))
    p.set_defaults(func=cmd_lattice_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"error: out of memory: {reason}", file=sys.stderr)
        return 3
    except (LatticeFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a closed pipe or a full disk on stdout
        # the interpreter flushes stdout again at exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect: keep exit 1 for mismatches only
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
