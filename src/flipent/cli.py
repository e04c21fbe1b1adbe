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
from .states import GroundStateCoeffs, closed_form_entropy

COEFF_NORM_SLACK = 1e-6
ORACLE_MATCH_TOL = 1e-9

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
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
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
#: most distinct row tails an emitter keeps formatted: the k=3 sweep has
#: 341, while drawn regions rarely repeat one
TAIL_MEMO_SIZE = 512


def emit_json(obj, out) -> None:
    json.dump(obj, out, indent=2)
    out.write("\n")


def emit_rows_json(fixed: dict, rows, out) -> None:
    """Write `emit_json`'s bytes for ``fixed`` plus a last key ``"rows"``,
    the rows as objects keyed by `CSV_COLUMNS`, one row at a time and in
    blocks (`_row_texts`, `_write_blocks`)."""
    keys = [json.dumps(c) for c in CSV_COLUMNS]
    head = "{\n      %s: " % keys[0]

    def tail_text(tail) -> str:
        fields = "".join(
            f",\n      {key}: {json.dumps(v)}" for key, v in zip(keys[1:], tail)
        )
        return fields + "\n    }"

    def texts():
        yield json.dumps({**fixed, "rows": []}, indent=2)[:-3]  # through "["
        sep = "\n    "
        for text in _row_texts(rows, lambda v: head + json.dumps(v), tail_text):
            yield sep + text
            sep = ",\n    "
        yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"  # [] when no rows

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


def emit_rows_csv(rows, out, columns=CSV_COLUMNS) -> None:
    """Rows are sequences in ``columns`` order, written as the csv module
    writes them: None as an empty field and a float as its repr.  Lines
    are made by `_row_texts` and written in blocks by `_write_blocks`."""
    lines = chain(
        [_csv_line(columns)],
        # one field: a row holding one empty field is written as ""
        map(_csv_line, rows) if len(columns) < 2 else
        _row_texts(rows, _csv_head, lambda tail: _csv_line(("", *tail))),
    )
    _write_blocks(lines, out)


def _row_texts(rows, head_text, tail_text):
    """Yield ``head_text(row[0]) + tail_text(row[1:])`` for each row.

    ``tail_text`` runs once per distinct tail, for up to `TAIL_MEMO_SIZE`
    tails: an exhaustive scan's rows share a few hundred.  Tails are
    keyed by the type of each field as well as its value, since 1, 1.0
    and True are equal but print differently, and a tail holding a
    non-int zero is not kept, since 0.0 and -0.0 share a type.
    """
    memo = {}
    for row in rows:
        if type(row) is not tuple:
            row = tuple(row)
        tail = row[1:]
        key = (tail, *map(type, tail))
        text = memo.get(key)
        if text is None:
            text = tail_text(tail)
            if len(memo) < TAIL_MEMO_SIZE and not any(
                v == 0 and type(v) is not int for v in tail
            ):
                memo[key] = text
        yield head_text(row[0]) + text


def _write_blocks(texts, out) -> None:
    """Write ``texts`` joined into blocks of at most `BLOCK_CHARS`
    characters, one ``out.write`` each; a longer text is a block alone."""
    block, size = [], 0
    for text in texts:
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


def emit_rows_table(rows, out) -> None:
    cells = [[_text(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
        for i, h in enumerate(CSV_COLUMNS)
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(CSV_COLUMNS, widths)) + "\n")
    for c in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)) + "\n")


# ---------------------------------------------------------------------------
# entropy command

def _oracle_state(args, lat: Lattice, coeffs):
    """The statevector oracle's ground state, under the command's link cap."""
    if lat.torus_k is None:
        raise ValueError("the statevector oracle needs a torus lattice")
    from . import oracle

    return oracle.build_ground_state(lat, coeffs, max_links=args.max_links)


def _oracle_entropy(args, state, part: Partition, support=None) -> float:
    """The oracle's entropy of ``part``, under the command's subsystem cap."""
    from . import oracle

    return oracle.oracle_entropy(
        state, part, max_subsystem=args.max_subsystem, support=support
    )


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
        state = _oracle_state(args, lat, coeffs)
        oracle_s = _oracle_entropy(args, state, parsed.partition)

    mismatch = False
    if is_basis and closed is not None and closed != report.s_bits:
        mismatch = True
    if geometric is not None and geometric != report.s_bits:
        mismatch = True
    if oracle_s is not None and s_state is not None:
        if abs(oracle_s - s_state) > ORACLE_MATCH_TOL:
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
        emit_rows_csv([out.values()], sys.stdout, list(out))
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
    """Check the mode's inputs and caps, then return an iterator of scan
    rows in `CSV_COLUMNS` order, with the oracle's entropy under
    ``--oracle``.

    The checks run here, before any row, so that an error leaves stdout
    empty even when `cmd_scan` streams the rows.  Exhaustive rows come
    in descriptor order (`_descriptor_walk`) and ask the engine once per
    complement pair; the other modes give their rows in draw order.  A
    region row names its region by the links of its boundary loop.
    """
    mode = args.mode
    n = lat.n_links
    oracle = _scan_oracle(args, lat) if args.oracle else None

    def row(desc, part, stats, closed, s_bits):
        oracle_s = None if oracle is None else oracle(part)
        if stats is None:
            return (desc, part.size_a, None, None, None, None, s_bits, closed,
                    None, None, oracle_s)
        length = stats.boundary_length
        lower, upper = entropy_bounds(length)
        return (desc, part.size_a, length, stats.n1, stats.n2, stats.n3, s_bits,
                closed, lower, upper, oracle_s)

    def entropy(part):
        return entropy_equal_superposition(group, part).s_bits

    def exhaustive_rows():
        s_bits = _paired_entropy(group, n)  # the engine once per pair
        for mask, desc in _descriptor_walk(n):
            part = Partition(n, mask)
            yield row(desc, part, _try_stats(lat, part), None, s_bits(part))

    def link_rows(masks):
        for mask in masks:
            part = Partition(n, mask)
            desc = "links:" + lat.link_list(mask)
            yield row(desc, part, _try_stats(lat, part), None, entropy(part))

    def region_rows(sample, rng):
        for _ in range(args.count):
            part, stats, loop = sample(lat, rng)
            desc = "loop:" + lat.link_list(loop)
            yield row(desc, part, stats, float(geometric_entropy(stats)), entropy(part))

    def table1_rows(k):
        for name in ("single_spin", "chain", "ladder", "cross", "vertical"):
            part = named_partition(lat, name)
            closed = closed_form_entropy(name, k)
            yield row(name, part, _try_stats(lat, part), closed, entropy(part))
        side = 2 if k >= 4 else 1
        part, stats, _ = disk_region(lat, rect=(0, 0, side, side))
        desc = f"rect:0,0,{side},{side}"
        yield row(desc, part, stats, float(geometric_entropy(stats)), entropy(part))

    if mode == "exhaustive":
        bipartition_masks(n, max_links=args.scan_cap)  # only for its link cap
        return exhaustive_rows()
    if mode == "sampled":
        _require_count_seed(args)
        masks = bipartition_masks(
            n, mode, count=args.count, seed=args.seed, max_links=args.scan_cap
        )
        return link_rows(masks)
    if mode in ("rects", "disks"):
        _require_count_seed(args)
        sample = random_rectangle_region if mode == "rects" else random_simple_region
        return region_rows(sample, random.Random(args.seed))
    if mode == "table1":
        if lat.torus_k is None:
            raise ValueError("table1 mode needs a torus lattice")
        return table1_rows(lat.torus_k)
    raise ValueError(f"unknown scan mode {mode!r}")


def _descriptor_walk(n: int):
    """Yield (mask, ``links:`` descriptor) for every proper side A of ``n``
    links, in the order of the sorted descriptors.

    A descriptor lists A's links ascending, and ``,`` sorts below every
    digit, so that order is a depth-first walk over ascending link lists
    which yields each list before its extensions and tries the next link
    in the string order of its name (0, 1, 10, 11, ..., 2, ...).  Each
    descriptor is its parent's plus one ``,<name>``, and the full mask is
    skipped.
    """
    names = [str(link) for link in range(n)]
    order = sorted(range(n), key=names.__getitem__)
    # the links that may follow each link, reversed: the stack pops them
    # in string order
    later = [
        [(1 << c, "," + names[c], c) for c in reversed(order) if c > link]
        for link in range(n)
    ]
    full = (1 << n) - 1
    stack = [(1 << c, "links:" + names[c], c) for c in reversed(order)]
    while stack:
        mask, desc, last = stack.pop()
        if mask != full:
            yield mask, desc
        stack.extend((mask | bit, desc + tail, c) for bit, tail, c in later[last])


def _paired_entropy(group, n: int):
    """``S_bits`` of a proper partition of ``n`` links, from the engine once
    per complement pair.

    S(A) = S(B), so a pair has one memo byte, at the mask of the side with
    link n - 1 clear.  The byte holds S + 1, and 0 marks a pair not yet
    evaluated, so any order of queries gives the engine's values.
    """
    full = (1 << n) - 1
    half = (1 << n) >> 1
    memo = bytearray(half)

    def s_bits(part: Partition) -> int:
        mask = part.a_mask
        key = mask if mask < half else full ^ mask
        s = memo[key]
        if not s:
            s = memo[key] = entropy_equal_superposition(group, part).s_bits + 1
        return s - 1

    return s_bits


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


def _scan_oracle(args, lat):
    """The oracle's entropy of a scan row's partition, once per distinct
    partition: drawn regions on small tori repeat.  The state is built on
    the first row, after the mode's own input checks."""
    state = support = None
    memo: dict[int, float] = {}  # a_mask -> oracle_S

    def oracle_s(part: Partition) -> float:
        nonlocal state, support
        if state is None:
            state, support = _scan_oracle_state(args, lat)
        s = memo.get(part.a_mask)
        if s is None:
            s = memo[part.a_mask] = _oracle_entropy(args, state, part, support)
        return s

    return oracle_s


def _scan_oracle_state(args, lat):
    """The scan's oracle state and its support.

    An exhaustive scan keeps up to n - 1 links on one side, so over
    ``--max-subsystem`` it exits here, before any partial trace: it asks
    for the first row over the cap in mask order, ``max(cap, 0) + 1``
    links wide, whose trace raises the cap's error before any work.
    """
    from . import oracle

    state = _oracle_state(args, lat, GroundStateCoeffs.xi(0, 0))
    support = oracle.support(state)
    n, cap = lat.n_links, args.max_subsystem
    if args.mode == "exhaustive" and n - 1 > cap:
        _oracle_entropy(args, state, Partition(n, (1 << max(cap + 1, 1)) - 1), support)
    return state, support


def cmd_scan(args) -> int:
    """Print the scan's rows sorted by descriptor.

    Exhaustive rows are made in that order, so CSV and JSON write them as
    they come, in blocks of at most `BLOCK_CHARS` characters: memory is
    the pair memo of `_paired_entropy`, 2**(n-1) bytes, plus one block.
    Table output, which needs its column widths first, every ``--oracle``
    scan and the drawn modes hold all rows before writing, so that an
    error leaves stdout empty; an exhaustive table at the 24-link cap
    still needs gigabytes, a known limit.
    """
    lat = parse_lattice_spec(args.lattice)
    group = plaquette_group(lat) if args.group == "plaquettes" else star_group(lat)
    rows = _scan_rows(args, lat, group)
    if args.mode != "exhaustive":
        rows = sorted(rows, key=lambda row: row[0])
    elif args.oracle:
        rows = list(rows)  # an oracle cap on any row leaves stdout empty
    if args.format == "json":
        fixed = {
            "command": "scan",
            "mode": args.mode,
            "lattice": args.lattice,
            "seed": args.seed,
            "count": args.count,
        }
        emit_rows_json(fixed, rows, sys.stdout)
    elif args.format == "table":
        emit_rows_table(rows, sys.stdout)
    else:
        emit_rows_csv(rows, sys.stdout)
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
    p.add_argument("--tol", type=float, default=1e-9)
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
