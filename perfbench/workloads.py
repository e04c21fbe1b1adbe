"""The benchmark's workloads: the flipent CLI invocations each one runs, and
the checks every invocation's stdout must pass.

A check takes the raw stdout bytes and raises ``CheckFailed`` when the
output is wrong. Every check holds for any seed. The harness runs each check
in its own process::

    python3 perfbench/workloads.py WORKLOAD SEED INDEX STDOUT-FILE

which exits 1 and prints the reason when invocation INDEX of the workload
printed a wrong STDOUT-FILE.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: seed of the seeded workloads when ``--seed`` is not given
DEFAULT_SEED = 1

#: stdout digest of ``scan --lattice torus:k=3 --mode exhaustive``; the scan
#: output is byte-identical by design and takes no seed
SWEEP_K3_SHA256 = "09f832bba38f887e7ec9aec537d3de0389b680b62695413ba6266cff28ce134a"

DISK_COUNT = 1000
RECT_COUNT = 100
ORACLE_TOL = 1e-9
CSV_COLUMNS = [
    "partition", "size_A", "L", "n1", "n2", "n3", "S_bits", "S_closed_form",
    "lower_bound", "upper_bound", "oracle_S",
]


class CheckFailed(Exception):
    """An invocation's stdout is not what a correct program prints."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call; it must exit 0 and its stdout must pass ``check``."""

    argv: tuple[str, ...]
    check: Callable[[bytes], None]


@dataclass(frozen=True)
class Workload:
    name: str
    #: torus size of the largest lattice, built by the set-up probe
    largest_k: int
    #: partitions evaluated per run, the base of the throughput figure
    partitions: int
    invocations: Callable[[int], list[Invocation]]
    #: traced functions this workload must call; zero calls fails the trace
    uses: tuple[str, ...]


# ---------------------------------------------------------------------------
# output checks

def _csv_rows(data: bytes) -> list[dict[str, str]]:
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise CheckFailed(f"unexpected CSV header {header!r}")
    return [dict(zip(header, row)) for row in reader]


def _expect_rows(rows: list, count: int) -> None:
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} rows, expected {count}")


def _links_mask(descriptor: str) -> int:
    if not descriptor.startswith("links:"):
        raise CheckFailed(f"unexpected partition descriptor {descriptor!r}")
    return sum(1 << int(link) for link in descriptor[6:].split(","))


def check_sweep(data: bytes) -> None:
    """Every proper bipartition of the 18 links of the k=3 torus once,
    S(A) = S(complement), and the recorded digest.

    The recorded output passed the row checks, so a matching digest implies
    them; they run only to say what is wrong with an output that differs."""
    digest = hashlib.sha256(data).hexdigest()
    if digest == SWEEP_K3_SHA256:
        return
    full = (1 << 18) - 1
    rows = _csv_rows(data)
    _expect_rows(rows, full - 1)
    s_by_mask = {_links_mask(r["partition"]): r["S_bits"] for r in rows}
    if len(s_by_mask) != len(rows):
        raise CheckFailed("a bipartition appears twice")
    for mask, s in s_by_mask.items():
        if s_by_mask.get(full ^ mask) != s:
            raise CheckFailed(f"S(A) != S(complement) for mask 0x{mask:x}")
    raise CheckFailed(f"stdout sha256 {digest} differs from the recorded one")


def check_disks(data: bytes, count: int = DISK_COUNT) -> None:
    """The rank engine matches sigma_AB - 1 and the boundary-law bounds."""
    rows = _csv_rows(data)
    _expect_rows(rows, count)
    for r in rows:
        s = int(r["S_bits"])
        if float(r["S_closed_form"]) != s:
            raise CheckFailed(f"S_bits {s} != S_closed_form {r['S_closed_form']}")
        if not float(r["lower_bound"]) <= s <= float(r["upper_bound"]):
            raise CheckFailed(f"S_bits {s} outside [{r['lower_bound']}, {r['upper_bound']}]")


def check_oracle_rows(data: bytes, count: int) -> None:
    """The statevector oracle agrees with the rank engine on every row."""
    rows = _csv_rows(data)
    _expect_rows(rows, count)
    for r in rows:
        if not r["oracle_S"]:
            raise CheckFailed(f"row {r['partition']!r} has no oracle value")
        if abs(float(r["oracle_S"]) - int(r["S_bits"])) > ORACLE_TOL:
            raise CheckFailed(
                f"oracle_S {r['oracle_S']} != S_bits {r['S_bits']} on {r['partition']!r}"
            )


def check_verify(data: bytes, cases: int = 254) -> None:
    """``verify`` at k=2 passes all 254 bipartitions."""
    last = data.decode().rstrip("\n").rsplit("\n", 1)[-1]
    if not re.fullmatch(rf"{cases}/{cases} passed, max deviation \S+", last):
        raise CheckFailed(f"unexpected verify summary {last!r}")


def _fields(data: bytes) -> dict[str, str]:
    out = {}
    for line in data.decode().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _expect_field(fields: dict[str, str], key: str, value: str) -> None:
    if fields.get(key) != value:
        raise CheckFailed(f"{key} is {fields.get(key)!r}, expected {value!r}")


def check_lattice_info(data: bytes, k: int) -> None:
    fields = _fields(data)
    _expect_field(fields, "star_rank", str(k * k - 1))
    _expect_field(fields, "ground_degeneracy", "4")


def check_cross(data: bytes, k: int) -> None:
    fields = _fields(data)
    _expect_field(fields, "size_A", str(2 * k))
    _expect_field(fields, "mismatch", "False")


def check_vertical_links(data: bytes, k: int) -> None:
    fields = _fields(data)
    _expect_field(fields, "S_bits", str((k - 1) ** 2))
    _expect_field(fields, "mismatch", "False")


# ---------------------------------------------------------------------------
# workloads

def _sweep_k3(seed: int) -> list[Invocation]:
    return [
        Invocation(
            ("scan", "--lattice", "torus:k=3", "--mode", "exhaustive"), check_sweep
        )
    ]


def _disks_k32(seed: int) -> list[Invocation]:
    argv = ("scan", "--lattice", "torus:k=32", "--mode", "disks",
            "--count", str(DISK_COUNT), "--seed", str(seed))
    return [Invocation(argv, check_disks)]


def _oracle_k3(seed: int) -> list[Invocation]:
    rects = ("scan", "--lattice", "torus:k=3", "--mode", "rects",
             "--count", str(RECT_COUNT), "--seed", str(seed), "--oracle")
    table1 = ("scan", "--lattice", "torus:k=3", "--mode", "table1", "--oracle")
    return [
        Invocation(rects, lambda d: check_oracle_rows(d, RECT_COUNT)),
        Invocation(table1, lambda d: check_oracle_rows(d, 6)),
        Invocation(("verify", "--lattice", "torus:k=2"), check_verify),
    ]


def _torus_k48(seed: int, k: int = 48) -> list[Invocation]:
    lattice = f"torus:k={k}"
    # The vertical cut spelled as explicit links: the engine's costliest cut
    # shape, without the documented closed-form mismatch of ``vertical``
    # (which exits 1 on purpose).
    vertical = "links:" + ",".join(str(l) for l in range(k * k, 2 * k * k))
    return [
        Invocation(("lattice-info", "--lattice", lattice),
                   lambda d: check_lattice_info(d, k)),
        Invocation(("entropy", "--lattice", lattice, "--partition", "cross"),
                   lambda d: check_cross(d, k)),
        Invocation(("entropy", "--lattice", lattice, "--partition", vertical),
                   lambda d: check_vertical_links(d, k)),
    ]


_CORE = (
    "cli.main",
    "lattice.build_torus",
    "lattice.validate_lattice",
    "lattice.star_group",
    "gf2.Gf2Matrix.rank",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-k3", 3, (1 << 18) - 2, _sweep_k3,
            _CORE + ("cli.cmd_scan", "cli.emit_rows_csv", "lattice.boundary_stats",
                     "engine.entropy_equal_superposition",
                     "gf2.Gf2Matrix.restricted_rank"),
        ),
        Workload(
            "disks-k32", 32, DISK_COUNT, _disks_k32,
            _CORE + ("cli.cmd_scan", "cli.emit_rows_csv",
                     "lattice.random_simple_region", "lattice.region_from_sites",
                     "lattice.boundary_stats", "engine.geometric_entropy",
                     "engine.entropy_equal_superposition",
                     "gf2.Gf2Matrix.restricted_rank"),
        ),
        Workload(
            "oracle-k3", 3, RECT_COUNT + 6 + 254, _oracle_k3,
            _CORE + ("cli.cmd_scan", "cli.cmd_verify",
                     "lattice.random_rectangle_region", "lattice.disk_region",
                     "oracle.oracle_entropy", "oracle.build_ground_state",
                     "oracle.reduced_density_matrix", "oracle.von_neumann_entropy",
                     "verify.default_suite", "verify.verify_partitions"),
        ),
        Workload(
            "torus-k48", 48, 2, _torus_k48,
            _CORE + ("cli.cmd_lattice_info", "cli.cmd_entropy",
                     "lattice.plaquette_group", "lattice.named_partition",
                     "lattice.Lattice.star_masks", "lattice.Lattice.plaquette_masks",
                     "engine.ground_degeneracy", "engine.independent_generator_count",
                     "engine.entropy_equal_superposition"),
        ),
    )
}


def main(argv: list[str]) -> int:
    name, seed, index, stdout_path = argv
    inv = WORKLOADS[name].invocations(int(seed))[int(index)]
    try:
        inv.check(Path(stdout_path).read_bytes())
    except (CheckFailed, ValueError, KeyError) as exc:  # unparsable output fails too
        print(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
