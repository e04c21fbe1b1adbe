"""Benchmark harness for the flipent CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

These four options are the benchmark's command line as ``BENCHMARK.json``
declares it: a run is started with all four given, ``--seconds`` set to the
file's ``run_seconds``, which is also its default here.

One client, closed loop: each run of a workload starts its CLI invocations
one after another, each in its own child process (``python3 -m
flipent.cli`` with ``src`` on ``PYTHONPATH``), so at most one child runs at a
time. Every child is pinned to one CPU (the last the harness may use); the
harness and the output checks keep to the others. Runs repeat until
starting another would end past ``--seconds``; at least two runs are made.
Every child's stdout goes to a file and is checked (see ``workloads.py``);
a wrong exit code, a timeout or a failed check is a failed invocation.

``--trace 0`` reports the end-to-end metrics. While a run's children work,
the reference loop of ``reference.py`` runs beside them on their CPU at a
low priority, and each child's CPU time (from ``os.wait4``) is scaled by
how fast the reference ran during that child: ``run_s`` is the median over
the window of a run's scaled CPU time, in seconds at the speed at which
one reference chunk takes ``REF_CHUNK_S``. ``setup_s`` is the median scaled
CPU time of several set-up probes (a child that imports ``flipent.cli``,
builds the workload's largest lattice and ranks its star group), and
``peak_rss_mb`` the largest per-child peak RSS, taken from ``os.wait4`` so
that one child's peak is never charged to another. Raw wall and CPU times
are printed beside them.

``--trace 1`` alternates an untraced run with a traced one, in which each
invocation runs in process under ``traced_cli.py``, and reports the
per-layer metrics listed in ``layers.json``. No reference runs then, so the
spans time the program alone. The aggregated trace is written to
``.perfbench-out/trace-<workload>.json`` and the raw spans beside it.

For each workload, human-readable lines come first and then one JSON line
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with a
single workload that line is the last line of stdout. ``--workload all``
runs the four workloads one after another. Without ``src/flipent`` the
harness exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from traced_cli import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"
WORKLOADS_PY = HERE / "workloads.py"
REFERENCE_PY = HERE / "reference.py"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCH["run_seconds"]
CHILD_TIMEOUT_S = 120
SETUP_MIN_PROBES = 3
SETUP_SECONDS = 3.0
MIN_RUNS = 2
IMPORT_REPEATS = 5

#: CPU time of either kind of reference chunk that ``run_s`` and
#: ``setup_s`` are expressed at; about what a chunk takes beside a child
#: when the host is quick
REF_CHUNK_S = 0.001
#: fewest reference chunks of each kind that a child's speed is taken from
MIN_CHUNKS = 6

CPUS = sorted(os.sched_getaffinity(0))
CHILD_CPU = CPUS[-1]
HARNESS_CPUS = set(CPUS[:-1]) or {CHILD_CPU}

# One child on one CPU: no numerical library may start threads of its own.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

SETUP_CODE = """\
import sys
import flipent.cli
from flipent.lattice import build_torus, star_group
star_group(build_torus(int(sys.argv[1]))).rank()
"""
IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import flipent.cli
print(time.perf_counter() - t0)
"""

# The metric names and units are the ones BENCHMARK.json declares.
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

REGION_FUNCTIONS = (
    "lattice.region_from_sites",
    "lattice.disk_region",
    "lattice.random_rectangle_region",
    "lattice.random_simple_region",
    "lattice.rect_dual_loop",
)
EMIT_FUNCTIONS = ("cli.emit_json", "cli.emit_rows_csv", "cli.emit_rows_table")


@dataclass
class Child:
    exit: int | None
    start: float
    end: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Run:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scaled_s: float = 0.0
    speed: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    stdout_bytes: int = 0
    summaries: list[dict] = field(default_factory=list)


def _pin_child() -> None:
    os.sched_setaffinity(0, {CHILD_CPU})


def run_child(cmd: list[str], stdout_path: Path, stderr_path: Path) -> Child:
    """Run one child on the child CPU to completion; CPU time and peak RSS
    come from its own rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT,
                                preexec_fn=_pin_child)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode if exited else None, t0, t1,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Reference:
    """``reference.py`` on the child CPU for as long as the block lasts.

    After the block, ``speed(child)`` says how slow the host was while the
    child ran: for each kind of chunk, the mean CPU time of the chunks that
    ended within the child's run over ``REF_CHUNK_S``, and then the
    geometric mean of the two. It is 1 on a quick host and 2 when the CPU
    ran at half that speed."""

    def __enter__(self) -> Reference:
        self.proc = subprocess.Popen([sys.executable, str(REFERENCE_PY), str(CHILD_CPU)],
                                     stdout=subprocess.PIPE)
        if self.proc.stdout.read(1) != b"r":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("the reference loop did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            data, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        records = array("d")
        records.frombytes(data[: len(data) // 24 * 24])
        ends, cpus, kinds = records[0::3], records[1::3], records[2::3]
        self.chunks = [[(e, c) for e, c, k in zip(ends, cpus, kinds) if k == kind]
                       for kind in (0.0, 1.0)]

    def speed(self, child: Child) -> float:
        slowdowns = []
        for chunks in self.chunks:
            inside = [c for e, c in chunks if child.start <= e <= child.end]
            if len(inside) < MIN_CHUNKS:
                # a child too short for enough chunks: take the nearest ones
                mid = (child.start + child.end) / 2
                inside = [c for _, c in sorted(chunks, key=lambda ec: abs(ec[0] - mid))]
                inside = inside[:MIN_CHUNKS]
            if not inside:
                raise RuntimeError("the reference loop recorded no chunks")
            slowdowns.append(statistics.fmean(inside) / REF_CHUNK_S)
        return statistics.geometric_mean(slowdowns)


def run_workload(wl: Workload, seed: int, traced: bool = False,
                 reference: bool = False) -> Run:
    """One closed-loop pass over the workload's invocations, then the checks.

    With ``reference`` the pass runs beside the reference loop and its CPU
    time is scaled by it."""
    invocations = wl.invocations(seed)
    run = Run(attempted=len(invocations))
    children = []

    def pass_():
        for i, inv in enumerate(invocations):
            base = OUT / f"{wl.name}.{i}"
            if traced:
                cmd = [sys.executable, str(TRACED_CLI), f"{base}.summary.json",
                       f"{base}.spans.bin", *inv.argv]
            else:
                cmd = [sys.executable, "-m", "flipent.cli", *inv.argv]
            children.append(run_child(cmd, Path(f"{base}.out"), Path(f"{base}.err")))

    if reference:
        with Reference() as ref:
            pass_()
        speeds = [ref.speed(c) for c in children]
        run.scaled_s = sum(c.cpu_s / s for c, s in zip(children, speeds))
        run.speed = sum(c.cpu_s for c in children) / run.scaled_s
    else:
        pass_()
    run.wall_s = children[-1].end - children[0].start
    run.cpu_s = sum(c.cpu_s for c in children)
    for i, (inv, child) in enumerate(zip(invocations, children)):
        base = OUT / f"{wl.name}.{i}"
        run.peak_rss_mb = max(run.peak_rss_mb, child.peak_rss_mb)
        run.stdout_bytes += os.path.getsize(f"{base}.out")
        label = f"{wl.name} invocation {i} ({' '.join(inv.argv)[:80]})"
        if child.exit is None:
            run.failures.append(f"{label}: timed out after {CHILD_TIMEOUT_S} s")
            continue
        if child.exit != 0:
            err = Path(f"{base}.err").read_text(errors="replace").strip()[-300:]
            run.failures.append(f"{label}: exit {child.exit}: {err}")
            continue
        # A child's ru_maxrss starts at the high-water RSS of the process that
        # spawned it (exec inherits it), so the harness must never load a large
        # output itself: each check runs in a process of its own.
        try:
            check = subprocess.run(
                [sys.executable, str(WORKLOADS_PY), wl.name, str(seed), str(i), f"{base}.out"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            run.failures.append(f"{label}: output check timed out")
            continue
        if check.returncode != 0:
            run.failures.append(f"{label}: {(check.stdout or check.stderr).strip()[-300:]}")
            continue
        if traced:
            run.summaries.append(json.loads(Path(f"{base}.summary.json").read_text()))
    return run


def probe(code: str, *args: str) -> Child:
    return run_child([sys.executable, "-c", code, *args],
                     OUT / "probe.out", OUT / "probe.err")


def measure_setup(wl: Workload) -> list[float]:
    """Scaled CPU seconds of each set-up probe: at least ``SETUP_MIN_PROBES``,
    and more while the probes have taken less than ``SETUP_SECONDS``."""
    children = []
    t0 = time.perf_counter()
    with Reference() as ref:
        while len(children) < SETUP_MIN_PROBES or time.perf_counter() - t0 < SETUP_SECONDS:
            child = probe(SETUP_CODE, str(wl.largest_k))
            if child.exit != 0:
                raise RuntimeError(f"set-up probe failed: {(OUT / 'probe.err').read_text()}")
            children.append(child)
    return [c.cpu_s / ref.speed(c) for c in children]


def measure_import() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        if probe(IMPORT_CODE).exit != 0:
            raise RuntimeError(f"import probe failed: {(OUT / 'probe.err').read_text()}")
        times.append(float((OUT / "probe.out").read_text()))
    return statistics.median(times)


def tail(values: list[float]) -> str:
    """The highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for permille in (999, 990, 900, 500):
        if n * (1000 - permille) >= 10 * 1000:
            rank = math.ceil(permille * n / 1000)
            return f"p{permille / 10:g} {sorted(values)[rank - 1]:.4f} s"
    return f"no percentile has ten samples beyond it in {n} runs"


# ---------------------------------------------------------------------------
# per-layer metrics from traced runs

def aggregate(summaries: list[dict]) -> dict:
    """Sum the per-invocation traces of one traced run."""
    agg = {"calls": {}, "self_s": {}, "total_s": {}, "spans": 0,
           "verify_cases": 0, "state_bytes": 0, "rho_bytes": 0, "numpy_imported": 0}
    for s in summaries:
        for key in ("calls", "self_s", "total_s"):
            for name, value in s[key].items():
                agg[key][name] = agg[key].get(name, 0) + value
        agg["spans"] += s["spans"]
        agg["verify_cases"] += s["verify_cases"]
        for key in ("state_bytes", "rho_bytes", "numpy_imported"):
            agg[key] = max(agg[key], s[key])
    return agg


def layer_self(agg: dict, layer: str) -> float:
    return sum(v for n, v in agg["self_s"].items() if n.startswith(layer + "."))


def per_layer_metrics(agg: dict, stdout_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, except the two taken outside
    it (``flipent.import_s`` and ``trace_overhead``).

    A ``_s`` metric is self time: a span's duration minus its child spans,
    summed over the listed functions; a layer's ``self_s`` sums it over all
    of the layer's functions. ``engine.degeneracy_s`` is the one inclusive
    time: it includes the symplectic rank it runs.
    """
    calls, self_s, total_s = agg["calls"], agg["self_s"], agg["total_s"]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    return {
        "lattice.validate_s": s("lattice.validate_lattice"),
        "lattice.mask_builds": c("lattice.Lattice.star_masks", "lattice.Lattice.plaquette_masks"),
        "lattice.region_s": s(*REGION_FUNCTIONS),
        "lattice.region_calls": c("lattice.region_from_sites"),
        "lattice.boundary_stats_s": s("lattice.boundary_stats"),
        "lattice.boundary_stats_calls": c("lattice.boundary_stats"),
        "lattice.self_s": layer_self(agg, "lattice"),
        "gf2.rank_s": s("gf2.Gf2Matrix.rank"),
        "gf2.rank_calls": c("gf2.Gf2Matrix.rank"),
        "gf2.restricted_rank_s": s("gf2.Gf2Matrix.restricted_rank"),
        "gf2.restricted_rank_calls": c("gf2.Gf2Matrix.restricted_rank"),
        "gf2.self_s": layer_self(agg, "gf2"),
        "engine.entropy_s": s("engine.entropy_equal_superposition"),
        "engine.entropy_calls": c("engine.entropy_equal_superposition"),
        "engine.degeneracy_s": total_s.get("engine.ground_degeneracy", 0.0),
        "engine.self_s": layer_self(agg, "engine"),
        "oracle.state_build_s": s("oracle.build_ground_state"),
        "oracle.state_builds": c("oracle.build_ground_state"),
        "oracle.partial_trace_s": s("oracle.reduced_density_matrix"),
        "oracle.partial_trace_calls": c("oracle.reduced_density_matrix"),
        "oracle.eig_s": s("oracle.von_neumann_entropy", "oracle.reduced_spectrum"),
        "oracle.state_bytes": agg["state_bytes"],
        "oracle.rho_bytes": agg["rho_bytes"],
        "oracle.self_s": layer_self(agg, "oracle"),
        "verify.s": layer_self(agg, "verify"),
        "verify.cases": agg["verify_cases"],
        "cli.self_s": layer_self(agg, "cli"),
        "cli.emit_s": s(*EMIT_FUNCTIONS),
        "cli.stdout_bytes": stdout_bytes,
        "flipent.numpy_imported": agg["numpy_imported"],
    }


def layer_shares(agg: dict, traced_wall: float) -> dict[str, float]:
    """Each layer's self time, and the time outside ``cli.main`` (interpreter
    start, imports, process exit), as shares of the traced wall time."""
    shares = {layer: layer_self(agg, layer) / traced_wall for layer in LAYERS}
    shares["outside_main"] = 1 - agg["total_s"].get("cli.main", 0.0) / traced_wall
    return shares


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    p = argparse.ArgumentParser(description="flipent benchmark harness")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed of the seeded workloads (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measurement window; runs stop when the next would end past it, "
                        f"after at least {MIN_RUNS} (default {RUN_SECONDS}, the "
                        "run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(wl: Workload, seed: int, seconds: float, traced: bool) -> list[tuple[Run, Run | None]]:
    """Closed loop of runs within the window, and at least ``MIN_RUNS`` of
    them, so that no statistic of a window rests on a single run: scaled
    runs, or untraced then traced runs without the reference."""
    pairs = []
    t0 = time.perf_counter()
    while True:
        plain = run_workload(wl, seed, reference=not traced)
        pairs.append((plain, run_workload(wl, seed, traced=True) if traced else None))
        cost = statistics.median(
            p.wall_s + (t.wall_s if t else 0.0) for p, t in pairs
        )
        if len(pairs) >= MIN_RUNS and time.perf_counter() - t0 + cost > seconds:
            return pairs


def result_line(runs: list[Run], metrics: dict[str, float], units: dict[str, str],
                extra_failures: list[str] = ()) -> str:
    failures = [f for r in runs for f in r.failures]
    for msg in [*failures, *extra_failures]:
        print(f"FAILED: {msg}", file=sys.stderr)
    return json.dumps({
        "correct": not failures and not extra_failures,
        "attempted": sum(r.attempted for r in runs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def report_end_to_end(wl: Workload, seed: int, seconds: float) -> None:
    setup = measure_setup(wl)
    runs = [plain for plain, _ in measure(wl, seed, seconds, traced=False)]
    walls = [r.wall_s for r in runs]
    wall = statistics.median(walls)
    failed = sum(len(r.failures) for r in runs)
    attempted = sum(r.attempted for r in runs)
    metrics = {
        "run_s": statistics.median(r.scaled_s for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
    }
    print(f"run_s        median {metrics['run_s']:.4f} s of {len(runs)} runs  "
          f"throughput {wl.partitions / metrics['run_s']:.1f} partitions/s")
    print(f"  raw        wall median {wall:.4f} s  tail: {tail(walls)}  "
          f"cpu median {statistics.median(r.cpu_s for r in runs):.4f} s  "
          f"per run: scaled {' '.join(f'{r.scaled_s:.3f}' for r in runs)}  "
          f"host speed {' '.join(f'{r.speed:.3f}' for r in runs)}")
    print(f"setup_s      median {metrics['setup_s']:.4f} s of {len(setup)} probes")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB (largest child)")
    print(f"fail_rate    {failed}/{attempted} = {failed / attempted:.4g}")
    print(result_line(runs, metrics, END_TO_END))


def report_per_layer(wl: Workload, seed: int, seconds: float) -> None:
    import_s = measure_import()
    pairs = measure(wl, seed, seconds, traced=True)
    runs = [r for pair in pairs for r in pair]
    aggs = [aggregate(traced.summaries) for _, traced in pairs]
    per_run = [per_layer_metrics(a, t.stdout_bytes) for a, (_, t) in zip(aggs, pairs)]
    shares = [layer_shares(a, t.wall_s) for a, (_, t) in zip(aggs, pairs)]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["flipent.import_s"] = import_s
    # CPU time, so that waiting is no part of it; yet the host's speed can
    # drift between the halves of a pair, and the ratios printed below show
    # how far.
    ratios = [t.cpu_s / p.cpu_s for p, t in pairs]
    metrics["trace_overhead"] = statistics.median(ratios)
    share = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
    agg = aggs[-1]
    missing = [f"traced run recorded no call of {n}"
               for n in wl.uses if agg["calls"].get(n, 0) == 0]
    for name, unit in PER_LAYER.items():
        print(f"{name:30s} {metrics[name]:.6g} {unit}")
    print("trace_overhead per pair: " + " ".join(f"{r:.3f}" for r in ratios))
    print("self-time shares of the traced wall time: "
          + "  ".join(f"{k} {v:.1%}" for k, v in share.items()))
    (OUT / f"trace-{wl.name}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "metrics": metrics,
         "trace_overhead_pairs": ratios, "shares": share, "trace": agg}, indent=1))
    print(result_line(runs, metrics, PER_LAYER, missing))


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so that every child and the
    # reference loop are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "flipent" / "cli.py").is_file():
        print(f"error: no flipent sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.sched_setaffinity(0, HARNESS_CPUS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(f"workload {name}  seed {args.seed}  window {args.seconds:g} s  "
              f"trace {args.trace}  nproc {os.cpu_count()}  python {sys.version.split()[0]}")
        report = report_per_layer if args.trace else report_end_to_end
        report(WORKLOADS[name], args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
