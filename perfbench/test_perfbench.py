"""Tests of the benchmark itself: each output check rejects a corrupted
output, and the harness prints the names that BENCHMARK.json declares.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from workloads import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS_DOC = json.loads((Path(__file__).parent / "layers.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(*argv: str) -> bytes:
    return subprocess.run(
        [sys.executable, "-m", "flipent.cli", *argv],
        env=ENV, capture_output=True, check=True,
    ).stdout


def bump_digit(text: str) -> str:
    """Change the last digit of a number: 7 -> 8, 9 -> 0."""
    return text[:-1] + str((int(text[-1]) + 1) % 10)


def corrupt_csv(data: bytes, column: str, row: int = 0) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index(column)
    rows[row + 1][col] = bump_digit(rows[row + 1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def corrupt_field(data: bytes, key: str) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(f"{key}: "):
            lines[i] = bump_digit(line.rstrip("\n")) + "\n"
    return "".join(lines).encode()


@pytest.fixture(scope="module")
def sweep_output() -> bytes:
    return cli("scan", "--lattice", "torus:k=3", "--mode", "exhaustive")


def test_sweep_check(sweep_output):
    workloads.check_sweep(sweep_output)
    with pytest.raises(CheckFailed, match="complement"):
        workloads.check_sweep(corrupt_csv(sweep_output, "S_bits", row=5))
    # a column no row check reads is still covered by the digest
    with pytest.raises(CheckFailed, match="sha256"):
        workloads.check_sweep(corrupt_csv(sweep_output, "upper_bound", row=5))


def test_disks_check():
    data = cli("scan", "--lattice", "torus:k=12", "--mode", "disks",
               "--count", "20", "--seed", "5")
    workloads.check_disks(data, 20)
    with pytest.raises(CheckFailed, match="S_closed_form"):
        workloads.check_disks(corrupt_csv(data, "S_bits", row=3), 20)
    with pytest.raises(CheckFailed, match="rows"):
        workloads.check_disks(data, 21)


def test_oracle_rows_check():
    data = cli("scan", "--lattice", "torus:k=3", "--mode", "table1", "--oracle")
    workloads.check_oracle_rows(data, 6)
    with pytest.raises(CheckFailed, match="oracle_S"):
        workloads.check_oracle_rows(corrupt_csv(data, "S_bits", row=2), 6)


def test_verify_check(tmp_path):
    data = cli("verify", "--lattice", "torus:k=2")
    workloads.check_verify(data)
    bad = data.replace(b"254/254", b"253/254")
    with pytest.raises(CheckFailed):
        workloads.check_verify(bad)
    # the harness's form: one process per check, exit 1 with the reason
    for output, code in ((data, 0), (bad, 1)):
        path = tmp_path / "verify.out"
        path.write_bytes(output)
        proc = subprocess.run(
            [sys.executable, "perfbench/workloads.py", "oracle-k3", "1", "2", str(path)],
            cwd=ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert ("verify summary" in proc.stdout) == bool(code)


def test_torus_checks():
    k = 6
    invocations = workloads._torus_k48(seed=0, k=k)
    for inv, key in zip(invocations, ("star_rank", "size_A", "S_bits")):
        data = cli(*inv.argv)
        inv.check(data)
        with pytest.raises(CheckFailed, match=key):
            inv.check(corrupt_field(data, key))


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19).startswith("no percentile")
    assert run.tail([float(i) for i in range(1, 21)]) == "p50 10.0000 s"
    assert run.tail([float(i) for i in range(1, 101)]) == "p90 90.0000 s"


def test_reference_speed():
    """A child's host speed comes from the reference chunks of each kind
    that ended while it ran, or from the nearest ones when too few did."""
    ref = run.Reference()
    slow = range(40, 61)
    ref.chunks = [
        [(float(t), run.REF_CHUNK_S * (2 if t in slow else 1)) for t in range(100)],
        [(t + 0.5, run.REF_CHUNK_S * (8 if t in slow else 1)) for t in range(100)],
    ]
    child = run.Child(exit=0, start=40.0, end=60.0, cpu_s=3.0, peak_rss_mb=1.0)
    assert ref.speed(child) == pytest.approx(4.0)  # sqrt(2 * 8)
    short = run.Child(exit=0, start=10.0, end=10.2, cpu_s=3.0, peak_rss_mb=1.0)
    assert ref.speed(short) == pytest.approx(1.0)


def test_reference_loop_stops_on_sigterm():
    with run.Reference() as ref:
        pass
    assert ref.proc.returncode == 0
    assert len(ref.chunks) == 2


def test_names_match_benchmark_json():
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}
    # layers.json maps every declared per-layer metric to declared names
    assert set(LAYERS_DOC["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for doc in LAYERS_DOC["metrics"].values():
        for metric, names in doc["moves"].items():
            assert metric in {m["name"] for m in BENCH["end_to_end"]}
            assert set(names) <= set(workloads.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_result(trace, section):
    proc = bench("--workload", "oracle-k3", "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "seed 3" in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-k3", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
