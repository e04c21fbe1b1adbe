import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from importlib import resources
from pathlib import Path

import flipent
from flipent import (
    Gf2Matrix,
    GroundStateCoeffs,
    Partition,
    bipartition_masks,
    entropy_equal_superposition,
    named_partition,
    plaquette_group,
    star_group,
)
from flipent import cli, gf2
from flipent.cli import (
    CSV_COLUMNS,
    build_parser,
    emit_fields,
    emit_json,
    emit_rows_csv,
    emit_rows_table,
    main,
    parse_lattice_spec,
    parse_partition_spec,
    parse_state_spec,
)
from flipent.lattice import Lattice, boundary_stats, build_torus, lattice_to_document
from flipent.verify import default_suite, verify_partitions
from tests.test_lattice import reference_symmetries


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    ref = resources.files("flipent") / "schemas" / name
    return json.loads(ref.read_text())


class TestSpecParsers:
    def test_partition_grammar(self, torus_k3):
        for spec, size in [
            ("chain", 3),
            ("ladder", 3),
            ("cross", 6),
            ("vertical", 9),
            ("spin:4", 1),
            ("pair:0,9", 2),
            ("links:0,1,2", 3),
            ("rect:0,0,1,1", 4),
        ]:
            parsed = parse_partition_spec(torus_k3, spec)
            assert parsed.partition.size_a == size

    def test_loop_spec_round_trip(self, torus_k3):
        rect = parse_partition_spec(torus_k3, "rect:1,1,1,1")
        loop_ids = ",".join(map(str, rect.partition.a_links()))
        loop = parse_partition_spec(torus_k3, f"loop:{loop_ids}")
        assert loop.partition == rect.partition

    def test_bad_partition_specs(self, torus_k3):
        for spec in ("blob", "rect:1,1", "pair:3", "links:", "spin:99"):
            with pytest.raises(ValueError):
                parse_partition_spec(torus_k3, spec)

    @pytest.mark.parametrize("spec", ["spin:", "spin:1,2"])
    def test_spin_needs_one_link_exit_2(self, capsys, spec):
        code, out, err = run_cli(
            capsys, "entropy", "--lattice", "torus:k=3", "--partition", spec
        )
        assert code == 2
        assert out == ""
        assert err == "error: spin: needs exactly one link id\n"

    @pytest.mark.parametrize("kind", ["links", "loop"])
    @pytest.mark.parametrize("body", ["", ","])
    def test_empty_link_list_exit_2(self, capsys, kind, body):
        # refused by the parser: the loop check would report that an empty
        # loop splits the sites into 1 component
        code, out, err = run_cli(
            capsys, "entropy", "--lattice", "torus:k=3", "--partition", f"{kind}:{body}"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {kind}: needs at least one link id\n"

    def test_state_specs(self):
        _, c, basis = parse_state_spec("xi:1,0")
        assert basis and c.a10 == 1
        _, c, basis = parse_state_spec("coeffs:0.6,0,0.8j,0")
        assert not basis
        assert abs(c.a10 - 0.8j) < 1e-12
        _, c1, _ = parse_state_spec("random:7")
        _, c2, _ = parse_state_spec("random:7")
        assert c1 == c2

    def test_coeffs_norm_gate(self):
        # slightly off-normal input is renormalized, far-off is rejected
        parse_state_spec("coeffs:1.0000001,0,0,0")
        with pytest.raises(ValueError):
            parse_state_spec("coeffs:2,0,0,0")

    def test_nan_coeffs_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=3",
            "--partition", "chain",
            "--state", "coeffs:nan,0,0,0",
            "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: coefficient norm nan is too far from 1 to renormalize\n"
        )

    @pytest.mark.parametrize(
        "amps, norm",
        [("1e200,1e200,0,0", "1.414213562373095e+200"),
         ("1e308+1e308j,0,0,0", "1.4142135623730951e+308"),
         ("1e154,1e154,1e154,1e154", "2e+154")],
    )
    def test_huge_coeffs_exit_2(self, capsys, amps, norm):
        # a squared modulus past the float range was an OverflowError, exit 5;
        # a sum of squares past it was a norm of inf
        code, out, err = run_cli(
            capsys, "entropy", "--lattice", "torus:k=2", "--partition", "chain",
            "--state", f"coeffs:{amps}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: coefficient norm {norm} is too far from 1 to renormalize\n"


class TestEntropyCommand:
    def test_cross_k4(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=4",
            "--partition", "cross",
            "--state", "xi:0,0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["S_bits"] == 7
        assert payload["S"] == 7.0
        jsonschema.validate(payload, load_schema("entropy.schema.json"))

    def test_generic_chain_alpha_half(self, capsys):
        inv = 1 / 2**0.5
        code, out, _ = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=3",
            "--partition", "chain",
            "--state", f"coeffs:{inv},{inv},0,0",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["S"] == pytest.approx(3.0, abs=1e-12)

    def test_rect_disk_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=5",
            "--partition", "rect:1,1,2,2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["S_bits"] == 7
        assert payload["L"] == 8
        assert payload["S_geometric"] == 7

    def test_vertical_mismatch_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=3",
            "--partition", "vertical",
        )
        assert code == 1
        assert "disagree" in err

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=2",
            "--partition", "ladder",
            "--oracle",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_S"] == pytest.approx(2.0, abs=1e-9)

    def test_input_error_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--lattice", "torus:k=1", "--partition", "chain"
        )
        assert code == 2
        assert "error" in err

    def test_resource_cap_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "entropy",
            "--lattice", "torus:k=3",
            "--partition", "chain",
            "--oracle",
            "--max-links", "4",
        )
        assert code == 3

    def test_default_subsystem_cap_exit_3_before_allocating(self, capsys):
        # |A| = 13 is over the default cap of 12 links; its reduced matrix
        # would be 2**13 x 2**13 complex, 1 GiB
        links = ",".join(str(l) for l in range(13))
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys,
                "entropy",
                "--lattice", "torus:k=3",
                "--partition", f"links:{links}",
                "--oracle",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err == "error: subsystem of 13 links exceeds the 12-link cap\n"
        assert peak < 64 << 20  # the 2**18 state is 4 MiB

    @pytest.mark.parametrize(
        "argv, error, reason",
        [
            (
                ["entropy", "--partition", "chain"],
                MemoryError("Unable to allocate 4.00 GiB for an array"),
                "Unable to allocate 4.00 GiB for an array",
            ),
            (["scan", "--mode", "table1"], MemoryError(), "allocation failed"),
        ],
        ids=["entropy", "scan-bare"],
    )
    def test_memory_error_exit_3(self, capsys, monkeypatch, argv, error, reason):
        from flipent import oracle

        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(oracle, "oracle_entropy", out_of_memory)
        code, out, err = run_cli(
            capsys, argv[0], "--lattice", "torus:k=3", *argv[1:], "--oracle"
        )
        assert code == 3
        assert out == ""
        assert err == f"error: out of memory: {reason}\n"

    def test_unexpected_exception_exit_5(self, capsys, monkeypatch):
        # exit 1 means a mismatch, so a defect must not escape with it
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_lattice_info", broken)
        code, out, err = run_cli(capsys, "lattice-info", "--lattice", "torus:k=2")
        assert code == 5
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"

    def test_torus_size_cap_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "lattice-info", "--lattice", "torus:k=1000000"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: torus k=1000000 needs about")


class TestVerifyCommand:
    def test_k2_full_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--lattice", "torus:k=2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 254
        assert payload["max_deviation"] < 1e-9
        assert payload["passed"]

    def test_corrupted_generators_fail_with_name(self, torus_k2):
        stars = [int(m) for m in build_torus(2).star_masks()]
        stars[0] ^= 0b11  # break one generator
        bad = Gf2Matrix(stars, 8)
        results = verify_partitions(
            torus_k2,
            {"chain": named_partition(torus_k2, "chain")},
            GroundStateCoeffs.xi(0, 0),
            generators=bad,
        )
        assert not results[0].passed
        assert results[0].name == "chain"

    def test_k4_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--lattice", "torus:k=4")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_exit_2(self, capsys, tol):
        # exit 1 is kept for mismatches; a tolerance no row can meet is bad input
        code, out, err = run_cli(
            capsys, "verify", "--lattice", "torus:k=2", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --tol must be a finite number >= 0, got {float(tol)!r}\n"
        )

    def test_suite_contents_k3(self, torus_k3):
        suite = default_suite(torus_k3)
        assert set(suite) == {
            "single_spin",
            "chain",
            "ladder",
            "cross",
            "rect:0,0,1,1",
        }


class TestScanCommand:
    def test_exhaustive_k2_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--lattice", "torus:k=2", "--mode", "exhaustive"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("partition,size_A")
        assert len(lines) == 255  # header + all proper bipartitions
        s_values = [int(line.rsplit(",", 5)[1]) for line in lines[1:]]
        assert min(s_values) == 1

    def test_byte_identical_reruns(self, capsys):
        args = (
            "scan",
            "--lattice", "torus:k=6",
            "--mode", "disks",
            "--count", "10",
            "--seed", "3",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_disks_json_schema_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--lattice", "torus:k=8",
            "--mode", "disks",
            "--count", "25",
            "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("scan.schema.json"))
        for row in payload["rows"]:
            assert row["lower_bound"] <= row["S_bits"] <= row["upper_bound"]
            assert row["S_bits"] == row["S_closed_form"]

    def test_table1_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--lattice", "torus:k=6",
            "--mode", "table1",
            "--format", "json",
        )
        assert code == 0
        rows = {r["partition"]: r for r in json.loads(out)["rows"]}
        assert rows["chain"]["S_closed_form"] == 5.0
        assert rows["ladder"]["S_closed_form"] == 6.0
        assert rows["cross"]["S_closed_form"] == 11.0
        assert rows["vertical"]["S_closed_form"] == 35.0  # published value
        assert rows["vertical"]["S_bits"] == 25  # exact rank value
        assert rows["rect:0,0,2,2"]["S_bits"] == 7

    def test_sampled_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys,
            "scan",
            "--lattice", "torus:k=3",
            "--mode", "sampled",
            "--count", "5",
        )
        assert code == 2

    def test_exhaustive_cap_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "scan",
            "--lattice", "torus:k=4",
            "--mode", "exhaustive",
            "--scan-cap", "10",
        )
        assert code == 3


    @pytest.mark.parametrize("mode", ["sampled", "rects", "disks"])
    def test_count_over_row_budget_exit_3(self, capsys, mode):
        argv = ["scan", "--lattice", "torus:k=4", "--mode", mode, "--seed", "1",
                "--scan-cap", "4"]
        code, out, err = run_cli(capsys, *argv, "--count", "15")
        assert (code, out) == (3, "")
        assert "--count 15 exceeds the row budget 2**4 - 2" in err
        code, out, _ = run_cli(capsys, *argv, "--count", "14")
        assert code == 0
        assert len(out.splitlines()) == 15

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_small_scan_cap_refuses_every_count(self, capsys, cap):
        code, _, err = run_cli(
            capsys, "scan", "--lattice", "torus:k=4", "--mode", "rects",
            "--count", "1", "--seed", "1", "--scan-cap", cap,
        )
        assert code == 3
        assert f"2**{cap} - 2" in err

    def test_huge_scan_cap_builds_no_huge_int(self, capsys):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "scan", "--lattice", "torus:k=4", "--mode", "rects",
                "--count", "2", "--seed", "1", "--scan-cap", str(10**12),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 << 20

    def test_huge_sampled_count_exits_3_before_drawing(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(flipent.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["scan", "--lattice", "torus:k=3", "--mode", "sampled",
                "--count", "100000000000000", "--seed", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "flipent.cli", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: --count 100000000000000 exceeds the row budget 2**24 - 2 "
            "set by --scan-cap\n"
        )

    def test_sampled_on_a_linkless_lattice_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "one_site.lat"
        doc.write_text("LATTICE v1 open\nSITES\n0\nLINKS\nPLAQUETTES\n")
        code, out, err = run_cli(
            capsys, "scan", "--lattice", str(doc), "--mode", "sampled",
            "--count", "3", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: sampled mode needs at least 2 links, got 0\n"


SCAN_LATTICES = {
    "torus-k2": "torus:k=2",
    "cube": str(GOLDEN / "cube.lat"),
    "patch": str(GOLDEN / "patch.lat"),  # plaquette columns of weight 1
}
# the exhaustive scan's output variants: every format reads the same rows,
# and so does the oracle, which needs a torus
SCAN_VARIANTS = {
    **{name: (name, ()) for name in SCAN_LATTICES},
    **{
        f"{name}-{fmt}": (name, ("--format", fmt))
        for name in SCAN_LATTICES
        for fmt in ("json", "table")
    },
    "torus-k2-oracle": ("torus-k2", ("--oracle",)),
    "torus-k2-oracle-json": ("torus-k2", ("--oracle", "--format", "json")),
}


def symmetries(lat):
    """Every symmetry of the torus as a link permutation, built from site
    maps with `torus_h` and `torus_v`; off the torus, the identity alone."""
    if lat.torus_k is None:
        return [list(range(lat.n_links))]
    return reference_symmetries(lat.torus_k)


def images(perms, mask):
    return [sum(1 << p[l] for l in range(len(p)) if mask >> l & 1) for p in perms]


def assert_one_call_per_pair_orbit(lat, masks):
    """The engine was called on ``masks``: no complement pair twice, and
    exactly one pair of each symmetry orbit of pairs."""
    full = (1 << lat.n_links) - 1
    pairs = [min(m, full ^ m) for m in masks]
    assert len(set(pairs)) == len(pairs)  # no pair evaluated twice
    perms = symmetries(lat)

    def orbit(mask):
        return frozenset(min(m, full ^ m) for m in images(perms, mask))

    every = {orbit(m) for m in range(1, full)}
    assert sorted(map(orbit, pairs), key=min) == sorted(every, key=min)
    return len(pairs)


def direct_index(lat, group, tails, tail_of):
    """`cli._tail_index` without the index: each side's tail evaluated on
    every query."""
    n = lat.n_links

    def miss(mask):
        part = Partition(n, mask)
        s_bits = cli.entropy_equal_superposition(group, part).s_bits
        return tail_of(part, cli._try_stats(lat, part), None, s_bits)

    return [0] * (1 << n), miss


def direct_oracle_scan(spec, group, fmt):
    """The bytes of an exhaustive ``--oracle`` scan of the torus ``spec``
    in ``group``, in CSV or JSON, each side evaluated on its own: the
    engine, `boundary_stats` and `oracle_entropy` on every mask, the rows
    sorted by descriptor."""
    from flipent.oracle import build_ground_state, oracle_entropy

    lat = parse_lattice_spec(spec)
    n = lat.n_links
    matrix = star_group(lat) if group == "stars" else plaquette_group(lat)
    state = build_ground_state(lat, GroundStateCoeffs.xi(0, 0))
    rows = []
    for mask in range(1, (1 << n) - 1):
        part = Partition(n, mask)
        try:
            stats = boundary_stats(lat, part)
        except ValueError:
            stats = None
        length = None if stats is None else stats.boundary_length
        rows.append({
            "partition": "links:" + ",".join(str(l) for l in range(n) if mask >> l & 1),
            "size_A": part.size_a,
            "L": length,
            "n1": None if stats is None else stats.n1,
            "n2": None if stats is None else stats.n2,
            "n3": None if stats is None else stats.n3,
            "S_bits": entropy_equal_superposition(matrix, part).s_bits,
            "S_closed_form": None,
            "lower_bound": None if stats is None else length / 3 - 1,
            "upper_bound": None if stats is None else 7 * length / 6 - 1,
            "oracle_S": oracle_entropy(state, part),
        })
    rows.sort(key=lambda r: r["partition"])
    out = io.StringIO()
    if fmt == "json":
        emit_json({"command": "scan", "mode": "exhaustive", "lattice": spec,
                   "seed": None, "count": None, "rows": rows}, out)
    else:
        reference_rows_csv(rows, out, CSV_COLUMNS)
    return out.getvalue()


def scan_index(monkeypatch, lat, group):
    """The tail builder, the table of tails and the `cli._tail_index` of an
    exhaustive scan of ``lat`` in ``group``, as `cli._scan_rows` makes them."""
    made = []
    tail_index = cli._tail_index

    def recorded(lat, group, tails, tail_of):
        made.append((tail_of, tails, tail_index(lat, group, tails, tail_of)))
        return made[-1][2]

    monkeypatch.setattr(cli, "_tail_index", recorded)
    cli._scan_rows(build_parser().parse_args(["scan", "--lattice", "-"]), lat, group)
    ((tail_of, tails, found),) = made
    return tail_of, tails, found


class TestPairedScan:
    """The exhaustive scan asks the engine once per symmetry orbit of
    complement pairs {A, B} (each pair alone off the torus) and prints
    the bytes that one engine call per row prints.  An ``--oracle`` scan,
    whose trace is per side, evaluates each row on its own side and
    builds no index."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []

        def counted(group, part):
            calls.append(part.a_mask)
            return entropy_equal_superposition(group, part)

        monkeypatch.setattr(cli, "entropy_equal_superposition", counted)
        return calls

    @pytest.mark.parametrize("group", ["stars", "plaquettes"])
    @pytest.mark.parametrize("variant", SCAN_VARIANTS)
    def test_same_bytes_as_direct_evaluation(
        self, capsys, monkeypatch, engine_calls, variant, group
    ):
        lattice, options = SCAN_VARIANTS[variant]
        argv = ["scan", "--lattice", SCAN_LATTICES[lattice], "--mode", "exhaustive",
                "--group", group, *options]
        lat = parse_lattice_spec(SCAN_LATTICES[lattice])
        n = lat.n_links
        if "--oracle" in options:
            # the trace is per side, so each row is evaluated on its own side
            def refuse(lat, group, tails, tail_of):
                raise AssertionError("an --oracle scan built an index")

            monkeypatch.setattr(cli, "_tail_index", refuse)
        code, paired, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if "--oracle" in options:
            assert sorted(engine_calls) == list(range(1, (1 << n) - 1))  # once per row
            fmt = "json" if "json" in options else "csv"
            assert paired == direct_oracle_scan(SCAN_LATTICES[lattice], group, fmt)
            return
        calls = assert_one_call_per_pair_orbit(lat, engine_calls)
        # 17 orbits of the 127 pairs at k=2; each pair alone off the torus
        assert calls == {"torus-k2": 17}.get(lattice, (1 << (n - 1)) - 1)

        monkeypatch.setattr(cli, "_tail_index", direct_index)
        engine_calls.clear()
        code, unpaired, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        # a table walks its rows twice: widths, then writes
        walks = 2 if "table" in options else 1
        assert len(engine_calls) == walks * ((1 << n) - 2)
        assert paired == unpaired

    @pytest.mark.parametrize("variant", SCAN_VARIANTS)
    def test_same_bytes_past_the_tail_cap(
        self, capsys, monkeypatch, engine_calls, variant
    ):
        # with the table filled to 3 positions short of the 2**16 that the
        # index holds, at most 3 tails are indexed and the others computed
        # again at each use, and a miss past the index computes its own
        # side's tail alone, so no row costs more than one engine call and
        # one stats call per walk
        lattice, options = SCAN_VARIANTS[variant]
        argv = ["scan", "--lattice", SCAN_LATTICES[lattice], "--mode", "exhaustive",
                *options]
        code, indexed, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        calls = len(engine_calls)
        stats_calls = []
        stats = cli.boundary_stats

        def counted(lat, part):
            stats_calls.append(part.a_mask)
            return stats(lat, part)

        tail_index = cli._tail_index
        indexed_scans = []

        def past_the_index(lat, group, tails, tail_of):
            indexed_scans.append(lat)
            filler = (0,) * (len(CSV_COLUMNS) - 1)  # positions no row has
            tails.extend([filler] * ((1 << 16) - 3 - len(tails)))
            return tail_index(lat, group, tails, tail_of)

        monkeypatch.setattr(cli, "boundary_stats", counted)
        monkeypatch.setattr(cli, "_tail_index", past_the_index)
        engine_calls.clear()
        code, capped, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert capped == indexed
        if "--oracle" in options:
            assert indexed_scans == []  # each row evaluated on its own side
            return
        walks = 2 if "table" in options else 1
        rows = (1 << parse_lattice_spec(SCAN_LATTICES[lattice]).n_links) - 2
        assert calls < len(engine_calls) <= walks * rows
        assert len(stats_calls) <= walks * rows

    @pytest.mark.parametrize(
        "lattice, fmt, pairs",
        [("torus:k=3", "csv", 2111),  # orbits of the 131,071 pairs
         (str(GOLDEN / "cube.lat"), "csv", 2047),  # each pair alone
         (str(GOLDEN / "cube.lat"), "table", 2047)],
        ids=["torus-k3-csv", "cube-csv", "cube-table"],
    )
    def test_one_orbit_and_two_stats_per_miss(
        self, monkeypatch, engine_calls, lattice, fmt, pairs
    ):
        orbits, stats_calls = [], []
        symmetry_orbit = Lattice.symmetry_orbit
        stats = cli.boundary_stats

        def recorded(lat, mask):
            orbits.append(mask)
            return symmetry_orbit(lat, mask)

        def counted(lat, part):
            stats_calls.append(part.a_mask)
            return stats(lat, part)

        monkeypatch.setattr(Lattice, "symmetry_orbit", recorded)
        monkeypatch.setattr(cli, "boundary_stats", counted)
        monkeypatch.setattr(sys, "stdout", _Discard())
        assert main(["scan", "--lattice", lattice, "--format", fmt]) == 0
        assert len(engine_calls) == len(orbits) == len(set(orbits)) == pairs
        assert len(stats_calls) == 2 * pairs

    @pytest.mark.parametrize("order", ["shuffled", "descending"])
    @pytest.mark.parametrize("group", ["stars", "plaquettes", "single-links"])
    @pytest.mark.parametrize("lattice", SCAN_LATTICES)
    def test_memo_is_independent_of_query_order(
        self, monkeypatch, engine_calls, lattice, group, order
    ):
        lat = parse_lattice_spec(SCAN_LATTICES[lattice])
        n = lat.n_links
        matrix = {
            "stars": star_group(lat),
            "plaquettes": plaquette_group(lat),
            # every S is 0, and a 0 must be indexed like any other value
            "single-links": Gf2Matrix([1 << l for l in range(n)], n),
        }[group]
        masks = list(range((1 << n) - 2, 0, -1))  # complements with link n-1 first
        if order == "shuffled":
            random.Random(n).shuffle(masks)
        tail_of, tails, (index, miss) = scan_index(monkeypatch, lat, matrix)
        for mask in masks + masks[::-1]:  # fill the index, then read it back
            part = Partition(n, mask)
            s_bits = entropy_equal_superposition(matrix, part).s_bits
            assert tails[index[mask] or miss(mask)] == tails[tail_of(
                part, cli._try_stats(lat, part), None, s_bits
            )]
        assert_one_call_per_pair_orbit(lat, engine_calls)

    @pytest.mark.parametrize("group", ["stars", "plaquettes"])
    def test_memo_matches_direct_evaluation_on_a_k3_sample(self, monkeypatch, group):
        # each sampled mask is queried and then every image of it, most of
        # them read from the orbit the first query wrote
        lat = build_torus(3)
        n = lat.n_links
        full = (1 << n) - 1
        matrix = star_group(lat) if group == "stars" else plaquette_group(lat)
        stats_calls = []
        try_stats = cli._try_stats

        def counted(lat, part):
            stats_calls.append(part.a_mask)
            return try_stats(lat, part)

        tail_of, tails, (index, miss) = scan_index(monkeypatch, lat, matrix)
        monkeypatch.setattr(cli, "_try_stats", counted)
        perms = symmetries(lat)
        rng = random.Random(23)
        for mask in (rng.randrange(1, full) for _ in range(300)):
            for image in images(perms, mask):
                part = Partition(n, image)
                got = tails[index[image] or miss(image)]
                s_bits = entropy_equal_superposition(matrix, part).s_bits
                assert got == tails[tail_of(part, try_stats(lat, part), None, s_bits)]
        # a miss computes the stats of the side, then of the complement,
        # once per orbit of pairs, as the engine
        sides = stats_calls[0::2]
        assert stats_calls[1::2] == [full ^ m for m in sides]
        pair_orbits = {frozenset(min(m, full ^ m) for m in images(perms, side))
                       for side in sides}
        assert len(pair_orbits) == len(sides) <= 300

    def test_sampled_mode_calls_the_engine_once_per_row(self, capsys, engine_calls):
        code, out, _ = run_cli(
            capsys, "scan", "--lattice", "torus:k=2", "--mode", "sampled",
            "--count", "300", "--seed", "5",
        )
        assert code == 0
        masks = bipartition_masks(8, "sampled", count=300, seed=5)
        assert len({min(m, 0xFF ^ m) for m in masks}) < len(masks)  # pairs repeat
        assert engine_calls == masks
        assert len(out.splitlines()) == 301

    @pytest.mark.parametrize(
        "name", ["scan_exhaustive_k5_exit3", "scan_exhaustive_scan_cap_exit3"]
    )
    def test_capped_scan_allocates_no_memo(self, capsys, monkeypatch, name):
        def refuse(lat, group, tails, tail_of):
            raise AssertionError(f"an index of 2**{lat.n_links + 1} bytes was allocated")

        def refuse_walk(n):
            raise AssertionError("the scan walked its masks")

        monkeypatch.setattr(cli, "_tail_index", refuse)
        monkeypatch.setattr(cli, "_descriptor_walk", refuse_walk)
        (argv,) = [c["argv"] for c in GOLDEN_CASES if c["name"] == name]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")


class _Discard(io.TextIOBase):
    """A text stream that drops what is written to it."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps each write it is given."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


def reference_walk(n):
    """(mask, descriptor) for every proper side of ``n`` links, one row at
    a time, in the depth-first order of the sorted descriptors."""
    names = [str(link) for link in range(n)]
    order = sorted(range(n), key=names.__getitem__)
    stack = [(1 << c, "links:" + names[c], c) for c in reversed(order)]
    while stack:
        mask, desc, last = stack.pop()
        if mask != (1 << n) - 1:
            yield mask, desc
        stack.extend((mask | 1 << c, f"{desc},{names[c]}", c)
                     for c in reversed(order) if c > last)


class TestStreamedScan:
    """Exhaustive CSV and JSON rows are made in descriptor order and written
    as they come, in blocks; a table walks them once for its widths and
    again to write.  Every error but a failed write comes before the
    first byte."""

    @pytest.mark.parametrize("n", range(1, 14))
    def test_walk_is_sorted_descriptor_order(self, n):
        # from n = 11 on, link 10 sorts before link 2
        walked = list(chain.from_iterable(cli._descriptor_walk(n)))
        assert sorted(mask for mask, _ in walked) == list(range(1, (1 << n) - 1))
        links = [",".join(str(l) for l in range(n) if mask >> l & 1) for mask, _ in walked]
        descriptors = [desc for _, desc in walked]
        assert descriptors == ["links:" + body for body in links]
        assert descriptors == sorted(descriptors)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_blocks_flatten_to_the_row_walk(self, n):
        blocks = list(cli._descriptor_walk(n))
        assert list(chain.from_iterable(blocks)) == list(reference_walk(n))
        assert max(map(len, blocks)) <= 1 << cli.WALK_TABLE_DEPTH
        full = (1 << n) - 1
        assert all(mask != full for block in blocks for mask, _ in block)

    def test_exhaustive_csv_holds_one_row(self, monkeypatch):
        # 12 links, 4,094 rows; holding every row before the sort peaked at
        # 1,167 KiB, streaming them at 194 KiB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = main(["scan", "--lattice", str(GOLDEN / "cube.lat"),
                         "--mode", "exhaustive"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 512 << 10

    def test_exhaustive_json_holds_one_block(self, monkeypatch):
        # 12 links, 4,094 rows; holding every row object before the dump
        # peaked at 2,558 KiB, streaming them at 278 KiB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = main(["scan", "--lattice", str(GOLDEN / "cube.lat"),
                         "--mode", "exhaustive", "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 512 << 10

    def test_exhaustive_table_holds_one_block(self, monkeypatch):
        # the rows are walked twice, for the widths and then to write;
        # holding every row's cells for the widths peaked at 2,993 KiB,
        # the two walks at 273 KiB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = main(["scan", "--lattice", str(GOLDEN / "cube.lat"),
                         "--mode", "exhaustive", "--format", "table"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 512 << 10

    def test_table_error_on_the_last_row_prints_nothing(self, capsys, monkeypatch):
        # the rows are written only after the widths walk meets every row;
        # off the torus a row's stats are computed at that row unless its
        # complement came first, so fail at the last row whose did not
        full = (1 << 12) - 1
        seen = set()
        for mask, _ in chain.from_iterable(cli._descriptor_walk(12)):
            if full ^ mask not in seen:
                last_mask = mask
            seen.add(mask)
        try_stats = cli._try_stats

        def failing(lat, part):
            if part.a_mask == last_mask:
                raise ValueError("last row")
            return try_stats(lat, part)

        monkeypatch.setattr(cli, "_try_stats", failing)
        code, out, err = run_cli(capsys, "scan", "--lattice", str(GOLDEN / "cube.lat"),
                                 "--mode", "exhaustive", "--format", "table")
        assert (code, out, err) == (2, "", "error: last row\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unbuffered_stdout_gets_one_write_per_block(self, capsys, monkeypatch, fmt):
        # a write-through stdout over a raw stream, as PYTHONUNBUFFERED=1
        # makes it: each text write is one raw write, which was one per row
        argv = ["scan", "--lattice", str(GOLDEN / "cube.lat"), "--mode", "exhaustive",
                "--format", fmt]
        _, buffered, _ = run_cli(capsys, *argv)
        raw = _CountingRaw()
        stdout = io.TextIOWrapper(raw, "utf-8", newline="\n", write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        data = b"".join(raw.writes)
        assert data.decode() == buffered
        sizes = [len(w) for w in raw.writes]
        # full blocks but the last: a row is under 512 characters in both formats
        assert all(cli.BLOCK_CHARS - 512 < n <= cli.BLOCK_CHARS for n in sizes[:-1])
        assert len(sizes) <= len(data) // cli.BLOCK_CHARS + 5

    def test_exhaustive_json_is_the_dump_of_its_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--lattice", str(GOLDEN / "cube.lat"),
                               "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 4094
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_exhaustive_oracle_over_subsystem_cap_exits_before_any_trace(
        self, capsys, monkeypatch
    ):
        from flipent import oracle

        traced = []
        trace = oracle.reduced_density_matrix

        def counted(state, part, **kwargs):
            rho = trace(state, part, **kwargs)
            traced.append(part.a_mask)
            return rho

        monkeypatch.setattr(oracle, "reduced_density_matrix", counted)
        code, out, err = run_cli(
            capsys, "scan", "--lattice", "torus:k=3", "--mode", "exhaustive", "--oracle"
        )
        assert (code, out) == (3, "")
        assert err == "error: subsystem of 13 links exceeds the 12-link cap\n"
        assert traced == []  # in mask order 8,190 traces, 91 at |A| >= 11, come first

    @pytest.mark.parametrize("cap", [-1, 0, 3, 6])
    def test_early_exit_names_the_first_row_over_the_cap(self, capsys, cap):
        from flipent.errors import ResourceLimitError
        from flipent.oracle import build_ground_state, oracle_entropy

        # the rows of the 8-link torus in ascending mask order, each traced
        state = build_ground_state(build_torus(2), GroundStateCoeffs.xi(0, 0))
        with pytest.raises(ResourceLimitError) as first_over:
            for mask in range(1, 255):
                oracle_entropy(state, Partition(8, mask), max_subsystem=cap)
        code, out, err = run_cli(
            capsys, "scan", "--lattice", "torus:k=2", "--mode", "exhaustive",
            "--oracle", "--max-subsystem", str(cap),
        )
        assert (code, out, err) == (3, "", f"error: {first_over.value}\n")

    @pytest.mark.parametrize(
        "case",
        [c for c in GOLDEN_CASES if c.get("argv", [""])[0] == "scan" and c["exit"]],
        ids=lambda c: c["name"],
    )
    def test_failed_scan_prints_nothing(self, capsys, monkeypatch, case):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == case["exit"] != 4
        assert out == ""


class TestOracleStateBuilds:
    """Each command builds its oracle state once, whatever its row count."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from flipent import oracle, verify

        calls = []
        build = oracle.build_ground_state

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(oracle, "build_ground_state", counted)
        monkeypatch.setattr(verify, "build_ground_state", counted)
        return calls

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (
                ["scan", "--mode", "rects", "--count", "5", "--seed", "1", "--oracle"],
                5,
            ),
            (["entropy", "--partition", "chain", "--oracle", "--format", "csv"], 1),
            (["verify"], 5),
        ],
        ids=["scan", "entropy", "verify"],
    )
    def test_state_built_once(self, capsys, builds, argv, rows):
        code, out, err = run_cli(capsys, argv[0], "--lattice", "torus:k=3", *argv[1:])
        assert (code, err) == (0, "")
        assert len(out.strip().splitlines()) == rows + 1
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                [
                    "--lattice", "torus:k=2", "--mode", "rects", "--count", "1",
                    "--seed", "1", "--max-links", "4",
                ],
                "need k >= 3 for a convex rectangle",
            ),
            (
                ["--lattice", str(GOLDEN / "patch.lat"), "--mode", "table1"],
                "table1 mode needs a torus lattice",
            ),
            (
                ["--lattice", str(GOLDEN / "patch.lat"), "--mode", "sampled"],
                "mode 'sampled' needs --count >= 1",
            ),
        ],
        ids=["rects-k2", "table1-document", "sampled-document"],
    )
    def test_scan_mode_errors_come_first(self, capsys, builds, argv, message):
        # the state is built on the first row, so a mode that cannot give
        # a row reports its own error, not the oracle's link cap or torus check
        code, out, err = run_cli(capsys, "scan", *argv, "--oracle")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert builds == []

    @pytest.mark.parametrize("command", ["entropy", "scan"])
    def test_document_lattice_has_no_oracle(self, capsys, builds, command):
        argv = ["--partition", "links:0"] if command == "entropy" else []
        code, out, err = run_cli(
            capsys, command, "--lattice", str(GOLDEN / "patch.lat"), *argv, "--oracle"
        )
        message = "the statevector oracle needs a torus lattice"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert builds == []

    def test_oracle_entropy_once_per_distinct_partition(self, capsys, monkeypatch):
        from flipent import oracle, random_rectangle_region

        masks = []
        entropy = oracle.oracle_entropy

        def counted(state, part, **kwargs):
            masks.append(part.a_mask)
            return entropy(state, part, **kwargs)

        monkeypatch.setattr(oracle, "oracle_entropy", counted)
        code, out, err = run_cli(
            capsys, "scan", "--lattice", "torus:k=3", "--mode", "rects",
            "--count", "100", "--seed", "1", "--oracle",
        )
        assert (code, err) == (0, "")
        assert len(out.strip().splitlines()) == 101
        lat, rng = build_torus(3), random.Random(1)
        drawn = [random_rectangle_region(lat, rng)[0].a_mask for _ in range(100)]
        assert sorted(masks) == sorted(set(drawn))
        assert len(masks) < 100


class TestSharedTails:
    """Scan rows with the same values share one position in the scan's
    table of tails, and each emitter formats a position once per walk;
    values that compare equal but print differently never share one."""

    @pytest.fixture
    def tail_walks(self, monkeypatch):
        # per walk of `_row_texts`, its table of tails and the tails it formats
        walks = []
        row_texts = cli._row_texts

        def counted(tails, rows, head_text, tail_text):
            calls = []
            walks.append((tails, calls))

            def counting(tail):
                calls.append(tuple(tail))
                return tail_text(tail)

            return row_texts(tails, rows, head_text, counting)

        monkeypatch.setattr(cli, "_row_texts", counted)
        return walks

    @pytest.mark.parametrize(
        "argv, distinct",
        [
            (["--lattice", "torus:k=2", "--mode", "exhaustive"], 19),
            (["--lattice", str(GOLDEN / "cube.lat"), "--mode", "exhaustive"], 65),
            # every rect at k=3 has the same values
            (["--lattice", "torus:k=3", "--mode", "rects", "--count", "100",
              "--seed", "1"], 1),
            # 300 draws of the 254 sides at k=2
            (["--lattice", "torus:k=2", "--mode", "sampled", "--count", "300",
              "--seed", "5"], 18),
            (["--lattice", "torus:k=3", "--mode", "table1", "--oracle"], 6),
            (["--lattice", "torus:k=2", "--mode", "exhaustive", "--oracle"], 19),
            (["--lattice", "torus:k=2", "--mode", "exhaustive", "--oracle",
              "--group", "plaquettes"], 24),
        ],
        ids=["torus-k2", "cube", "rects-k3", "sampled-k2", "table1-oracle",
             "exhaustive-k2-oracle", "exhaustive-k2-oracle-plaquettes"],
    )
    def test_each_tail_formatted_once_per_walk(self, capsys, tail_walks, argv, distinct):
        argv = ["scan", *argv]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        tails = {tuple(r[1:]) for r in list(csv.reader(io.StringIO(out)))[1:]}
        assert len(tails) == distinct
        for fmt, walk_count in (("csv", 1), ("json", 1), ("table", 2)):
            tail_walks.clear()
            assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
            assert len(tail_walks) == walk_count
            for table, calls in tail_walks:
                # the table holds only printed tails
                assert len(calls) == len(set(calls)) == distinct
                assert calls == table[1:]  # each position once, in order

    def test_oracle_zeros_and_nans_print_as_given(self, capsys, monkeypatch):
        # the oracle's 0.0, -0.0 and NaN compare equal or unequal to
        # themselves unlike how they print; rects at k=3 repeat their
        # other values, so only a tail matched by repr keeps them apart
        from flipent import oracle, random_rectangle_region

        values = (0.0, -0.0, math.nan)
        given = {}  # a_mask -> the fake oracle's value

        def fake(state, part, **kwargs):
            return given.setdefault(part.a_mask, values[len(given) % 3])

        monkeypatch.setattr(oracle, "oracle_entropy", fake)
        argv = ["scan", "--lattice", "torus:k=3", "--mode", "rects", "--count", "100",
                "--seed", "1", "--oracle"]
        outs = {}
        for fmt in ("csv", "json", "table"):
            code, outs[fmt], err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")

        lat, rng = build_torus(3), random.Random(1)
        group = star_group(lat)
        ref = []
        for _ in range(100):
            part, stats, loop = random_rectangle_region(lat, rng)
            length = stats.boundary_length
            ref.append({
                "partition": "loop:" + lat.link_list(loop),
                "size_A": part.size_a,
                "L": length,
                "n1": stats.n1,
                "n2": stats.n2,
                "n3": stats.n3,
                "S_bits": entropy_equal_superposition(group, part).s_bits,
                "S_closed_form": float(stats.sigma_ab - 1),
                "lower_bound": length / 3 - 1,
                "upper_bound": 7 * length / 6 - 1,
                "oracle_S": given[part.a_mask],
            })
        ref.sort(key=lambda r: r["partition"])
        # rows equal but for an oracle value that prints differently
        others = [tuple(r[c] for c in CSV_COLUMNS[1:-1]) for r in ref]
        assert any(
            others[i] == others[j] and repr(ref[i]["oracle_S"]) != repr(ref[j]["oracle_S"])
            for i in range(len(ref)) for j in range(i) if ref[i]["oracle_S"] == 0
        )

        expected = io.StringIO()
        reference_rows_csv(ref, expected, CSV_COLUMNS)
        assert outs["csv"] == expected.getvalue()
        oracle_texts = {line.rsplit(",", 1)[1] for line in outs["csv"].splitlines()}
        assert {"0.0", "-0.0", "nan"} <= oracle_texts
        expected = io.StringIO()
        emit_json({"command": "scan", "mode": "rects", "lattice": "torus:k=3",
                   "seed": 1, "count": 100, "rows": ref}, expected)
        assert outs["json"] == expected.getvalue()
        expected = io.StringIO()
        reference_rows_table(ref, expected)
        assert outs["table"] == expected.getvalue()


class TestLatticeInfoCommand:
    def test_torus_info(self, capsys):
        code, out, _ = run_cli(
            capsys, "lattice-info", "--lattice", "torus:k=3", "--format", "json"
        )
        assert code == 0
        info = json.loads(out)
        assert info["n_sites"] == 9
        assert info["n_links"] == 18
        assert info["ground_degeneracy"] == 4

    def test_document_file(self, capsys, tmp_path):
        doc = tmp_path / "torus2.lat"
        doc.write_text(lattice_to_document(build_torus(2)))
        code, out, _ = run_cli(
            capsys, "lattice-info", "--lattice", str(doc), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["genus"] == 1

    def test_rank_only_commands_do_not_import_numpy(self):
        code = (
            "import sys\n"
            "import flipent.cli\n"
            "assert 'numpy' not in sys.modules, 'import flipent.cli'\n"
            "assert flipent.cli.main(['lattice-info', '--lattice', 'torus:k=4']) == 0\n"
            "assert 'numpy' not in sys.modules, 'lattice-info'\n"
            "from flipent import oracle_entropy, build_ground_state\n"
            "assert 'numpy' in sys.modules\n"
            "assert oracle_entropy.__module__ == 'flipent.oracle'\n"
            "assert build_ground_state.__module__ == 'flipent.oracle'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(flipent.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "ground_degeneracy: 4" in proc.stdout

    def test_document_ranks_each_graph_once(self, capsys, monkeypatch):
        # deciding the duals and the group ranks share one full rank per graph
        full_ranks = []
        rank = gf2.Graph.rank

        def recorded(self, mask):
            if mask == (1 << len(self.edges)) - 1:
                full_ranks.append(self.n_vertices)
            return rank(self, mask)

        monkeypatch.setattr(gf2.Graph, "rank", recorded)
        cube = str(GOLDEN / "cube.lat")
        code, out, _ = run_cli(capsys, "lattice-info", "--lattice", cube)
        assert code == 0
        assert "star_rank: 7\n" in out and "plaquette_rank: 5\n" in out
        assert sorted(full_ranks) == [7, 8]  # the face graph has an outer vertex

    def test_malformed_document_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "broken.lat"
        doc.write_text("LATTICE v1 open\nSITES\n0\n1\nLINKS\n0 7\nPLAQUETTES\n")
        code, _, err = run_cli(capsys, "lattice-info", "--lattice", str(doc))
        assert code == 2
        assert "line 6" in err

    def test_closed_surface_link_on_one_face_exit_2(self, capsys, tmp_path):
        # two bigons on four parallel links, declared closed: Euler count 0
        # (genus 1), but each link lies on one face
        doc = tmp_path / "bigons.lat"
        doc.write_text(
            "LATTICE v1 closed\nSITES\n0\n1\nLINKS\n0 1\n0 1\n0 1\n0 1\n"
            "PLAQUETTES\n0 1\n2 3\n"
        )
        code, out, err = run_cli(capsys, "lattice-info", "--lattice", str(doc))
        assert (code, out) == (2, "")
        message = "link 0 lies on one plaquette; a closed surface needs two"
        assert err == f"error: {message}\n"


class TestOptions:
    @pytest.mark.parametrize("command", ["verify", "lattice-info"])
    @pytest.mark.parametrize("option", ["--max-links", "--max-subsystem", "--enum-cap"])
    def test_oracle_caps_removed_from_verify_and_lattice_info(
        self, capsys, command, option
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--lattice", "torus:k=2", option, "4"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--lattice", "torus:k=2", "--partition", "chain"],
            ["scan", "--lattice", "torus:k=2"],
        ],
        ids=["entropy", "scan"],
    )
    def test_oracle_caps_kept_on_entropy_and_scan(self, argv):
        args = build_parser().parse_args(argv)
        assert (args.max_links, args.max_subsystem) == (26, 12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--lattice", "torus:k=2", "--partition", "chain"],
            ["scan", "--lattice", "torus:k=2"],
        ],
        ids=["entropy", "scan"],
    )
    def test_enum_cap_removed(self, capsys, argv):
        # the 2**n state under --max-links binds before any row-space cap
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--oracle", "--enum-cap", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --enum-cap 4" in capsys.readouterr().err


def sometimes(*options):
    """No option, or one of ``options``."""
    return st.one_of(st.just(()), st.sampled_from(options))


def weighted(*pairs):
    """One of the (strategy, weight) ``pairs``' strategies, each ``weight``
    times in sum(weights)."""
    return st.sampled_from([s for s, weight in pairs for _ in range(weight)]).flatmap(
        lambda s: s)


def capped(option, default):
    """No option, or ``option`` at or below ``default``, so no draw needs
    more memory than the default allows."""
    caps = st.integers(-2, default).map(lambda c: (option, str(c)))
    return st.one_of(st.just(()), caps)


def region_scan_argvs():
    """``scan --mode rects|disks`` argvs on tori k = 2..8: counts mostly
    small, else 0, negative or over the row budget; seeds small, negative
    or huge; every format and group, with and without ``--oracle`` and
    ``--scan-cap``; now and then no count or no seed."""
    counts = {
        "small": st.integers(1, 5),
        "low": st.integers(-(1 << 70), 0),
        "over": st.integers((1 << 24) - 1, 1 << 70),  # the default budget is 2**24 - 2
    }
    count = st.sampled_from(["small"] * 4 + ["low", "over"]).flatmap(counts.get)
    seed = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))

    def mostly(option, values):  # the option about seven times in eight
        return st.tuples(st.integers(0, 7), values).map(
            lambda t: (option, str(t[1])) if t[0] else ()
        )

    def argv(k, mode, *options):
        return ["scan", "--lattice", f"torus:k={k}", "--mode", mode,
                *chain.from_iterable(options)]

    return st.builds(
        argv,
        # extra weight on k = 3, the one torus where a rects scan runs the oracle
        st.one_of(st.integers(2, 8), st.just(3)),
        st.sampled_from(["rects", "disks"]),
        mostly("--count", count),
        mostly("--seed", seed),
        sometimes(*(("--format", f) for f in ("csv", "json", "table"))),
        sometimes(("--group", "stars"), ("--group", "plaquettes")),
        sometimes(("--oracle",)),
        sometimes(*(("--scan-cap", str(c)) for c in range(-1, 5))),
    )


class TestRegionScanExits:
    """The exit-code contract over region scan argvs: a result or a
    documented exit, and no output before an error."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(argv=region_scan_argvs())
    def test_exit_codes(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert 0 <= code <= 3, (argv, err.getvalue())
        assert "internal error" not in err.getvalue()
        if code in (2, 3):
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


def entropy_argvs():
    """``entropy`` argvs on tori k = 2..6 and the golden cube and patch:
    named partitions, and ``spin:``, ``pair:``, ``links:``, ``rect:`` and
    ``loop:`` specs with junk, empty, repeated or out-of-range ids;
    ``xi:``, ``coeffs:`` (with nan, inf and huge values) and ``random:``
    states; every group and format, with and without ``--oracle``; the
    oracle's two caps now and then, never above their defaults."""
    junk = st.sampled_from(["", " ", "x", "1.5", "0x1", "+1", "1e3"])
    token = weighted(
        (st.integers(0, 6), 5),  # a link id on every lattice drawn
        (st.integers(-3, 80), 1),  # in range, and past it on the small lattices
        (st.integers(-(1 << 70), 1 << 70), 1),
        (junk, 1),
    )

    def ids(size, token=token):  # mostly ``size`` ids, now and then repeats or junk
        lists = weighted((st.lists(token, min_size=size, max_size=size), 3),
                         (st.lists(token, max_size=6), 1))
        return lists.flatmap(lambda ids: st.sampled_from([ids] * 3 + [ids + ids[:2]])).map(
            lambda ids: ",".join(map(str, ids)))

    partition = weighted(
        (st.sampled_from(["chain", "ladder", "cross", "vertical", "plaquette", ""]), 2),
        *((ids(size).map(prefix.__add__), 1) for prefix, size in
          (("spin:", 1), ("pair:", 2), ("links:", 3), ("rect:", 4), ("loop:", 4))),
    )
    amplitude = st.one_of(
        st.sampled_from(["0", "1", "-1", "0.5", "0.5j", "0.6", "0.8j", "nan", "inf",
                         "-inf", "nanj", "1e308", "1e400", "-1e308j", "5e-324", "x", ""]),
        st.floats().map(repr),
        st.complex_numbers().map(str),
    )
    state = weighted(
        (st.just("xi:0,0"), 4),
        (ids(2, weighted((st.integers(0, 1), 6), (token, 1))).map("xi:".__add__), 2),
        (st.sampled_from(["coeffs:0.6,0.8j,0,0", "coeffs:0.5,0.5,-0.5,0.5j",
                          "coeffs:1,0,0,1e-7"]), 1),  # the last renormalized
        (ids(4, amplitude).map("coeffs:".__add__), 1),
        (st.one_of(st.integers(-(1 << 70), 1 << 70), token).map("random:{}".format), 1),
    )
    lattice = weighted(
        (st.integers(2, 6).map("torus:k={}".format), 5),
        (st.sampled_from([str(GOLDEN / "cube.lat"), str(GOLDEN / "patch.lat")]), 2),
    )

    def argv(lat, part, state, *options):
        return ["entropy", "--lattice", lat, "--partition", part, "--state", state,
                *chain.from_iterable(options)]

    return st.builds(
        argv,
        lattice,
        partition,
        state,
        sometimes(*(("--format", f) for f in ("table", "csv", "json"))),
        sometimes(("--group", "stars"), ("--group", "plaquettes")),
        sometimes(("--oracle",)),
        capped("--max-links", cli.MAX_ORACLE_LINKS),
        capped("--max-subsystem", cli.MAX_SUBSYSTEM_LINKS),
    )


class TestEntropyExits:
    """The exit-code contract over ``entropy`` argvs: a result, a
    mismatch reported as such, or a documented exit with no output."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(argv=entropy_argvs())
    def test_exit_codes(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert 0 <= code <= 3, (argv, err.getvalue())
        assert "internal error" not in err.getvalue()
        if code == 1:
            assert any("values disagree" in line for line in lines), (argv, lines)
        if code in (2, 3):
            assert out.getvalue() == ""
            assert any(line.startswith("error:") for line in lines), (argv, lines)


@st.composite
def command_argvs(draw):
    """``verify``, ``lattice-info`` and ``scan --mode
    exhaustive|sampled|table1`` argvs on tori k = 2..4, junk torus specs,
    the golden cube and patch, a missing path, a directory and a file
    that is no lattice document.  ``verify`` gets basis, other and junk
    states and tolerances valid or not; ``scan`` gets counts and seeds
    valid or not, every format and group, with and without
    ``--oracle``, and its three caps now and then, never above their
    defaults.  Every draw is cheap: an exhaustive scan of a torus of
    k >= 3 carries ``--oracle`` or a ``--scan-cap`` below its link count,
    each of which exits 3 before any row, and a valid ``verify`` is
    drawn now and then only."""
    tori = {f"torus:k={k}": 2 * k * k for k in (2, 3, 4)}  # spec -> link count
    lattice = draw(weighted(
        (st.sampled_from(sorted(tori)), 6),
        (st.sampled_from(["torus:k=1", "torus:k=0", "torus:k=-2", "torus:k=",
                          "torus:k=x", "torus:k=2.5", "torus:k=182",
                          f"torus:k={10**6}", "torus:"]), 2),
        (st.sampled_from([str(GOLDEN / "cube.lat"), str(GOLDEN / "patch.lat")]), 1),
        (st.sampled_from([str(GOLDEN / "missing.lat"), str(GOLDEN),
                          str(GOLDEN / "cases.json")]), 1),
    ))
    command = draw(st.sampled_from(["verify", "lattice-info", "scan"]))
    argv = [command, "--lattice", lattice]
    if command == "lattice-info":
        return argv + [*draw(sometimes(("--format", "table"), ("--format", "json")))]
    if command == "verify":
        state = draw(weighted(
            (st.sampled_from(["xi:0,0", "xi:1,0", "xi:0,1", "xi:1,1"]), 2),
            (st.sampled_from(["xi:", "xi:0", "xi:2,0", "xi:0,0,0", "xi:-1,0",
                              "xi:x,0"]), 1),
            (st.sampled_from(["random:1", "random:x", "random:"]), 1),
            (st.sampled_from(["coeffs:0.6,0.8j,0,0", "coeffs:1,0,0",
                              "coeffs:nan,0,0,0"]), 1),
            (st.sampled_from(["", "x", "xi", "0,0"]), 1),
        ))
        tol = sometimes(*(("--tol", t) for t in
                          ("0", "1e-9", "-1", "-1e-300", "nan", "inf", "-inf", "x", "")))
        return argv + ["--state", state, *draw(tol),
                       *draw(sometimes(("--format", "table"), ("--format", "json")))]
    mode = draw(st.sampled_from(["exhaustive", "sampled", "table1"]))
    count = weighted((st.integers(1, 40), 4), (st.integers(-3, 0), 1),
                     (st.integers((1 << 24) - 1, 1 << 70), 1))  # over the default budget
    seed = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))
    def mostly(option, values):  # the option seven times in eight
        return weighted((st.just(()), 1), (values.map(lambda v: (option, str(v))), 7))

    options = [
        draw(mostly("--count", count)),
        draw(mostly("--seed", seed)),
        draw(sometimes(*(("--format", f) for f in ("csv", "json", "table")))),
        draw(sometimes(("--group", "stars"), ("--group", "plaquettes"))),
        draw(sometimes(("--oracle",))),
        draw(capped("--scan-cap", cli.EXHAUSTIVE_SCAN_MAX_LINKS)),
        draw(capped("--max-links", cli.MAX_ORACLE_LINKS)),
        draw(capped("--max-subsystem", cli.MAX_SUBSYSTEM_LINKS)),
    ]
    if mode == "exhaustive" and tori.get(lattice, 0) > 8:
        # last, so that it overrides a --scan-cap drawn above
        options.append(draw(st.one_of(
            st.just(("--oracle",)),
            st.integers(-2, tori[lattice] - 1).map(lambda c: ("--scan-cap", str(c))),
        )))
    return argv + ["--mode", mode, *chain.from_iterable(options)]


class TestCommandExits:
    """The exit-code contract over ``verify``, ``lattice-info`` and the
    scans `TestRegionScanExits` leaves out: a result, a failed check
    reported as such, or a documented exit with no output, and no draw
    that allocates more than the default caps allow."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(argv=command_argvs())
    # a check that fails at tolerance 0 exits 1, in either format
    @example(argv=["verify", "--lattice", "torus:k=2", "--tol", "0"])
    @example(argv=["verify", "--lattice", "torus:k=2", "--tol", "0", "--format", "json"])
    def test_exit_codes(self, argv):
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # an argparse error, such as --tol x
                    code = exc.code
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lines = err.getvalue().splitlines()
        assert 0 <= code <= 3, (argv, err.getvalue())
        assert "internal error" not in err.getvalue()
        if code == 1:
            assert "FAIL " in out.getvalue() or '"passed": false' in out.getvalue(), argv
        if code in (2, 3):
            assert out.getvalue() == ""
            # main's own line, or argparse's "flipent <command>: error: ..."
            assert any(line.startswith("error:") or ": error: " in line
                       for line in lines), (argv, lines)
        assert peak < 64 << 20, (argv, peak)


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        for name in flipent.__all__:
            assert getattr(flipent, name) is not None, name
        assert len(set(flipent.__all__)) == len(flipent.__all__)


# ---------------------------------------------------------------------------
# reference writers: the per-cell formatter and dict rows the emitters
# replaced, kept to pin their bytes

def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_rows_csv(rows, out, columns) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([reference_cell(row[c]) for c in columns])


def reference_fields(obj, out) -> None:
    for key, value in obj.items():
        out.write(f"{key}: {reference_cell(value) or '-'}\n")


def reference_rows_table(rows, out) -> None:
    cells = [[reference_cell(r[c]) or "-" for c in CSV_COLUMNS] for r in rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
        for i, h in enumerate(CSV_COLUMNS)
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(CSV_COLUMNS, widths)) + "\n")
    for c in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)) + "\n")


SPECIAL_FLOATS = (0.1 + 0.2, 1e22, -0.0, math.nan, math.inf, -math.inf, 1 / 3)


def random_cell(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        links = rng.sample(range(50), rng.randint(1, 6))
        return rng.choice(("links:", "loop:")) + ",".join(map(str, links))
    if kind == 4:
        return rng.choice(SPECIAL_FLOATS)
    return rng.uniform(-100, 100) * 10 ** rng.randint(-20, 20)


def random_rows(seed, count):
    """(descriptor, tail) rows of random cells, as the emitters take them."""
    rng = random.Random(seed)
    return [
        (random_cell(rng), tuple(random_cell(rng) for _ in CSV_COLUMNS[1:]))
        for _ in range(count)
    ]


def in_blocks(rows):
    """(descriptor, tail) ``rows`` as the emitters take them: a table of
    their distinct tails, position 0 no row's, and the (descriptor,
    position) rows cut into blocks of random sizes, the first empty.  A
    tail is matched by its repr, so tails that compare equal but print
    differently take separate positions."""
    tails, positions = [None], {}

    def position(tail):
        i = positions.get(repr(tail))
        if i is None:
            i = positions[repr(tail)] = len(tails)
            tails.append(tail)
        return i

    rows = [(head, position(tail)) for head, tail in rows]
    rng = random.Random(len(rows))
    blocks, start = [[]], 0
    while start < len(rows):
        size = rng.randrange(130)  # now and then another empty block
        blocks.append(rows[start:start + size])
        start += size
    return tails, blocks


def dict_rows(rows, columns=CSV_COLUMNS):
    """The reference writers' rows: one dict per (descriptor, tail) row."""
    return [dict(zip(columns, (head, *tail))) for head, tail in rows]


class TestEmitters:
    @pytest.mark.parametrize("seed,count", [(1, 0), (2, 1), (3, 50), (4, 400)])
    def test_csv_matches_reference(self, seed, count):
        rows = random_rows(seed, count)
        new, ref = io.StringIO(), io.StringIO()
        emit_rows_csv(*in_blocks(rows), new)
        reference_rows_csv(dict_rows(rows), ref, CSV_COLUMNS)
        assert new.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("seed,count", [(1, 0), (2, 1), (3, 50), (4, 400)])
    def test_table_matches_reference(self, seed, count):
        rows = random_rows(seed, count)
        new, ref = io.StringIO(), io.StringIO()
        emit_rows_table(*in_blocks(rows), new)
        reference_rows_table(dict_rows(rows), ref)
        assert new.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("seed", range(5))
    def test_one_record_matches_reference(self, seed):
        # the entropy command's csv and table paths: one dict, its keys as columns
        [record] = dict_rows(random_rows(seed, 1))
        new, ref = io.StringIO(), io.StringIO()
        new.write(cli._csv_line(record) + cli._csv_line(record.values()))
        reference_rows_csv([record], ref, list(record))
        assert new.getvalue() == ref.getvalue()
        new, ref = io.StringIO(), io.StringIO()
        emit_fields(record, new)
        reference_fields(record, ref)
        assert new.getvalue() == ref.getvalue()

    @staticmethod
    def equal_tail_rows():
        # tails that compare equal but print differently, each tail in two
        # rows, so that a position shared by value rather than by repr
        # would print the first one's text
        nan = math.nan
        values = [0.0, -0.0, 1, 1.0, True, 0, False, nan, nan, float("nan"), None]
        rows = []
        for i, v in enumerate(values):
            first = (v, 3, None, 0, 1, v, None, 0.5, v, None)
            second = (2, v, v, 0, 1, 2, None, 0.5, 1.0, nan)
            for j in (i, i + len(values)):
                rows += [(f"links:{j}", first), (f"links:{j},{j + 1}", second)]
        return rows

    def test_equal_tails_that_print_differently(self):
        rows = self.equal_tail_rows()
        tails, _ = in_blocks(rows)
        assert tails.count(tails[1]) == 4  # the tails of 0.0, -0.0, 0 and False
        new, ref = io.StringIO(), io.StringIO()
        emit_rows_csv(*in_blocks(rows), new)
        reference_rows_csv(dict_rows(rows), ref, CSV_COLUMNS)
        assert new.getvalue() == ref.getvalue()
        assert "-0.0,3" in new.getvalue() and ",True,3," in new.getvalue()

    @pytest.mark.parametrize("seed,count", [(1, 0), (2, 1), (3, 50), (5, 3000)])
    def test_json_rows_match_the_dump(self, seed, count):
        fixed = {"command": "scan", "mode": "exhaustive", "seed": None}
        for rows in (random_rows(seed, count), self.equal_tail_rows()):
            new, ref = io.StringIO(), io.StringIO()
            cli.emit_rows_json(fixed, *in_blocks(rows), new)
            emit_json({**fixed, "rows": dict_rows(rows)}, ref)
            assert new.getvalue() == ref.getvalue()

    def test_first_fields_the_csv_module_quotes(self):
        heads = ["", "a b", 'x"y', "a\nb", "a\rb", "tab\t", "\u00e9,\u00e9", ",", '"',
                 "links:0,1", "chain", None, 7, -0.0, True]
        rows = [(h, tail) for h, (_, tail) in zip(heads, random_rows(6, len(heads)))]
        new, ref = io.StringIO(), io.StringIO()
        emit_rows_csv(*in_blocks(rows), new)
        reference_rows_csv(dict_rows(rows), ref, CSV_COLUMNS)
        assert new.getvalue() == ref.getvalue()

    def test_rows_span_several_blocks(self):
        # 3,000 rows with repeating tails, and two rows longer than a block
        rows = [(f"links:{i}", tail) for i, (_, tail) in
                enumerate(random_rows(7, 20) * 150)]
        rows[100] = ("loop:" + ",".join(map(str, range(3000))), rows[100][1])
        rows[101] = (rows[100][0], rows[101][1])

        class Recording(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        new, ref = Recording(), io.StringIO()
        emit_rows_csv(*in_blocks(rows), new)
        reference_rows_csv(dict_rows(rows), ref, CSV_COLUMNS)
        assert new.getvalue() == ref.getvalue()
        long_rows = [n for n in new.sizes if n > cli.BLOCK_CHARS]
        assert len(long_rows) == 2 and len(new.sizes) > 10
        assert all(len(rows[100][0]) < n < len(rows[100][0]) + 512 for n in long_rows)


def _cli_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(flipent.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # keep the default buffered stdout
    return env


def assert_write_failure(returncode, err):
    assert returncode == 4
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: cannot write output: ")


class TestOutputFailures:
    def test_closed_pipe_exit_4(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "flipent.cli",
             "scan", "--lattice", "torus:k=2", "--mode", "exhaustive"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_cli_env(),
        )
        proc.stdout.close()  # before the child writes anything
        _, err = proc.communicate(timeout=60)
        assert_write_failure(proc.returncode, err)
        assert err == "error: cannot write output: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            # small output: fails at the final flush
            ["lattice-info", "--lattice", "torus:k=3"],
            # larger than the stdout buffer: fails inside the emitter
            ["scan", "--lattice", "torus:k=2", "--format", "json"],
            # streamed: fails at the first full buffer, long before the last row
            ["scan", "--lattice", "torus:k=3", "--mode", "exhaustive"],
        ],
        ids=["lattice-info", "scan-json", "scan-exhaustive-k3"],
    )
    def test_full_device_exit_4(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "flipent.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=_cli_env(), timeout=60,
            )
        assert_write_failure(proc.returncode, proc.stderr)
        assert proc.stderr.endswith("No space left on device\n")

    def test_device_full_mid_stream_exit_4(self):
        limit = 12 << 10
        proc = subprocess.run(
            [sys.executable, "-c", FILLS_UP, str(limit),
             "scan", "--lattice", "torus:k=3", "--mode", "exhaustive"],
            capture_output=True, text=True, env=_cli_env(), timeout=60,
        )
        assert_write_failure(proc.returncode, proc.stderr)
        assert proc.stderr == "error: cannot write output: No space left on device\n"
        # rows went out before the device filled
        assert proc.stdout.startswith(",".join(CSV_COLUMNS) + "\nlinks:0,")
        assert len(proc.stdout) <= limit


# A child's stdout that raises ENOSPC once LIMIT bytes have gone out, as a
# full disk would, until `main` points descriptor 1 at the null device.
FILLS_UP = """
import errno, io, os, stat, sys
from flipent.cli import main


class FillsUp(io.RawIOBase):
    def __init__(self, limit):
        self.left = limit

    def writable(self):
        return True

    def fileno(self):
        return 1

    def write(self, data):
        if len(data) > self.left and stat.S_ISFIFO(os.fstat(1).st_mode):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.left -= len(data)
        return os.write(1, data)


limit, *argv = sys.argv[1:]
sys.stdout = io.TextIOWrapper(io.BufferedWriter(FillsUp(int(limit))), "utf-8")
sys.exit(main(argv))
"""
