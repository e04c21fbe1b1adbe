"""Golden corpus: recorded stdout, stderr and exit codes of the CLI and demos.

Each case in ``golden/cases.json`` names an argument list (or a demo
script) and its exit code; ``golden/<name>.stdout`` and
``golden/<name>.stderr`` hold the bytes it printed.  CLI cases run in
process through `flipent.cli.main`, with ``golden/`` as the working
directory so that document paths (and the ``lattice`` field that echoes
them) stay the same wherever the suite runs.  Demo cases run the script
in a child process.

A refactor must leave every case byte-identical.  An intended change of
output is recorded again with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO = GOLDEN.parent.parent
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case."""
    if "demo" in case:
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO / "demos" / case["demo"])],
            capture_output=True,
            text=True,
            env=env,
            cwd=GOLDEN,
        )
        return proc.returncode, proc.stdout, proc.stderr

    from flipent.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(case["argv"]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def read(name: str, stream: str) -> str:
    return (GOLDEN / f"{name}.{stream}").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case):
    code, out, err = run_case(case)
    assert code == case["exit"]
    assert out == read(case["name"], "stdout")
    assert err == read(case["name"], "stderr")


def test_corpus_is_complete():
    names = [c["name"] for c in CASES]
    assert len(names) == len(set(names))
    recorded = {p.stem for p in GOLDEN.glob("*.stdout")}
    assert recorded == set(names)


def record() -> None:
    for case in CASES:
        code, out, err = run_case(case)
        case["exit"] = code
        for stream, text in (("stdout", out), ("stderr", err)):
            (GOLDEN / f"{case['name']}.{stream}").write_text(text, encoding="utf-8")
    text = json.dumps(CASES, indent=1) + "\n"
    (GOLDEN / "cases.json").write_text(text, encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
