"""Run one flipent CLI invocation in process with its layers traced.

Usage::

    python3 perfbench/traced_cli.py SUMMARY.json SPANS.bin CLI-ARG...

``flipent`` must be importable (put the repository's ``src`` on
``PYTHONPATH``). Every public function of the modules in ``LAYERS`` is
wrapped, and so are the ``METHODS`` listed below; the small value-type
methods (``Partition``, ``FlipVector``, ...) are not, so their time counts
toward their caller. A wrapper is rebound in every ``flipent`` module that
holds the original, because ``from .x import y`` copies the reference.

Each call records a span: name, parent span, start and end. Spans stay in
memory and are written to SPANS.bin when the invocation ends, as four
packed arrays one after another: name ids (uint16), parent span indices
(int32, -1 for a root), starts and ends (float64 seconds, perf_counter).
SUMMARY.json holds the span names and, per name, the call count, the self
time (duration minus the time covered by child spans) and the total time,
plus the byte and case counters. The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("gf2", "lattice", "engine", "oracle", "verify", "cli")
METHODS = {
    "gf2.Gf2Matrix": ("rank", "restricted_rank", "trivial_on_dimension", "reduce", "contains"),
    "lattice.Lattice": ("star_masks", "plaquette_masks"),
}


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.max_bytes = {"state_bytes": 0, "rho_bytes": 0}
        self.verify_cases = 0
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        clock = time.perf_counter
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(result)
            return result

        return traced

    def _max_bytes(self, key):
        def observe(arr):
            self.max_bytes[key] = max(self.max_bytes[key], arr.nbytes)
        return observe

    def _count_cases(self, results):
        self.verify_cases += len(results)

    def install(self) -> None:
        """Wrap the layers and rebind each wrapper wherever it is referenced."""
        observers = {
            "oracle.build_ground_state": self._max_bytes("state_bytes"),
            "oracle.reduced_density_matrix": self._max_bytes("rho_bytes"),
            "verify.verify_partitions": self._count_cases,
        }
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"flipent.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, observers.get(name))
        for owner, methods in METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(importlib.import_module(f"flipent.{layer}"), cls_name)
            for attr in methods:
                setattr(cls, attr, self.wrap(f"{owner}.{attr}", vars(cls)[attr]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "flipent" or mod_name.startswith("flipent."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(mod, attr, replaced[id(obj)])

    def summary(self) -> dict:
        return {
            "names": self.names,
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "total_s": dict(zip(self.names, self.total_s)),
            "spans": len(self.starts),
            "verify_cases": self.verify_cases,
            **self.max_bytes,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[2:]
    import flipent.cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = flipent.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["exit"] = code
        # set after the command, so an import that the command caused counts
        summary["numpy_imported"] = int("numpy" in sys.modules)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
