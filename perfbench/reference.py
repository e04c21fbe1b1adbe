"""The reference loop that the harness runs beside every timed child.

Usage::

    python3 perfbench/reference.py CPU

The process pins itself to CPU, lowers its priority by ``NICE`` and writes
one byte to stdout when it is ready. It then repeats two fixed pieces of
pure-Python work in turn, ``chunk`` and ``memory_chunk``, until SIGTERM,
and finally writes one record per chunk to stdout: the ``perf_counter``
time at which the chunk ended, the CPU time it took and its kind (0 for
``chunk``, 1 for ``memory_chunk``), as packed float64 triples. If its
parent is gone without stopping it, it exits 1 and writes nothing.

The harness pins each timed child to the same CPU. The scheduler then
interleaves the two processes in slices of a few milliseconds, so the
chunks that end while a child runs show how fast that CPU was for the
child. The speed of a shared host drifts, by up to a factor of two in
phases that last minutes, and not by the same factor for all code: hence
the two kinds. This file is part of the measurement: changing a chunk
changes every scaled figure.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from array import array

#: niceness of the reference, so that it takes about a tenth of the CPU
NICE = 10

#: 2**20 pointers to distinct int objects, about 36 MB: far past the L2 cache
TABLE = list(range(1 << 20, 2 << 20))


def chunk(n: int = 4000) -> int:
    """Fixed work in the idiom of flipent: integer arithmetic, bit masks on
    a wide integer, dict and list traffic and function calls."""
    acc = 0
    wide = (1 << 2048) - 12345
    table: dict[int, int] = {}
    row: list[int] = []
    for i in range(n):
        acc += i * i % 7
        table[i & 255] = acc
        if i & 7 == 0:
            wide ^= (wide >> 3) & ((1 << 2048) - 1)
            row.append(wide.bit_count())
    return acc + len(row) + len(table)


def memory_chunk(reads: int = 1500) -> int:
    """Half a ``chunk``, then reads at pseudo-random places of ``TABLE``."""
    acc = chunk(2000)
    table, n = TABLE, len(TABLE)
    j = acc
    for _ in range(reads):
        j = (j * 1103515245 + 12345) % n
        acc ^= table[j]
    return acc


def main(argv: list[str]) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    records = array("d")
    clock, cpu = time.perf_counter, time.process_time
    out = sys.stdout.buffer
    out.write(b"r")
    out.flush()
    kinds = ((0.0, chunk), (1.0, memory_chunk))
    parent = os.getppid()
    while not stop:
        for kind, work in kinds:
            c0 = cpu()
            work()
            records.extend((clock(), cpu() - c0, kind))
        if os.getppid() != parent:  # the harness died without stopping us
            return 1
    out.write(records.tobytes())
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
