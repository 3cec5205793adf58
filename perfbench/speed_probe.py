"""Measure how fast one CPU runs while a server uses it.

Usage::

    python3 perfbench/speed_probe.py CPU OUT.json

The probe pins itself to ``CPU`` at ``SCHED_IDLE`` priority, so it runs
only when nothing else on that CPU wants to: a server sharing the CPU
preempts it as soon as it wakes. It times short chunks of
``common.reference_loop`` work until it receives SIGTERM, then writes the
chunks that ran without being preempted (thread CPU time at least 95% of
wall time) to ``OUT.json`` as ``[[start, seconds], ...]`` on the
``time.perf_counter`` clock, which processes on one machine share.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Iterations of ``common.reference_loop`` per chunk (about 2 ms).
CHUNK_ITERATIONS = 3000


def main(argv) -> int:
    cpu, out = int(argv[1]), argv[2]
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    chunks = []
    while not stopping:
        started, cpu_started = time.perf_counter(), time.thread_time()
        common.reference_loop(CHUNK_ITERATIONS)
        wall = time.perf_counter() - started
        if time.thread_time() - cpu_started >= 0.95 * wall:
            chunks.append([round(started, 6), wall])
    with open(out, "w") as handle:
        json.dump(chunks, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
