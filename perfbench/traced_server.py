"""Run ``repro serve`` with the tracer and the benchmark's call timers on.

Usage::

    python3 perfbench/traced_server.py OUT.json serve --tcp 127.0.0.1:0 ...

Everything after ``OUT.json`` is passed to the ``repro`` command line.
When the server shuts down, the layer table (see ``layers.collect``) is
written to ``OUT.json``. The wrapping is done from outside the program:
the ``repro.telemetry`` tracer, timers around ``decode_line``,
``parse_event_term``, the interval kernels and ``certify_description``,
and a session ingest queue that stamps each item when it is enqueued so
its wait can be measured when the worker takes it.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


class _Waits:
    items = 0
    seconds = 0.0


class TimedQueue(asyncio.Queue):
    """An ingest queue that records how long each item waited in it."""

    def _init(self, maxsize):  # noqa: D401 - asyncio.Queue storage hooks
        super()._init(maxsize)
        self._stamps = deque()

    def _put(self, item):
        self._stamps.append(time.perf_counter())
        super()._put(item)

    def _get(self):
        _Waits.seconds += time.perf_counter() - self._stamps.popleft()
        _Waits.items += 1
        return super()._get()


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    import layers
    from repro import telemetry
    from repro.cli import main as repro_main
    from repro.serve import sessions

    timers = layers.CallTimers()
    timers.patch("decode_line", "repro.serve.protocol", "decode_line")
    timers.patch("parse_event_term", "repro.serve.protocol", "parse_event_term")
    timers.patch("certify", "repro.analysis.certify", "certify_description")
    timers.patch_kernels()
    original_init = sessions.ManagedSession.__init__

    def init_with_timed_queue(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.queue = TimedQueue()

    sessions.ManagedSession.__init__ = init_with_timed_queue
    tracer = telemetry.enable()
    try:
        return repro_main(args)
    finally:
        telemetry.disable()
        timers.restore()
        sessions.ManagedSession.__init__ = original_init
        table = layers.collect(tracer, timers, queue_wait={
            "items": _Waits.items, "seconds": _Waits.seconds})
        with open(out, "w") as handle:
            json.dump(table, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
