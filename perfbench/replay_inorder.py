"""Workload ``replay-inorder``: one in-process session over the stream.

The maritime gold event description over a ``build_dataset(seed, ...)``
stream, driven through one ``RTECSession`` (its defaults:
incremental, ``pure`` kernels) with omega=600 and step=60, events in
timestamp order. At each step boundary ``q`` the events in ``(q - 60, q]``
are submitted and the session advances to ``q``. Every advance after the
first takes the delta path. There is no protocol, queue, checkpoint or late
data: this is the single-threaded baseline of the serving job.

The stream is replayed in four passes, each through a fresh engine and
session, rather than tiled into one long stream, and a quarter of the
(several times slower) full-recompute oracle runs between consecutive
passes. The process is pinned to one CPU; each pass's times are scaled to
the reference speed by the reference loop timed just before and after it
(``common.Reference``), and every advance is reported as its median over
the passes. The work is fixed (four copies of the stream), so
``--seconds`` does not change it. Each pass's final detections must
equal, byte for byte, those of the full-recompute session
(``incremental=False``) given the same submissions and advances.

``sustainable_eps`` replays the measured service time of every advance
through a single-server queue fed at each ladder rate (the events of a
window arrive as the stream is paced at that rate) and reports the highest
rung at which the session would keep up.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import common
import oracle

SCALE = 0.1
TRAFFIC = 4
#: Passes over the stream. Each has its own engine, built (and timed as
#: set-up) beforehand; a quarter of the oracle runs after each, so the
#: passes sample the machine across the whole run rather than one stretch.
PASSES = 4
#: Advances run in smoke mode (a fraction of the stream).
SMOKE_ADVANCES = 30


def _setup(seed: int):
    from repro.maritime import build_dataset
    from repro.maritime.gold import gold_event_description
    from repro.rtec.engine import RTECEngine

    started = time.perf_counter()
    dataset = build_dataset(seed=seed, scale=SCALE, traffic=TRAFFIC)
    built = time.perf_counter()
    engine = RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)
    done = time.perf_counter()
    return dataset, engine, built - started, done - started


def _ops(dataset):
    """Every (query time, events) submission: the events in ``(q - step,
    q]`` for each step boundary ``q`` up to the last event."""
    events = list(dataset.stream)
    ops: List[Tuple[int, list]] = []
    index = 0
    last = dataset.stream.max_time or 0
    for query in range(0, last + common.STEP, common.STEP):
        batch = []
        while index < len(events) and events[index].time <= query:
            batch.append(events[index])
            index += 1
        ops.append((query, batch))
    return ops


def _drive(session, fluents, ops):
    """Submit and advance through ``ops``. Returns per-advance
    (submit+advance, advance) seconds and how many events were accepted."""
    for pair, intervals in fluents:
        session.submit_fluent(pair, intervals)
    durations: List[Tuple[float, float]] = []
    accepted = 0
    for query, batch in ops:
        started = time.perf_counter()
        accepted += session.submit(batch)
        submitted = time.perf_counter()
        session.advance(query)
        finished = time.perf_counter()
        durations.append((finished - started, finished - submitted))
    return durations, accepted


def _sustainable(ops, durations, density: float) -> float:
    """Highest ladder rung a single server with these service times keeps
    up with, when the stream is paced at the rung rate."""

    def holds(rate: float) -> bool:
        speed = rate / density
        finish = 0.0
        dues: List[float] = []
        latencies: List[float] = []
        first = ops[0][0]
        last_event = first
        for (_query, batch), (service, _advance) in zip(ops, durations):
            if batch:
                last_event = batch[-1].time
            due = (last_event - first) / speed
            finish = max(finish, due) + service
            dues.append(due)
            latencies.append((finish - due) * 1e3)
        return common.rung_holds(dues, latencies)

    return common.highest_rung(holds, 1000.0, 4)


class _Oracle:
    """The full-recompute session, advanced a chunk at a time between
    passes so that the passes are spread over the whole run."""

    def __init__(self, engine, fluents, ops) -> None:
        from repro.rtec.session import RTECSession

        self.session = RTECSession(engine, common.WINDOW, incremental=False,
                                   backend=oracle.BACKEND)
        for pair, intervals in fluents:
            self.session.submit_fluent(pair, intervals)
        self.ops = ops
        self.done = 0

    def step(self, count: int) -> None:
        for query, batch in self.ops[self.done:self.done + count]:
            self.session.submit(batch)
            self.session.advance(query)
        self.done = min(len(self.ops), self.done + count)

    def result(self) -> str:
        self.step(len(self.ops))
        return oracle.canonical(self.session.result)


def run(root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> common.Outcome:
    from repro import telemetry
    from repro.rtec.session import RTECSession

    outcome = common.Outcome()
    common.pin_to_one_cpu()
    passes_wanted = 1 if smoke else PASSES
    setup_times = common.Reference()
    setups = []
    for _ in range(passes_wanted + int(trace)):
        setups.append(_setup(seed))
        setup_times.scale(setups[-1][3])
    dataset = setups[0][0]
    density = len(dataset.stream) / float((dataset.stream.max_time or 0) + 1)
    fluents = list(dataset.input_fluents.items())
    ops = _ops(dataset)
    if smoke:
        ops = ops[:SMOKE_ADVANCES]
    event_count = sum(len(batch) for _query, batch in ops)
    reference = _Oracle(setups[0][1], fluents, ops)
    chunk = -(-len(ops) // passes_wanted)

    # Passes over the same input, each with a fresh engine and session; a
    # chunk of the oracle runs after each, outside the timed region.
    passes = []  # (durations at the reference speed, accepted, canonical result)
    measured = []  # pass times as measured
    for index in range(passes_wanted):
        session = RTECSession(setups[index][1], common.WINDOW, backend="pure")
        mark = common.Reference()
        durations, accepted = _drive(session, fluents, ops)
        factor = mark.factor()
        measured.append(sum(item[0] for item in durations))
        passes.append(([(total * factor, advance * factor) for total, advance in durations],
                       accepted, oracle.canonical(session.result)))
        if index == 0:
            rss = common.peak_rss_mb_self()  # before any oracle work
        reference.step(chunk)
    results = {"pass %d" % index: text for index, (_d, _a, text) in enumerate(passes)}
    # Every advance (with its submit) as its median over the passes.
    median_total = common.per_unit_median([[item[0] for item in d] for d, _a, _t in passes])
    median_advance = common.per_unit_median([[item[1] for item in d] for d, _a, _t in passes])
    medians = list(zip(median_total, median_advance))
    untraced_s = sum(median_total)
    if trace:
        import layers

        timers = layers.CallTimers()
        timers.patch_kernels()
        # A fresh engine, like every untraced pass had.
        session = RTECSession(setups[-1][1], common.WINDOW, backend="pure")
        with telemetry.enabled() as tracer:
            traced, _accepted = _drive(session, fluents, ops)
        timers.restore()
        results["traced pass"] = oracle.canonical(session.result)
        outcome.notes["trace"] = layers.collect(
            tracer, timers,
            **{"maritime.build_s": common.median([item[2] for item in setups]),
               "telemetry.overhead_share":
                   sum(item[0] for item in traced) / common.median(measured) - 1.0})

    expected = reference.result()
    for label, text in results.items():
        oracle.check(outcome, "%s replay detections" % label, text, expected, smoke)
    outcome.attempted = (event_count + len(ops)) * len(passes)
    outcome.failed = sum(event_count - accepted for _d, accepted, _t in passes)
    outcome.sizes.update({
        "scale": SCALE, "traffic": TRAFFIC, "window": common.WINDOW, "step": common.STEP,
        "events": event_count, "advances": len(ops), "passes": len(passes),
    })
    if trace:
        return outcome

    advance_ms = [item[1] * 1e3 for item in medians]
    outcome.notes["measured"] = {"wall_s": common.median(measured),
                                 "setup_s": common.median(setup_times.raw)}
    outcome.put("setup_s", common.median(setup_times.scaled), "s", samples=len(setups))
    outcome.put("wall_s", untraced_s, "s", samples=len(passes))
    outcome.put("throughput_eps", event_count / untraced_s, "ev/s", samples=event_count)
    outcome.put("latency_p50_ms", common.percentile(advance_ms, 50), "ms",
                samples=len(advance_ms))
    outcome.put("latency_p99_ms", common.percentile(advance_ms, 99), "ms",
                samples=len(advance_ms))
    outcome.put("sustainable_eps", _sustainable(ops, medians, density), "ev/s")
    outcome.put("ok_share", 1.0 - outcome.failed / float(outcome.attempted), "share",
                samples=outcome.attempted)
    outcome.put("peak_rss_mb", rss, "MiB")
    return outcome
