"""Per-layer measurement: the traced run's layer table and its metrics.

Two sources, both outside the program's code:

* the ``repro.telemetry`` tracer, switched on for the traced run. Its
  spans give each stage's time; a stage's *self* time is its span time
  minus the time of its child spans. Its counters give the work counts.
* :class:`CallTimers`, which wraps public functions of a layer (for
  example ``union_all`` or ``decode_line``) wherever the program's modules
  bound them, and times the outermost call of each group.

:func:`collect` turns both into one JSON-ready layer table;
:func:`per_layer` turns a workload's table into the per-layer metrics, all
of them on every workload (0 where a workload does not exercise a layer).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import common

#: (metric name, unit), in the order they are printed.
METRICS: List[Tuple[str, str]] = [
    ("maritime.build_s", "s"),
    ("rtec.advance_s", "s"),
    ("rtec.advances", "count"),
    ("rtec.delta_hit_ratio", "ratio"),
    ("rtec.buffered_events", "count"),
    ("rtec.cached_fvps", "count"),
    ("rtec.window_s", "s"),
    ("rtec.window_delta_s", "s"),
    ("rtec.simple_s", "s"),
    ("rtec.rule_s", "s"),
    ("rtec.rule_calls", "count"),
    ("rtec.cond_sol_per_eval", "ratio"),
    ("rtec.static_s", "s"),
    ("rtec.static_seeds", "count"),
    ("intervals.kernel_s", "s"),
    ("intervals.kernel_calls", "count"),
    ("intervals.union_all_s", "s"),
    ("intervals.union_all_calls", "count"),
    ("intervals.intersect_s", "s"),
    ("intervals.intersect_calls", "count"),
    ("intervals.complement_s", "s"),
    ("intervals.complement_calls", "count"),
    ("serve.protocol.lines", "count"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.reject", "count"),
    ("serve.queue_peak", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.windows", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("serve.dropped", "count"),
    ("serve.invalid", "count"),
    ("serve.checkpoint_s", "s"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.checkpoints", "count"),
    ("similarity.description_s", "s"),
    ("similarity.km_cells", "count"),
    ("similarity.rule_distance_calls", "count"),
    ("analysis.repair_s", "s"),
    ("analysis.repair_iterations", "count"),
    ("analysis.certify_s", "s"),
    ("analysis.admission_certify_s", "s"),
    ("analysis.lint_s", "s"),
    ("llm.pipeline_s", "s"),
    ("llm.calls", "count"),
    ("generation.correction_s", "s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("telemetry.overhead_share", "share"),
]

#: Kernel operations timed by ``CallTimers``: label -> (module, function).
KERNELS = {
    "union_all": ("repro.intervals.operations", "union_all"),
    "intersect": ("repro.intervals.operations", "intersect_all"),
    "complement": ("repro.intervals.operations", "relative_complement_all"),
}


class CallTimers:
    """Time calls to public functions of the program, from outside it.

    :meth:`patch` replaces a function in its defining module and in every
    ``repro`` module that imported it by name; :meth:`restore` undoes
    every patch. Calls are grouped: a call made while another call of the
    same group is running on the same thread is not timed again, so a
    group's time never counts nested work twice.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, label: str, group: str, function: Callable) -> Callable:
        timers = self
        self.calls.setdefault(label, 0)
        self.seconds.setdefault(label, 0.0)

        def timed(*args, **kwargs):
            active = getattr(timers._local, "active", None)
            if active is None:
                active = timers._local.active = set()
            if group in active:
                return function(*args, **kwargs)
            active.add(group)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                active.discard(group)
                with timers._lock:
                    timers.calls[label] += 1
                    timers.seconds[label] += elapsed

        timed.__wrapped__ = function  # type: ignore[attr-defined]
        return timed

    def patch(self, label: str, module_name: str, name: str, group: Optional[str] = None) -> None:
        __import__(module_name)
        original = getattr(sys.modules[module_name], name)
        timed = self.wrap(label, group or label, original)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith("repro"):
                continue
            if getattr(module, name, None) is original:
                self._undo.append((module, name, original))
                setattr(module, name, timed)

    def patch_kernels(self) -> None:
        for label, (module_name, name) in KERNELS.items():
            self.patch(label, module_name, name, group="kernel")

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {label: {"calls": self.calls[label], "seconds": self.seconds[label]}
                for label in self.calls}


def span_table(report) -> Dict[str, object]:
    """Per span name: calls, total and self seconds, summed counters and
    per-span counter maxima; plus counters summed over every span."""
    stages: Dict[str, Dict[str, object]] = {}
    totals: Dict[str, int] = dict(report.counters)

    def visit(span) -> None:
        stage = stages.get(span.name)
        if stage is None:
            stage = stages[span.name] = {"calls": 0, "total": 0.0, "self": 0.0,
                                         "counters": {}, "max": {}}
        duration = span.duration or 0.0
        children = sum(child.duration or 0.0 for child in span.children)
        stage["calls"] += 1  # type: ignore[operator]
        stage["total"] += duration  # type: ignore[operator]
        stage["self"] += max(0.0, duration - children)  # type: ignore[operator]
        for key, value in span.counters.items():
            counters = stage["counters"]  # type: ignore[assignment]
            counters[key] = counters.get(key, 0) + value  # type: ignore[index,union-attr]
            maxima = stage["max"]  # type: ignore[assignment]
            maxima[key] = max(maxima.get(key, 0), value)  # type: ignore[index,union-attr]
            totals[key] = totals.get(key, 0) + value
        for child in span.children:
            visit(child)

    for root in report.roots:
        visit(root)
    return {"stages": stages, "counters": totals}


def collect(tracer, timers: CallTimers, **extra) -> Dict[str, object]:
    """The layer table of one traced region (JSON-ready)."""
    table = span_table(tracer.report())
    table["timers"] = timers.to_dict()
    table.update(extra)
    return table


def _stage(table: Dict[str, object], name: str, field: str) -> float:
    stage = table.get("stages", {}).get(name)  # type: ignore[union-attr]
    return float(stage[field]) if stage else 0.0


def _stage_counter(table: Dict[str, object], name: str, counter: str, kind: str = "counters"):
    stage = table.get("stages", {}).get(name)  # type: ignore[union-attr]
    return float(stage[kind].get(counter, 0)) if stage else 0.0


def _counter(table: Dict[str, object], name: str) -> float:
    return float(table.get("counters", {}).get(name, 0))  # type: ignore[union-attr]


def _timer(table: Dict[str, object], label: str, field: str) -> float:
    entry = table.get("timers", {}).get(label)  # type: ignore[union-attr]
    return float(entry[field]) if entry else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def table_metrics(table: Dict[str, object]) -> Dict[str, float]:
    """The metrics one layer table yields (layers it lacks read 0)."""
    counters = table.get("counters", {})
    evals = sum(v for k, v in counters.items() if k.startswith("cond.") and k.endswith(".eval"))
    sols = sum(v for k, v in counters.items() if k.startswith("cond.") and k.endswith(".sol"))
    hits = _stage_counter(table, "rtec.advance", "delta_hits")
    misses = _stage_counter(table, "rtec.advance", "delta_misses")
    values = {
        "rtec.advance_s": _stage(table, "rtec.advance", "total"),
        "rtec.advances": _stage(table, "rtec.advance", "calls"),
        "rtec.delta_hit_ratio": _ratio(hits, hits + misses),
        "rtec.buffered_events": _stage_counter(table, "rtec.advance", "buffered", "max"),
        "rtec.cached_fvps": _stage_counter(table, "rtec.advance", "cached_fvps", "max"),
        "rtec.window_s": _stage(table, "rtec.window", "total"),
        "rtec.window_delta_s": _stage(table, "rtec.window_delta", "total"),
        "rtec.simple_s": _stage(table, "rtec.simple", "self"),
        "rtec.rule_s": _stage(table, "rtec.rule", "self"),
        "rtec.rule_calls": _stage(table, "rtec.rule", "calls"),
        "rtec.cond_sol_per_eval": _ratio(sols, evals),
        "rtec.static_s": _stage(table, "rtec.static", "self"),
        "rtec.static_seeds": _counter(table, "seeds"),
        "similarity.description_s": _stage(table, "similarity.description", "total"),
        "similarity.km_cells": _counter(table, "kuhn_munkres.cells"),
        "similarity.rule_distance_calls": _counter(table, "rule_distance.calls"),
        "analysis.repair_s": _stage(table, "analysis.repair", "total"),
        "analysis.repair_iterations": _stage_counter(table, "analysis.repair", "iterations"),
        "analysis.certify_s": _timer(table, "certify", "seconds"),
        "analysis.lint_s": _timer(table, "analyse", "seconds"),
        "llm.pipeline_s": _stage(table, "llm.pipeline", "total"),
        "llm.calls": _stage_counter(table, "llm.pipeline", "prompt_rounds"),
        "generation.correction_s": _stage(table, "llm.correction", "total"),
    }
    kernel_s = kernel_calls = 0.0
    for label in KERNELS:
        seconds = _timer(table, label, "seconds")
        calls = _timer(table, label, "calls")
        values["intervals.%s_s" % label] = seconds
        values["intervals.%s_calls" % label] = calls
        kernel_s += seconds
        kernel_calls += calls
    values["intervals.kernel_s"] = kernel_s
    values["intervals.kernel_calls"] = kernel_calls
    return values


def per_layer(workload: str, outcome: common.Outcome) -> common.Outcome:
    """Replace a traced run's metrics by every per-layer metric."""
    trace = outcome.notes.get("trace") or {}
    if workload == "serve-disorder":
        values = table_metrics(trace.get("server") or {})
        values.update(_serve_metrics(trace))
    else:
        values = table_metrics(trace)
    for name in ("maritime.build_s", "telemetry.overhead_share",
                 "loadgen.lag_p99_ms", "loadgen.lag_max_ms"):
        if name in trace:
            values[name] = float(trace[name])
    outcome.metrics.clear()
    for name, unit in METRICS:
        outcome.put(name, values.get(name, 0.0), unit)
    return outcome


def _serve_metrics(trace: Dict[str, object]) -> Dict[str, float]:
    server = trace.get("server") or {}
    status = trace.get("status") or {}
    sessions = list(status.values())  # type: ignore[union-attr]

    def total(key: str) -> float:
        return float(sum(item.get(key, 0) or 0 for item in sessions))

    lines = _timer(server, "decode_line", "calls")
    parses = _timer(server, "parse_event_term", "calls")
    checkpoint_calls = _stage(server, "serve.checkpoint", "calls")
    sizes = trace.get("checkpoint_sizes") or []
    waits = server.get("queue_wait") or {}  # type: ignore[union-attr]
    return {
        "serve.protocol.lines": lines,
        "serve.protocol.decode_us": _ratio(_timer(server, "decode_line", "seconds") * 1e6, lines),
        "serve.protocol.parse_us": _ratio(
            _timer(server, "parse_event_term", "seconds") * 1e6, parses),
        "serve.protocol.reject": _counter(server, "protocol.reject"),
        "serve.queue_peak": float(max((item.get("queue_peak", 0) for item in sessions),
                                      default=0)),
        "serve.queue_wait_ms": _ratio(waits.get("seconds", 0.0) * 1e3, waits.get("items", 0)),
        "serve.windows": total("windows"),
        "serve.rejected": total("rejected"),
        "serve.retries": float(trace.get("rejections", 0)),
        "serve.dropped": total("dropped"),
        "serve.invalid": total("invalid"),
        "serve.checkpoint_s": _ratio(_stage(server, "serve.checkpoint", "total"),
                                     checkpoint_calls),
        "serve.checkpoint_bytes": _ratio(float(sum(sizes)), float(len(sizes))),
        "serve.checkpoints": total("checkpoints"),
        "analysis.admission_certify_s": _timer(server, "certify", "seconds"),
    }
