"""Shared pieces of the benchmark: statistics, run records, the rate ladder.

Every workload returns a :class:`Outcome`; :mod:`run` turns it into the
printed record. Nothing here imports :mod:`repro`, so ``run.py`` can refuse
to start (and say why) in a tree without the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Geometric rate ladder (events/second) shared by every workload's
#: ``sustainable_eps``. Rungs are 5% apart so that a capacity sitting on a
#: rung boundary moves the reported rung by at most 5%.
LADDER_BASE_EPS = 100.0
LADDER_RATIO = 1.05
LADDER_RUNGS = 80

#: Latency limit a rung's p99 must meet to count as sustainable.
LATENCY_LIMIT_MS = 500.0
#: Latency growth (seconds per second of schedule) above which a rung's
#: backlog counts as growing.
MAX_BACKLOG_GROWTH = 0.05

#: RTEC window (omega) and query-time step of the streaming workloads.
WINDOW = 600
STEP = 60


def ladder() -> List[float]:
    return [round(LADDER_BASE_EPS * LADDER_RATIO ** k, 1) for k in range(LADDER_RUNGS)]


def backlog_growth(dues_s: Sequence[float], latencies_ms: Sequence[float]) -> float:
    """How fast latency grows, in seconds per second of schedule: the
    median latency of the last third of the samples minus that of the
    first third, over the time between them. About 0 while the system
    keeps up; medians keep a few slow replies from reading as a backlog."""
    count = min(len(dues_s), len(latencies_ms))
    third = count // 3
    if third < 2:
        return 0.0
    first = statistics.median(latencies_ms[:third]) / 1e3
    last = statistics.median(latencies_ms[count - third:count]) / 1e3
    span = (statistics.mean(dues_s[count - third:count]) - statistics.mean(dues_s[:third]))
    return (last - first) / span if span > 0 else 0.0


def rung_holds(dues_s: Sequence[float], latencies_ms: Sequence[float]) -> bool:
    """A rung holds if its p99 latency meets the limit and its backlog does
    not grow."""
    return (
        percentile(latencies_ms, 99) <= LATENCY_LIMIT_MS
        and backlog_growth(dues_s, latencies_ms) <= MAX_BACKLOG_GROWTH
    )


def ladder_search(start_rate: float, stride: int):
    """Search the ladder for its highest rung that holds.

    A generator: it yields the rate to try next and is sent whether that
    rung held; its return value is the index of the highest rung that held
    (-1 when none did). It gallops ``stride`` rungs at a time from the rung
    nearest ``start_rate`` — up while rungs hold, down while they fail —
    then steps single rungs up from the highest rung that held."""
    rungs = ladder()
    index = min(range(len(rungs)), key=lambda k: abs(rungs[k] - start_rate))
    if (yield rungs[index]):
        best, failed = index, len(rungs)
        while best + stride < len(rungs):
            if not (yield rungs[best + stride]):
                failed = best + stride
                break
            best += stride
    else:
        best, failed = index - stride, index
        while best >= 0 and not (yield rungs[best]):
            failed, best = best, best - stride
        best = max(best, -1)
    probe = best + 1
    while probe < failed and (yield rungs[probe]):
        best, probe = probe, probe + 1
    return best


def highest_rung(holds, start_rate: float, stride: int) -> float:
    """The highest ladder rate for which ``holds(rate)`` is true (the ladder
    base when none is)."""
    search = ladder_search(start_rate, stride)
    try:
        rate = next(search)
        while True:
            rate = search.send(bool(holds(rate)))
    except StopIteration as stop:
        index = stop.value
    return ladder()[index] if index >= 0 else LADDER_BASE_EPS


#: Seconds :func:`reference_loop` takes at the reference speed (see
#: :class:`Reference`); on a shared 2-vCPU x86-64 VM it takes 0.022 to
#: 0.05 s as the host's load changes.
REFERENCE_S = 0.030


def reference_loop(iterations: int = 60000) -> int:
    """A fixed piece of pure-Python work, independent of the program: dict
    updates, tuple keys, string formatting and a sort."""
    table: Dict[tuple, int] = {}
    labels: List[str] = []
    for i in range(iterations):
        key = (i % 211, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 3 == 0:
            labels.append("%d:%d" % key)
    total = 0
    for (left, right), value in sorted(table.items(), key=lambda item: (item[1], item[0])):
        total += left * right + len(labels[value % len(labels)])
    return total


def loop_seconds() -> float:
    """Seconds one :func:`reference_loop` takes now."""
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU, so that :class:`Reference` times the
    core the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference:
    """Reports durations of in-process work at the reference speed.

    On a shared host the speed of a core drifts by up to 2x within seconds
    and over minutes with its neighbours' load, so the same work takes
    different times in different runs however long each run is. A workload
    that runs in this process pins it to one CPU (:func:`pin_to_one_cpu`)
    and times :func:`reference_loop` before its first unit of work and
    after each unit (never during one); :meth:`factor` is
    :data:`REFERENCE_S` over the mean of the loop times on either side of a
    unit, and :meth:`scale` reports a unit's duration times that factor. The
    loop slows down with the program, so a scaled time moves with the
    program's own work and much less with the host's load. ``raw`` and
    ``scaled`` keep every duration passed to :meth:`scale`."""

    def __init__(self) -> None:
        self.loop_s = [loop_seconds()]
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def factor(self) -> float:
        """Time the loop again: the factor to the reference speed for the
        work done since the previous loop."""
        self.loop_s.append(loop_seconds())
        return REFERENCE_S * 2.0 / (self.loop_s[-2] + self.loop_s[-1])

    def scale(self, elapsed: float) -> float:
        """Record a unit that took ``elapsed`` seconds since the last loop."""
        value = elapsed * self.factor()
        self.raw.append(elapsed)
        self.scaled.append(value)
        return value


def per_unit_median(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise median of equally long lists of durations: each unit of
    work over its repeats."""
    lengths = {len(durations) for durations in repeats}
    if len(lengths) != 1:
        raise ValueError("repeats timed different numbers of units: %s" % sorted(lengths))
    return [median(column) for column in zip(*repeats)]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    """High-water resident set of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """High-water resident set (VmHWM) of another live process, in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: metric name -> (value, unit)
    metrics: Dict[str, "tuple[float, str]"] = field(default_factory=dict)
    #: metric name -> number of samples behind it
    samples: Dict[str, int] = field(default_factory=dict)
    #: input sizes of the run (events, tiles, sessions, ...)
    sizes: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: one line per failed output check; empty means every check passed
    mismatches: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = samples

    @property
    def correct(self) -> bool:
        return not self.mismatches


def source_digest(root: str) -> str:
    """SHA-256 over the program sources (``src/**/*.py``), path-ordered."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root: str) -> Optional[str]:
    """The checkout's commit, or ``None`` unless ``root`` is the top of a
    git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def environment(root: str) -> Dict[str, object]:
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def emit(record: Dict[str, object], outcome: Outcome) -> None:
    """Print the human-readable lines, the full record, then the result line."""
    for name, (value, unit) in outcome.metrics.items():
        count = outcome.samples.get(name)
        suffix = "  (n=%d)" % count if count is not None else ""
        print("%-34s %14.6g %-6s%s" % (name, value, unit, suffix))
    print("%-34s %14.6g %-6s  (n=%d)" % ("failed_share", outcome.failed / float(
        max(1, outcome.attempted)), "share", outcome.attempted))
    for line in outcome.mismatches:
        print("CHECK FAILED: %s" % line)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
