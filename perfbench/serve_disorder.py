"""Workload ``serve-disorder``: open-loop traffic into ``repro serve --tcp``.

The maritime stream is split across sessions by entity component
(``build_workload``), and 1% of its events (every 100th, from an offset
drawn from the seed) arrive 120 time units late: inside the window, so
each late event forces its session's next advance onto the full-recompute
fallback. After each step boundary the generator sends one ``query`` per
session, pinned to one fluent-value pair so that replies keep a constant
size. The server writes a checkpoint every few windows.

The load generator is open loop: one process, one connection, and a send
schedule fixed before each phase. It never waits for the server before
sending; replies carry no ``seq``, so it matches them to queries in
connection order. Each latency sample runs from the due time of the last
event sent before a query to the arrival of that query's reply. A run in
which the generator itself fell behind its schedule fails.

The server is pinned to one CPU and the generator (and the oracle) to the
others, so that neither takes the other's CPU. A speed probe
(``speed_probe.py``) shares the server's CPU at idle priority and times
short chunks of reference work whenever the server leaves the CPU idle;
each query's latency is scaled to the reference speed by the probe's chunks
from just before it was due until its reply (:class:`Speed`), as
``common.Reference`` scales in-process work. At the fixed rate the server
is idle most of the time, so the probe sees the CPU's speed throughout.

Phases, on one server and one continuous stream time; each replays the
beginning of the seeded stream (see :class:`Schedule`), so repeated phases
at one rate send the same queries on the same schedule:

1. the fixed rate ``FIXED_EPS`` for ``--seconds`` in all, as
   ``FIXED_REPEATS`` phases — ``latency_p50_ms`` / ``latency_p99_ms`` are
   percentiles of each query's median scaled latency over the repeats;
2. a search of the shared rate ladder (``common.ladder_search``), one
   ``RUNG_SECONDS`` phase per rung tried. A rung holds if every query is
   answered, p99 meets the latency limit and the backlog does not grow;
   ``sustainable_eps`` is the highest rung that held, as measured. The
   probe stops and the server and generator are unpinned before the
   ladder: near saturation the server leaves the probe no idle time.

``setup_s`` is the median of ``BOOTS`` server boots, each scaled by the
reference loop timed on the server's CPU just before and after it. Between phases the generator waits for the replies still due,
   so each starts without a backlog.

Every pinned reply, and each session's final full result, is compared with
full-recompute sessions fed the same arrival sequence (``oracle.py``).
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import common
import oracle

SCALE = 0.1
TRAFFIC = 4
SESSIONS = 3
LATE_SHARE = 0.01
LATE_BY = 120
CHECKPOINT_EVERY = 20
FIXED_EPS = 200.0
#: Phases the fixed-rate time is split into; each replays the same prefix.
FIXED_REPEATS = 3
#: Seconds a probe chunk (``speed_probe.py``) takes at the reference speed.
PROBE_CHUNK_S = 0.002
#: Probe chunks up to this long before a query's due time count for it.
PROBE_LEAD_S = 0.5
LADDER_START_EPS = 500.0
#: Rungs skipped per step while the ladder search gallops.
LADDER_STRIDE = 3
#: Rungs one ladder search may run.
MAX_RUNGS = 8
RUNG_SECONDS = 2.0
BOOTS = 3
BOOT_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0
#: A run whose generator sent later than this behind schedule (p99) is void.
MAX_GENERATOR_LAG_MS = 50.0


@dataclass
class Entry:
    """One scheduled send, due at ``due`` seconds into its phase."""

    due: float
    line: bytes
    kind: str  # "event" | "query" | "fluent"
    session: str
    time: int  # event time / query "at"
    text: str  # event term / query fvp / fluent fvp
    seq: int = -1
    pairs: Optional[List[List[int]]] = None  # fluent intervals


@dataclass
class Phase:
    rate: float
    entries: List[Entry]
    events: int
    queries: int
    kind: str  # "fixed" | "rung"
    #: filled by the run
    latencies_ms: List[float] = field(default_factory=list)
    #: when each reply arrived (``time.perf_counter``)
    arrivals: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    sent_first: float = 0.0
    replied_last: float = 0.0


def _query_fvps(dataset, workload) -> Dict[str, str]:
    """Per session, the ``withinArea`` pair of its most-entered area type.

    Fixed before the run from the inputs alone; every session's vessels
    enter areas, so the pinned pair carries detections in every phase."""
    area_type = {}
    for fact in dataset.kb.facts("areaType"):
        area_type[str(fact.args[0])] = str(fact.args[1])
    counts: Dict[str, Counter] = {name: Counter() for name in workload.sessions}
    for name, _time, term in workload.events:
        if term.startswith("entersArea("):
            vessel, area = [part.strip() for part in term[len("entersArea("):-1].split(",")]
            if area in area_type:
                counts[name]["withinArea(%s, %s)=true" % (vessel, area_type[area])] += 1
    chosen = {}
    for name in workload.sessions:
        ranked = sorted(counts[name].items(), key=lambda item: (-item[1], item[0]))
        chosen[name] = ranked[0][0] if ranked else "withinArea(none, none)=true"
    return chosen


def _delayed_order(workload, seed: int) -> List[Tuple[int, int, str, int, str]]:
    """(send time, order, session, event time, term) with every
    ``1 / LATE_SHARE``-th event (from an offset drawn from the seed) moved
    ``LATE_BY`` time units later in the send order. Even spacing keeps the
    number of late events per second of traffic the same in every run."""
    every = int(round(1.0 / LATE_SHARE))
    offset = random.Random(seed).randrange(every)
    routed = []
    for order, (name, event_time, term) in enumerate(workload.events):
        send_time = event_time
        if order % every == offset:
            send_time = event_time + LATE_BY
        routed.append((send_time, order, name, event_time, term))
    routed.sort()
    return routed


def _line(message: Dict[str, object]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


class Schedule:
    """Builds the phases of a run from the seeded stream.

    Every phase replays the beginning of the stream, shifted in time to
    start one step after the previous phase's last query, so every rung of
    the ladder sees the same content and stream time never jumps. Within a
    phase, stream time maps linearly onto wall time. The phase opens with the input-fluent intervals
    of its span; the queries for a step boundary ``b`` follow the last
    event sent at or before ``b`` and share its due time; the phase ends
    with a query on its last boundary."""

    def __init__(self, routed, fluents, sessions: List[str], fvps: Dict[str, str],
                 step: int) -> None:
        self.routed = routed
        self.fluents = fluents
        self.sessions = sessions
        self.fvps = fvps
        self.step = step
        self.origin = 0
        self.seq = 0

    def _queries(self, entries: List[Entry], due: float, boundary: int) -> None:
        for session in self.sessions:
            fvp = self.fvps[session]
            line = _line({"type": "query", "session": session, "at": boundary, "fvp": fvp})
            entries.append(Entry(due, line, "query", session, boundary, fvp))

    def fits(self, rate: float, seconds: float) -> bool:
        """Whether a phase this long stays within one copy of the stream."""
        return rate * seconds < len(self.routed)

    def phase(self, rate: float, seconds: float, kind: str) -> Phase:
        step, shift = self.step, self.origin
        # Pace the stream so that its first ``rate * seconds`` events take
        # ``seconds``: the phase sends at ``rate`` on average whatever the
        # density of the stream's beginning.
        span = max(1, self.routed[int(rate * seconds)][0])
        speed = span / seconds  # stream time units per second
        stop = (span // step + 1) * step
        entries: List[Entry] = []
        for name, fvp, pairs in self.fluents:
            clipped = [[start + shift, min(end, stop) + shift]
                       for start, end in pairs if start < stop]
            if clipped:
                line = _line({"type": "fluent", "session": name, "fvp": fvp,
                              "intervals": clipped})
                entries.append(Entry(0.0, line, "fluent", name, 0, fvp, pairs=clipped))
        events = 0
        boundary = step
        last_due = 0.0
        for send_time, _order, name, event_time, term in self.routed:
            if send_time > stop:
                break
            while send_time > boundary:
                self._queries(entries, last_due, boundary + shift)
                boundary += step
            due = send_time / speed
            line = _line({"type": "event", "session": name, "time": event_time + shift,
                          "term": term, "seq": self.seq})
            entries.append(Entry(due, line, "event", name, event_time + shift, term, self.seq))
            last_due = due
            self.seq += 1
            events += 1
        self._queries(entries, last_due, boundary + shift)
        self.origin = shift + boundary + step
        queries = sum(1 for entry in entries if entry.kind == "query")
        return Phase(rate, entries, events, queries, kind=kind)


class Connection:
    """The generator's connection: an open-loop writer and a reply reader.

    Only queries, ``status`` and ``shutdown`` are answered on success, and
    the server answers one line at a time, so every reply except an event
    rejection (which carries the event's ``seq``) belongs to the oldest
    request still waiting for one.
    """

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: requests awaiting a reply, oldest first: (phase, entry, due) for
        #: scheduled queries, (None, future, 0.0) for set-up/teardown ones
        self.waiting: Deque[Tuple[Optional[Phase], object, float]] = deque()
        self.answers: List[Tuple[Entry, List[List[int]]]] = []
        self.rejected: List[int] = []
        self.errors: List[str] = []
        self.idle = asyncio.Event()
        self.idle.set()
        self._task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            raw = await self.reader.readline()
            arrived = time.perf_counter()
            if not raw:
                return
            reply = json.loads(raw)
            if not reply.get("ok", False) and reply.get("seq") is not None:
                self.rejected.append(int(reply["seq"]))
                continue
            if not self.waiting:
                self.errors.append("unexpected reply: %s" % raw.decode().strip())
                continue
            phase, target, due_at = self.waiting.popleft()
            if phase is None:
                target.set_result(reply)  # type: ignore[attr-defined]
            else:
                if not reply.get("ok", False):
                    self.errors.append(raw.decode().strip())
                phase.latencies_ms.append((arrived - due_at) * 1e3)
                phase.arrivals.append(arrived)
                phase.replied_last = arrived
                self.answers.append((target, reply.get("intervals", [])))  # type: ignore[arg-type]
            if not self.waiting:
                self.idle.set()

    async def run_phase(self, phase: Phase) -> None:
        """Send ``phase`` on schedule, then wait for its replies."""
        entries = phase.entries
        start = time.perf_counter() + 0.01
        phase.sent_first = start
        index = 0
        total = len(entries)
        write = self.writer.write
        while index < total:
            now = time.perf_counter()
            while index < total and start + entries[index].due <= now:
                entry = entries[index]
                due_at = start + entry.due
                write(entry.line)
                phase.lag_ms.append((now - due_at) * 1e3)
                if entry.kind == "query":
                    self.waiting.append((phase, entry, due_at))
                    self.idle.clear()
                index += 1
            if index < total:
                await asyncio.sleep(max(0.0, start + entries[index].due - time.perf_counter()))
        await asyncio.wait_for(self.idle.wait(), REPLY_TIMEOUT_S)

    async def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """One request outside the schedule (set-up and teardown only)."""
        future = asyncio.get_running_loop().create_future()
        self.waiting.append((None, future, 0.0))
        self.idle.clear()
        self.writer.write(_line(message))
        await self.writer.drain()
        return await asyncio.wait_for(future, REPLY_TIMEOUT_S)

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class Server:
    """A ``repro serve --tcp`` subprocess on an ephemeral loopback port."""

    def __init__(self, root: str, seed: int, checkpoint_dir: str, trace_out: Optional[str],
                 cpu: int):
        serve_args = [
            "serve", "--tcp", "127.0.0.1:0", "--gold", "maritime",
            "--seed", str(seed), "--scale", str(SCALE), "--traffic", str(TRAFFIC),
            "--sessions", str(SESSIONS), "--window", str(common.WINDOW),
            "--step", str(common.STEP), "--backend", "pure",
            "--checkpoint-dir", checkpoint_dir,
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [sys.executable, os.path.join(root, "perfbench", "traced_server.py"),
                       trace_out] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REPRO_KERNEL_BACKEND", None)
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.process.pid, {cpu})
        #: the server's last stderr lines, for error messages
        self.stderr: Deque[str] = deque(maxlen=50)
        self._port: List[int] = []
        self._listening = threading.Event()
        # Read stderr until the server exits, so a chatty server never
        # blocks on a full pipe.
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._listening.wait(BOOT_TIMEOUT_S) or not self._port:
            self.stop()
            raise RuntimeError("server did not report a port: %s" % "".join(self.stderr))
        self.port = self._port[0]

    def _read_stderr(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            self.stderr.append(line)
            if line.startswith("serving RTEC recognition on ") and not self._port:
                self._port.append(int(line.rsplit(":", 1)[1]))
                self._listening.set()
        self._listening.set()

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb_pid(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=30)


async def _boot(root: str, seed: int, checkpoint_dir: str, trace_out: Optional[str],
                cpu: int):
    """Start a server on ``cpu`` and wait for its first reply; (server,
    reader, writer, seconds from process start to that reply)."""
    server = Server(root, seed, checkpoint_dir, trace_out, cpu)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port,
                                                       limit=1 << 22)
        writer.write(_line({"type": "status"}))
        await writer.drain()
        first = await asyncio.wait_for(reader.readline(), BOOT_TIMEOUT_S)
        boot_s = time.perf_counter() - server.started
        if not json.loads(first).get("ok"):
            raise RuntimeError("server refused status: %r" % first)
    except BaseException:
        server.stop()
        raise
    return server, reader, writer, boot_s


def _latencies(phases: List[Phase]) -> List[float]:
    """Per query, its median latency over ``phases`` (repeats at one rate)."""
    return common.per_unit_median([phase.latencies_ms for phase in phases])


def _holds(phase: Phase) -> bool:
    """Every query of the rung was answered, and the rung holds."""
    if len(phase.latencies_ms) < phase.queries:
        return False
    dues = [entry.due for entry in phase.entries if entry.kind == "query"]
    return common.rung_holds(dues, phase.latencies_ms)


def _rung_summary(phase: Phase) -> Dict[str, object]:
    dues = [entry.due for entry in phase.entries if entry.kind == "query"]
    return {
        "rate": phase.rate, "holds": _holds(phase), "replies": len(phase.latencies_ms),
        "p99_ms": round(common.percentile(phase.latencies_ms, 99), 1),
        "growth": round(common.backlog_growth(dues, phase.latencies_ms), 4),
    }


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / float(os.sysconf("SC_CLK_TCK"))


@dataclass
class ServeRun:
    """Everything one server lifetime produced."""

    boots: List[float]
    #: each boot's time scaled to the reference speed (``common.Reference``)
    boots_scaled: List[float]
    #: every phase run, in order; the fixed-rate repeats; the rungs
    phases: List[Phase]
    fixed: List[Phase]
    rungs: List[Phase]
    sustainable: float
    finals: Dict[str, str]
    status: Dict[str, object]
    rss_mb: float
    fixed_cpu_s: float
    answers: List[Tuple[Entry, List[List[int]]]]
    rejected: List[int]
    errors: List[str]
    last_boundary: int
    checkpoint_sizes: List[int]
    trace: Optional[Dict[str, object]]


class Speed:
    """How fast the server's CPU ran over time, from the speed probe."""

    #: Chunks a factor is taken over when too few fall in its window.
    MIN_CHUNKS = 20

    def __init__(self, chunks: List[List[float]]) -> None:
        if not chunks:
            raise RuntimeError("the speed probe recorded no chunks")
        chunks.sort()
        self.starts = [chunk[0] for chunk in chunks]
        self.seconds = [chunk[1] for chunk in chunks]

    def factor(self, start: float, end: float) -> float:
        """Factor to the reference speed for work between ``start`` and
        ``end``: ``PROBE_CHUNK_S`` over the median time of the probe chunks
        begun then (or of the nearest ``MIN_CHUNKS``)."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        if high - low < self.MIN_CHUNKS:
            middle = bisect.bisect_left(self.starts, (start + end) / 2.0)
            low = max(0, middle - self.MIN_CHUNKS // 2)
            high = min(len(self.starts), low + self.MIN_CHUNKS)
        return PROBE_CHUNK_S / common.median(self.seconds[low:high])

    def latencies(self, phase: Phase) -> List[float]:
        """The phase's query latencies scaled to the reference speed, each
        by the probe around its query."""
        return [latency * self.factor(arrived - latency / 1e3 - PROBE_LEAD_S, arrived)
                for latency, arrived in zip(phase.latencies_ms, phase.arrivals)]


class Probe:
    """A ``speed_probe.py`` subprocess on the server's CPU."""

    def __init__(self, root: str, cpu: int, out: str) -> None:
        self.out = out
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "speed_probe.py"), str(cpu), out],
            cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    def stop(self) -> None:
        """Stop the probe (again: no-op) and wait for it to end."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def speed(self) -> Speed:
        self.stop()
        with open(self.out) as handle:
            return Speed(json.load(handle))


async def _serve(root: str, seed: int, work_dir: str, tag: str, boots: int, workload,
                 schedule: Schedule, fixed_seconds: float, rung_seconds: float,
                 ladder: bool, traced: bool, cpu: int) -> Tuple["ServeRun", Speed]:
    """:func:`_serve_once` with the speed probe on the server's CPU."""
    probe = Probe(root, cpu, os.path.join(work_dir, "probe-%s.json" % tag))
    try:
        served = await _serve_once(root, seed, work_dir, tag, boots, workload, schedule,
                                   fixed_seconds, rung_seconds, ladder, traced, cpu, probe)
    finally:
        probe.stop()
    return served, probe.speed()


async def _serve_once(root: str, seed: int, work_dir: str, tag: str, boots: int, workload,
                      schedule: Schedule, fixed_seconds: float, rung_seconds: float,
                      ladder: bool, traced: bool, cpu: int, probe: Probe) -> ServeRun:
    """Boot the server on ``cpu`` ``boots`` times (keeping the last), run the
    fixed-rate phases, stop ``probe`` and, with ``ladder``, run the
    rate-ladder search unpinned; then collect the final detections, the
    status and the peak RSS, and stop the server."""
    trace_out = os.path.join(work_dir, "trace-%s.json" % tag) if traced else None
    checkpoint_dir = os.path.join(work_dir, "ckpt-%s" % tag)
    # Boots are scaled like in-process set-ups: this process moves to the
    # server's CPU and times the reference loop there before and after each
    # boot, while no server runs or it is idle.
    generator_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        boot_times = common.Reference()
        for attempt in range(boots):
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
            os.makedirs(checkpoint_dir)
            server, reader, writer, boot_s = await _boot(root, seed, checkpoint_dir,
                                                         trace_out, cpu)
            boot_times.scale(boot_s)
            if attempt + 1 < boots:
                writer.close()
                server.stop()
    finally:
        os.sched_setaffinity(0, generator_cpus)
    conn = Connection(reader, writer)
    phases: List[Phase] = []

    async def run(phase: Phase) -> Phase:
        await conn.run_phase(phase)
        phases.append(phase)
        return phase

    rungs: List[Phase] = []
    try:
        cpu_before = _cpu_seconds(server.process.pid)
        fixed = [await run(schedule.phase(FIXED_EPS, fixed_seconds / FIXED_REPEATS, "fixed"))
                 for _ in range(FIXED_REPEATS)]
        fixed_cpu_s = _cpu_seconds(server.process.pid) - cpu_before
        probe.stop()
        sustainable = 0.0
        if ladder:
            # Near saturation the server leaves the probe no idle time to
            # measure, and a CPU kept busy by the probe changes how much the
            # host gives the server; the ladder runs as a server is deployed,
            # without the probe and free to use either CPU.
            everywhere = os.sched_getaffinity(0) | {cpu}
            os.sched_setaffinity(server.process.pid, everywhere)
            os.sched_setaffinity(0, everywhere)
            search = common.ladder_search(LADDER_START_EPS, LADDER_STRIDE)
            try:
                rate = next(search)
                while True:
                    if not schedule.fits(rate, rung_seconds) or len(rungs) >= MAX_RUNGS:
                        rate = search.send(False)
                        continue
                    rungs.append(await run(schedule.phase(rate, rung_seconds, "rung")))
                    rate = search.send(_holds(rungs[-1]))
            except StopIteration as stop:
                index = stop.value
            sustainable = common.ladder()[index] if index >= 0 else common.LADDER_BASE_EPS
        last_boundary = max(entry.time for phase in phases for entry in phase.entries
                            if entry.kind == "query")
        finals: Dict[str, str] = {}
        for name in workload.sessions:
            reply = await conn.request({"type": "query", "session": name, "at": last_boundary})
            finals[name] = json.dumps(reply.get("fvps", {}), sort_keys=True,
                                      separators=(",", ":"))
        status = await conn.request({"type": "status"})
        rss = server.peak_rss_mb()
        await conn.request({"type": "shutdown"})
        # Let it exit by itself: a traced server writes its layer table last.
        try:
            server.process.wait(timeout=BOOT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
    finally:
        await conn.close()
        server.stop()
    trace = None
    if trace_out is not None:
        with open(trace_out) as handle:
            trace = json.load(handle)
    sizes = [os.path.getsize(os.path.join(checkpoint_dir, name))
             for name in sorted(os.listdir(checkpoint_dir)) if name.endswith(".json")]
    return ServeRun(boot_times.raw, boot_times.scaled, phases, fixed, rungs, sustainable, finals,
                    status.get("sessions", {}), rss,
                    fixed_cpu_s, conn.answers, conn.rejected, conn.errors, last_boundary,
                    sizes, trace)


def _check(outcome: common.Outcome, make_engine, workload, run: ServeRun, smoke: bool) -> None:
    """Compare every pinned reply and each final result with the oracle."""
    rejected = set(run.rejected)
    arrivals: List[oracle.Arrival] = []
    for phase in run.phases:
        for entry in phase.entries:
            if entry.kind == "query":
                arrivals.append(("query", entry.session, entry.time, entry.text))
            elif entry.kind == "fluent":
                arrivals.append(("fluent", entry.session, entry.text, entry.pairs))
            elif entry.seq not in rejected:
                arrivals.append(("event", entry.session, entry.time, entry.text))
    for name in workload.sessions:
        arrivals.append(("query", name, run.last_boundary, None))
    expected, expected_finals = oracle.serve_oracle(
        make_engine, arrivals, common.WINDOW, common.STEP)
    got: Dict[str, List[List[List[int]]]] = {name: [] for name in workload.sessions}
    for entry, intervals in run.answers:
        got[entry.session].append(intervals)
    for name in workload.sessions:
        want = expected[name][:-1]  # the last answer is the unpinned final query
        if got[name] != want:
            wrong = sum(1 for left, right in zip(got[name], want) if left != right)
            outcome.mismatches.append(
                "session %s: %d of %d pinned query replies differ from the oracle"
                % (name, wrong + abs(len(got[name]) - len(want)), len(want)))
        oracle.check(outcome, "session %s final detections" % name, run.finals[name],
                     expected_finals[name], smoke)
    failures = [name for name, item in run.status.items() if item.get("failure")]
    for name in failures:
        outcome.mismatches.append("session %s failed: %s" % (name, run.status[name]["failure"]))
    for line in run.errors:
        outcome.mismatches.append("server error reply: %s" % line)
    lags = [lag for phase in run.phases for lag in phase.lag_ms]
    if common.percentile(lags, 99) > MAX_GENERATOR_LAG_MS:
        outcome.mismatches.append("load generator fell behind its schedule (lag p99 %.1f ms)"
                                  % common.percentile(lags, 99))
    events = sum(phase.events for phase in run.phases)
    queries = sum(phase.queries for phase in run.phases)
    fluents = sum(1 for phase in run.phases for entry in phase.entries if entry.kind == "fluent")
    outcome.attempted += events + queries + fluents + len(run.finals)
    outcome.failed += len(run.rejected) + len(run.errors) + len(failures)


def run(root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> common.Outcome:
    work_dir = os.path.join(root, ".perfbench_tmp", "serve-%d-%d" % (os.getpid(), seed))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        return asyncio.run(_measure(root, seed, seconds, trace, smoke, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run's directory is still there
            pass


async def _measure(root: str, seed: int, seconds: float, trace: bool, smoke: bool,
                   work_dir: str) -> common.Outcome:
    from repro.maritime import build_dataset
    from repro.maritime.gold import gold_event_description
    from repro.rtec.engine import RTECEngine
    from repro.serve import build_workload

    outcome = common.Outcome()
    # The server gets one CPU to itself; the generator and the oracle run on
    # the others (on the same one when there is only one).
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[0]
    os.sched_setaffinity(0, set(cpus[1:]) or {server_cpu})
    description = gold_event_description()
    dataset = build_dataset(seed=seed, scale=SCALE, traffic=TRAFFIC)

    def make_engine() -> RTECEngine:
        return RTECEngine(description, dataset.kb, dataset.vocabulary)

    base = build_workload(dataset.stream, dataset.input_fluents, description,
                          sessions=SESSIONS, session_prefix="s")
    fvps = _query_fvps(dataset, base)
    fixed_seconds = seconds
    fixed_repeat_s = fixed_seconds / FIXED_REPEATS
    rung_seconds = RUNG_SECONDS if not smoke else 0.4
    routed = _delayed_order(base, seed)

    def schedule() -> Schedule:
        return Schedule(routed, base.fluents, base.sessions, fvps, common.STEP)

    if not schedule().fits(FIXED_EPS, fixed_repeat_s):
        raise ValueError("--seconds too long for one copy of the stream at the fixed rate")
    boots = 1 if smoke else BOOTS
    outcome.sizes.update({
        "scale": SCALE, "traffic": TRAFFIC, "sessions": SESSIONS,
        "base_events": len(base.events), "late_share": LATE_SHARE, "late_by": LATE_BY,
        "fixed_eps": FIXED_EPS, "fixed_seconds": fixed_seconds,
        "fixed_repeats": FIXED_REPEATS,
        "rung_seconds": rung_seconds, "latency_limit_ms": common.LATENCY_LIMIT_MS,
        "checkpoint_every": CHECKPOINT_EVERY, "query_fvps": fvps,
    })
    if trace:
        # The same fixed phase on an untraced and a traced server: the
        # server CPU time of the two gives the tracing overhead.
        plain, _speed = await _serve(root, seed, work_dir, "plain", 1, base, schedule(),
                                     fixed_seconds, rung_seconds, False, False, server_cpu)
        traced, _speed = await _serve(root, seed, work_dir, "traced", 1, base, schedule(),
                                      fixed_seconds, rung_seconds, False, True, server_cpu)
        for served in (plain, traced):
            _check(outcome, make_engine, base, served, smoke)
        lags = [lag for phase in traced.fixed for lag in phase.lag_ms]
        builds = []
        for _ in range(BOOTS):
            started = time.perf_counter()
            build_dataset(seed=seed, scale=SCALE, traffic=TRAFFIC)
            builds.append(time.perf_counter() - started)
        outcome.notes["trace"] = {
            "server": traced.trace,
            "maritime.build_s": common.median(builds),
            "status": traced.status,
            "rejections": len(traced.rejected),
            "checkpoint_sizes": traced.checkpoint_sizes,
            "loadgen.lag_p99_ms": common.percentile(lags, 99),
            "loadgen.lag_max_ms": max(lags),
            "telemetry.overhead_share": traced.fixed_cpu_s / plain.fixed_cpu_s - 1.0,
        }
        outcome.sizes["events_sent"] = sum(phase.events for phase in traced.fixed)
        return outcome

    served, speed = await _serve(root, seed, work_dir, "run", boots, base, schedule(),
                                 fixed_seconds, rung_seconds, True, False, server_cpu)
    fixed = served.fixed
    fixed_wall = sum(phase.replied_last - phase.sent_first for phase in fixed)
    # Every query's latency scaled by the probe around it, then its median
    # over the repeats.
    latencies = common.per_unit_median([speed.latencies(phase) for phase in fixed])
    measured = _latencies(fixed)
    events = sum(phase.events for phase in served.phases)
    lags = [lag for phase in served.phases for lag in phase.lag_ms]
    fixed_events = sum(phase.events for phase in fixed)
    outcome.put("setup_s", common.median(served.boots_scaled), "s", samples=len(served.boots))
    outcome.put("wall_s", fixed_wall, "s", samples=len(fixed))
    outcome.put("throughput_eps", fixed_events / fixed_wall, "ev/s", samples=fixed_events)
    outcome.put("latency_p50_ms", common.percentile(latencies, 50), "ms",
                samples=len(latencies))
    outcome.put("latency_p99_ms", common.percentile(latencies, 99), "ms",
                samples=len(latencies))
    outcome.put("sustainable_eps", served.sustainable, "ev/s", samples=len(served.rungs))
    outcome.put("peak_rss_mb", served.rss_mb, "MiB")
    outcome.sizes.update({
        "events_sent": events,
        "queries_sent": sum(phase.queries for phase in served.phases),
        "rungs_run": [_rung_summary(phase) for phase in served.rungs],
        "probe_chunks": len(speed.starts),
    })
    outcome.notes["measured"] = {
        "setup_s": common.median(served.boots),
        "latency_p50_ms": common.percentile(measured, 50),
        "latency_p99_ms": common.percentile(measured, 99),
        "fixed_factors": [speed.factor(phase.sent_first, phase.replied_last)
                          for phase in fixed],
    }
    outcome.notes["loadgen"] = {"lag_p99_ms": common.percentile(lags, 99),
                                "lag_max_ms": max(lags)}
    _check(outcome, make_engine, base, served, smoke)
    outcome.put("ok_share", 1.0 - outcome.failed / float(outcome.attempted), "share",
                samples=outcome.attempted)
    return outcome
