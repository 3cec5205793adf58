"""The output oracle: full-recompute sessions fed the same arrivals.

Every streaming workload is checked against an ``RTECSession`` with
``incremental=False`` (each advance re-derives the whole window, the path
the incremental one is verified against) that receives exactly the arrival
sequence and query times the measured program received. The oracle always
runs outside the timed region.

:class:`GridSession` mirrors the advance schedule of a session hosted by
``repro serve`` (``repro.serve.sessions.ManagedSession``): an event whose
time crosses the next step boundary first advances the session to that
boundary, and ``query`` with ``at`` walks the step grid up to ``at``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.intervals import IntervalList
from repro.intervals.backend import available_backends
from repro.rtec.engine import RTECEngine
from repro.rtec.result import RecognitionResult
from repro.rtec.session import RTECSession
from repro.rtec.stream import Event
from repro.serve.protocol import parse_event_term


#: Kernel backend of every oracle session: ``columnar`` when numpy is
#: importable (the faster one here; both give byte-identical results),
#: else ``pure``. The measured sessions run ``pure``.
BACKEND = available_backends()[-1]


def canonical(result: RecognitionResult) -> str:
    """Stable text of a result, compared byte for byte."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


class GridSession:
    """A full-recompute session advanced on ``repro serve``'s step grid."""

    def __init__(self, engine: RTECEngine, window: int, step: int) -> None:
        self.session = RTECSession(engine, window, incremental=False, backend=BACKEND)
        self.step = step
        self.next_query: Optional[int] = None

    def _grid_after(self, time: int) -> int:
        return (time // self.step + 1) * self.step

    def fluent(self, fvp_text: str, pairs: Sequence[Sequence[int]]) -> None:
        intervals = IntervalList([(start, end) for start, end in pairs])
        self.session.submit_fluent(parse_event_term(fvp_text), intervals)
        if self.next_query is None and intervals:
            self.next_query = self._grid_after(intervals.span[0])

    def event(self, time: int, term_text: str) -> None:
        term = parse_event_term(term_text)
        if self.next_query is None:
            self.next_query = self._grid_after(time)
        while time > self.next_query:
            self.session.advance(self.next_query)
            self.next_query += self.step
        self.session.submit((Event(time, term),))

    def query(self, at: int, fvp: Optional[str]) -> List[List[int]]:
        last = self.session.last_query_time
        if last is None or at > last:
            if self.next_query is not None:
                while self.next_query < at:
                    self.session.advance(self.next_query)
                    self.next_query += self.step
            self.session.advance(at)
            if self.next_query is None or self.next_query <= at:
                self.next_query = self._grid_after(at)
        if fvp is None:
            return []
        return [[iv.start, iv.end] for iv in self.session.result.holds_for(fvp)]


#: One arrival on a serve connection: ("fluent", session, fvp, pairs),
#: ("event", session, time, term) or ("query", session, at, fvp).
Arrival = Tuple[str, str, object, object]


def serve_oracle(
    make_engine, arrivals: Sequence[Arrival], window: int, step: int
) -> Tuple[Dict[str, List[List[List[int]]]], Dict[str, str]]:
    """Per session: the oracle's answers to its queries, in order, and its
    final result (canonical text), from full-recompute grid sessions."""
    sessions: Dict[str, GridSession] = {}
    answers: Dict[str, List[List[List[int]]]] = {}
    for kind, name, first, second in arrivals:
        grid = sessions.get(name)
        if grid is None:
            grid = sessions[name] = GridSession(make_engine(), window, step)
            answers[name] = []
        if kind == "event":
            grid.event(first, second)  # type: ignore[arg-type]
        elif kind == "fluent":
            grid.fluent(first, second)  # type: ignore[arg-type]
        else:
            answers[name].append(grid.query(first, second))  # type: ignore[arg-type]
    finals = {name: canonical(grid.session.result) for name, grid in sessions.items()}
    return answers, finals


def perturbed(text: str) -> str:
    """A canonical result with one detected interval shifted by one time
    point — the deliberately wrong output the smoke mode feeds the check."""
    data = json.loads(text)
    for key in sorted(data):
        if data[key]:
            data[key][0][1] += 1
            return json.dumps(data, sort_keys=True, separators=(",", ":"))
    data["perturbed()=true"] = [[0, 1]]
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def check(outcome, label: str, got: str, want: str, smoke: bool) -> None:
    """Record a mismatch unless ``got`` equals ``want`` byte for byte.

    In smoke mode the same comparison also runs on a perturbed copy of
    ``got``, which must fail; ``perturbation_detected`` records that it did.
    """
    if got != want:
        outcome.mismatches.append("%s differ from the oracle" % label)
    if smoke and "perturbation_detected" not in outcome.notes:
        outcome.notes["perturbation_detected"] = perturbed(got) != want
