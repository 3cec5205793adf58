"""Evaluation of simple fluents (Definition 2.2).

For every simple fluent schema the engine:

1. evaluates each ``initiatedAt``/``terminatedAt`` rule over the events of
   the current window, producing *initiation* and *termination* points per
   ground FVP;
2. adds, for multi-valued fluents, the initiations of ``F = V'`` to the
   terminations of ``F = V`` for every ``V' != V`` (RTEC value exclusivity:
   a fluent has at most one value at a time);
3. pairs initiations with terminations into maximal intervals
   (:func:`repro.intervals.make_intervals_from_points`).

Rule bodies run as generated Python functions
(:func:`repro.rtec.compile.compiled_body`): variables live in fixed local
slots, atemporal prefixes are solved once per window, and every condition is
a loop or guard specialised to the variables bound at that point.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import telemetry
from repro.intervals import IntervalList
from repro.intervals.pairing import pair_intervals
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import Rule
from repro.logic.terms import Compound, Term, is_ground
from repro.logic.pretty import term_to_str
from repro.logic.unification import unify
from repro.rtec.compile import compiled_body, pattern_key as _pattern_key
from repro.rtec.description import SimpleFluentDef
from repro.rtec.errors import EvaluationError
from repro.rtec.store import FluentStore
from repro.rtec.stream import EventStream

__all__ = ["evaluate_simple_fluent", "rule_firing_points"]


def evaluate_simple_fluent(
    definition: SimpleFluentDef,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
    carried_initiations: Dict[Term, int],
    on_error=None,
    max_duration_for=None,
    carried_barriers: Optional[Dict[Term, int]] = None,
) -> Tuple[Dict[Term, IntervalList], Dict[Term, int], Dict[Term, int]]:
    """Compute the maximal intervals of every ground FVP of one simple fluent.

    Returns ``(intervals per FVP, open initiations per FVP, deadline
    barriers per FVP)``. The second mapping holds, for every FVP whose last
    period is still open at the window end, the initiation point of that
    period — the engine carries it into the next window, implementing
    inertia after older events have been forgotten (``carried_initiations``
    is exactly the previous window's mapping). The third mapping holds, for
    every FVP with a period closed by its ``maxDuration/2`` deadline, the
    close point: unlike an explicit termination, a deadline close leaves no
    event in the stream, so once its anchoring initiation is forgotten the
    next window would mistake the period's intermediate initiations for
    fresh anchors with later deadlines. Carrying the close point as a
    barrier (``carried_barriers``) makes the next window ignore initiations
    at or before it; the suppressed periods' detections are final already.
    ``on_error``, when given, receives the message of any
    :class:`EvaluationError` instead of the error propagating — the rule
    that failed is skipped (tolerant execution of imperfect generated
    rules).
    """
    with telemetry.span(
        "rtec.simple", fluent="%s/%d" % definition.key
    ) as sp:
        initiations: Dict[Term, Set[int]] = defaultdict(set)
        terminations: Dict[Term, Set[int]] = defaultdict(set)

        for rule in definition.initiated_rules:
            with telemetry.span("rtec.rule") as rsp:
                if rsp.enabled:
                    rsp.set(head=term_to_str(rule.head), kind="initiatedAt")
                try:
                    for pair, time in rule_firing_points(
                        rule, stream, kb, store, window_start, window_end, require_ground=True
                    ):
                        initiations[pair].add(time)
                except EvaluationError as exc:
                    if on_error is None:
                        raise exc.with_context(rule_head=rule.head) from exc
                    on_error("skipped rule %r: %s" % (rule.head, exc))

        for pair, start_time in carried_initiations.items():
            initiations[pair].add(start_time)

        # A termination whose head still has unbound variables (e.g. the
        # AreaType of "terminatedAt(withinArea(Vl, AreaType)=true, T) :-
        # happensAt(gap_start(Vl), T)") terminates every matching instance.
        # Which head variables a rule binds is fixed by its body, so either
        # every firing of a rule is ground or none is: test the first.
        non_ground: List[Tuple[Term, int]] = []
        for rule in definition.terminated_rules:
            fired: List[Tuple[Term, int]] = []
            with telemetry.span("rtec.rule") as rsp:
                if rsp.enabled:
                    rsp.set(head=term_to_str(rule.head), kind="terminatedAt")
                try:
                    for pair, time in rule_firing_points(
                        rule, stream, kb, store, window_start, window_end, require_ground=False
                    ):
                        fired.append((pair, time))
                except EvaluationError as exc:
                    if on_error is None:
                        raise exc.with_context(rule_head=rule.head) from exc
                    on_error("skipped rule %r: %s" % (rule.head, exc))
            if fired and is_ground(fired[0][0]):
                for pair, time in fired:
                    terminations[pair].add(time)
            else:
                non_ground.extend(fired)
        if non_ground:
            _apply_universal_terminations(non_ground, initiations, terminations)

        # Value exclusivity: initiating F=V' terminates F=V for V' != V.
        by_fluent: Dict[Term, List[Term]] = defaultdict(list)
        for pair in initiations:
            assert isinstance(pair, Compound)
            by_fluent[pair.args[0]].append(pair)
        for fluent, pairs in by_fluent.items():
            if len(pairs) < 2:
                continue
            # Aggregate once per fluent instead of the quadratic pair×pair
            # walk: a point terminates F=V iff some *other* value is
            # initiated there, i.e. its multiplicity across all values
            # exceeds its multiplicity within F=V alone.
            counts: Counter = Counter()
            for pair in pairs:
                counts.update(initiations[pair])
            for pair in pairs:
                own = initiations[pair]
                extra = {
                    t for t, c in counts.items() if c > (1 if t in own else 0)
                }
                if extra:
                    terminations[pair].update(extra)

        result: Dict[Term, IntervalList] = {}
        open_initiations: Dict[Term, int] = {}
        barriers: Dict[Term, int] = carried_barriers or {}
        next_barriers: Dict[Term, int] = {}
        groundings = set(initiations) | set(terminations)
        for pair in groundings:
            deadline = max_duration_for(pair) if max_duration_for is not None else None
            intervals, open_start, deadline_close = pair_intervals(
                initiations.get(pair, ()),
                terminations.get(pair, ()),
                open_end=window_end,
                max_duration=deadline,
                closed_until=barriers.get(pair),
            )
            if intervals:
                result[pair] = intervals
            if open_start is not None:
                open_initiations[pair] = open_start
            barrier = barriers.get(pair)
            if deadline_close is not None and (barrier is None or deadline_close > barrier):
                barrier = deadline_close
            if barrier is not None and barrier > window_start:
                next_barriers[pair] = barrier
        # A barrier of an FVP with no activity this window still guards
        # initiations a later overlapping window may retain; it expires
        # once the window start overtakes it.
        for pair, barrier in barriers.items():
            if pair not in groundings and barrier > window_start:
                next_barriers[pair] = barrier
        if sp.enabled:
            sp.count("groundings", len(groundings))
            sp.count("pairings", len(result))
            sp.count("carried", len(carried_initiations))
            sp.count(
                "initiation_points", sum(len(points) for points in initiations.values())
            )
            sp.count(
                "termination_points", sum(len(points) for points in terminations.values())
            )
            sp.count("deadline_barriers", len(next_barriers))
        return result, open_initiations, next_barriers


def _apply_universal_terminations(
    non_ground: List[Tuple[Term, int]],
    initiations: Dict[Term, Set[int]],
    terminations: Dict[Term, Set[int]],
) -> None:
    """Match non-ground termination patterns against initiated FVPs.

    Initiations are indexed by fluent functor/arity (and, when available,
    by the fluent's ground first argument), so each pattern only attempts
    unification against same-schema FVPs instead of every grounding.
    """
    by_key: Dict[Tuple[str, int], List[Term]] = defaultdict(list)
    by_first: Dict[Tuple[str, int, Term], List[Term]] = defaultdict(list)
    for pair in initiations:
        assert isinstance(pair, Compound)
        fluent = pair.args[0]
        try:
            key = _pattern_key(fluent)
        except EvaluationError:
            continue
        by_key[key].append(pair)
        if isinstance(fluent, Compound):
            by_first[key + (fluent.args[0],)].append(pair)
    for pattern, time in non_ground:
        assert isinstance(pattern, Compound)  # always an FVP (checked on compile)
        fluent_pattern = pattern.args[0]
        try:
            key = _pattern_key(fluent_pattern)
        except EvaluationError:
            candidates: List[Term] = list(initiations)
        else:
            if isinstance(fluent_pattern, Compound) and is_ground(fluent_pattern.args[0]):
                candidates = by_first.get(key + (fluent_pattern.args[0],), [])
            else:
                candidates = by_key.get(key, [])
        for pair in candidates:
            if unify(pattern, pair) is not None:
                terminations[pair].add(time)


def rule_firing_points(
    rule: Rule,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
    require_ground: bool = True,
) -> Iterator[Tuple[Term, int]]:
    """Yield ``(head FVP, time)`` for every satisfied body instance.

    Per Definition 2.2 the first condition is a positive ``happensAt``; each
    of its event occurrences seeds a binding which the remaining conditions
    filter and extend. With ``require_ground=False`` the head FVP may retain
    unbound variables (universal terminations); initiations must always be
    ground. The body runs as the rule's generated function
    (:func:`repro.rtec.compile.compiled_body`), in its counting variant
    while a tracer is installed.
    """
    body = compiled_body(rule, telemetry.is_enabled())
    return body(stream, kb, store, window_start, window_end, require_ground)
