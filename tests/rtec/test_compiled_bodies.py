"""Generated rule bodies (:mod:`repro.rtec.compile`).

* every specialised condition shape agrees with the pointwise oracle;
* runtime errors keep their reason, rule head, condition and tolerant
  message;
* the traced variant emits the ``cond.<class>.eval``/``.sol`` counters the
  measured cost model reads;
* description text never enters the generated source;
* compiled bodies die with their description.
"""

import gc
import weakref

import pytest

from repro import telemetry
from repro.analysis.costmodel import measure_cost_model
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_rule, parse_term
from repro.logic.terms import Compound, Constant
from repro.rtec import Event, EventDescription, EventStream, RTECEngine
from repro.rtec import compile as rule_compile
from repro.rtec.compile import compile_rule, generate_source
from repro.rtec.errors import EvaluationError
from repro.rtec.reference import ReferenceEvaluator


def _stream(spec):
    return EventStream(Event(t, parse_term(text)) for t, text in spec)


def _holding(result, pair, end):
    return {t for t in result.holds_for(pair).points() if 0 <= t <= end}


# One rule per specialised shape. ``fluent`` names the shape's head fluent,
# which must hold somewhere so that the comparison is not vacuous.
SHAPES = [
    (
        "seed pattern with a constant",
        "initiatedAt(hot(V)=true, T) :- happensAt(reading(V, high), T).\n"
        "terminatedAt(hot(V)=true, T) :- happensAt(reading(V, low), T).",
        [(1, "reading(a, high)"), (3, "reading(b, low)"), (4, "reading(a, low)"),
         (5, "reading(b, high)")],
        "",
        "hot",
    ),
    (
        "seed pattern with a repeated variable",
        "initiatedAt(loop(V)=true, T) :- happensAt(link(V, V), T).",
        [(1, "link(a, b)"), (2, "link(b, b)"), (3, "link(a, a)")],
        "",
        "loop",
    ),
    (
        "2 against 2.0",
        "initiatedAt(two(V)=true, T) :- happensAt(level(V, 2), T), limit(V, 2.0), "
        "holdsAt(twice(V)=2, T).\n"
        "initiatedAt(twice(V)=2.0, T) :- happensAt(level(V, 2.0), T).",
        [(1, "level(a, 2.0)"), (2, "level(b, 2)"), (3, "level(a, 2)"), (4, "level(b, 3)"),
         (5, "level(b, 2.0)"), (6, "level(b, 2)")],
        "limit(a, 2). limit(b, 2.0).",
        "two",
    ),
    (
        "body happensAt at a bound time",
        "initiatedAt(acked(V)=true, T) :- happensAt(ping(V), T), happensAt(ack(V), T).",
        [(1, "ping(a)"), (1, "ack(a)"), (2, "ping(b)"), (3, "ack(b)")],
        "",
        "acked",
    ),
    (
        "negated body happensAt at a bound time",
        "initiatedAt(lost(V)=true, T) :- happensAt(ping(V), T), not happensAt(ack(V), T).",
        [(1, "ping(a)"), (1, "ack(a)"), (2, "ping(b)"), (3, "ack(b)")],
        "",
        "lost",
    ),
    (
        "body happensAt with an unbound time",
        "initiatedAt(rebooted(V)=true, T) :- happensAt(ping(V), T), "
        "happensAt(boot(V), B), B < T.",
        [(1, "ping(a)"), (2, "boot(a)"), (3, "ping(a)"), (4, "ping(b)"), (6, "boot(b)")],
        "",
        "rebooted",
    ),
    (
        "negated body happensAt with an unbound time",
        "initiatedAt(virgin(V)=true, T) :- happensAt(ping(V), T), not happensAt(boot(V), B).",
        [(1, "ping(a)"), (2, "boot(a)"), (4, "ping(b)")],
        "",
        "virgin",
    ),
    (
        "ground holdsAt",
        "initiatedAt(hot(V)=true, T) :- happensAt(heat(V), T).\n"
        "initiatedAt(alarm(V)=true, T) :- happensAt(ping(V), T), holdsAt(hot(V)=true, T).",
        [(1, "heat(a)"), (2, "ping(a)"), (3, "ping(b)"), (1, "ping(a)")],
        "",
        "alarm",
    ),
    (
        "enumerating holdsAt",
        "initiatedAt(zone(V, Z)=true, T) :- happensAt(enter(V, Z), T).\n"
        "terminatedAt(zone(V, Z)=true, T) :- happensAt(exit(V, Z), T).\n"
        "initiatedAt(exposed(V)=true, T) :- happensAt(ping(V), T), "
        "holdsAt(zone(V, Z)=true, T), risky(Z).",
        [(1, "enter(a, z1)"), (1, "enter(b, z2)"), (3, "ping(a)"), (3, "ping(b)"),
         (4, "exit(a, z1)"), (5, "ping(a)")],
        "risky(z1).",
        "exposed",
    ),
    (
        "negated holdsAt",
        "initiatedAt(hot(V)=true, T) :- happensAt(heat(V), T).\n"
        "initiatedAt(cold(V)=true, T) :- happensAt(ping(V), T), not holdsAt(hot(V)=true, T).",
        [(1, "heat(a)"), (2, "ping(a)"), (3, "ping(b)")],
        "",
        "cold",
    ),
    (
        "ground background",
        "initiatedAt(vipSeen(V)=true, T) :- happensAt(ping(V), T), vip(V).",
        [(1, "ping(a)"), (2, "ping(b)")],
        "vip(a).",
        "vipSeen",
    ),
    (
        "background with a bound first argument",
        "initiatedAt(fast(V)=true, T) :- happensAt(speed(V, S), T), limit(V, L), S > L.\n"
        "terminatedAt(fast(V)=true, T) :- happensAt(speed(V, S), T), limit(V, L), S =< L.",
        [(1, "speed(a, 10)"), (2, "speed(b, 10)"), (3, "speed(a, 3)"), (4, "speed(b, 30)")],
        "limit(a, 5). limit(b, 20). limit(b, 25).",
        "fast",
    ),
    (
        "background with an unbound first argument",
        "initiatedAt(owned(V)=true, T) :- happensAt(ping(V), T), owner(O, V), staff(O).",
        [(1, "ping(a)"), (2, "ping(b)"), (3, "ping(c)")],
        "owner(ann, a). owner(bob, b). owner(cid, b). staff(bob).",
        "owned",
    ),
    (
        "negated non-ground background",
        "initiatedAt(stray(V)=true, T) :- happensAt(ping(V), T), not owner(O, V).",
        [(1, "ping(a)"), (2, "ping(b)"), (3, "ping(c)")],
        "owner(ann, a). owner(bob, b).",
        "stray",
    ),
    (
        "universal terminatedAt",
        "initiatedAt(zone(V, Z)=true, T) :- happensAt(enter(V, Z), T).\n"
        "terminatedAt(zone(V, Z)=true, T) :- happensAt(reset(V), T).",
        [(1, "enter(a, z1)"), (1, "enter(a, z2)"), (2, "enter(b, z1)"), (4, "reset(a)")],
        "",
        "zone",
    ),
    (
        "body nesting more loops than one function may",
        "initiatedAt(busy(V)=true, T) :- happensAt(ping(V), T), "
        + ", ".join("happensAt(go(V, X%d), T)" % i for i in range(20))
        + ", not happensAt(stop(V), T).",
        [(1, "ping(a)"), (1, "go(a, x)"), (2, "ping(b)"), (2, "go(b, x)"), (2, "stop(b)"),
         (3, "ping(c)")],
        "",
        "busy",
    ),
    (
        "variable event pattern",
        "initiatedAt(echo(V)=true, T) :- happensAt(ping(V), T), answer(V, E), happensAt(E, T).",
        [(1, "ping(a)"), (1, "pong(a)"), (2, "ping(b)"), (2, "pong(a)"), (3, "ping(b)"),
         (3, "beep")],
        "answer(a, pong(a)). answer(b, beep).",
        "echo",
    ),
]


class TestShapesAgainstOracle:
    @pytest.mark.parametrize("name,rules,events,facts,fluent", SHAPES, ids=[s[0] for s in SHAPES])
    def test_shape_matches_oracle(self, name, rules, events, facts, fluent):
        description = EventDescription.from_text(rules)
        kb = KnowledgeBase.from_text(facts)
        # A late unrelated event keeps periods opened by the last firing
        # inside the compared range.
        stream = _stream(events + [(9, "tick")])
        end = stream.max_time
        result = RTECEngine(description, kb, strict=False).recognise(stream)
        oracle = ReferenceEvaluator(description, kb, stream)
        fired = False
        for key in sorted(description.defined_keys):
            for pair in sorted(oracle.ground_instances(*key), key=repr):
                expected = oracle.holding_points(pair, 0, end)
                assert _holding(result, pair, end) == expected, pair
                fired = fired or (key[0] == fluent and bool(expected))
        assert fired, "the %s rule never fires: the case is vacuous" % name


_ERROR_CASES = [
    (
        "non-numeric binding in a comparison",
        "initiatedAt(hot(V)=true, T) :- happensAt(level(V, L), T), L > 1.",
        "non-numeric constant 'high' in arithmetic expression",
        ">(L, 1)",
    ),
    (
        "division by zero",
        "initiatedAt(hot(V)=true, T) :- happensAt(level(V, L), T), limit(V, M), "
        "div(M, 0) < 1.",
        "division by zero in arithmetic expression",
        "<(div(M, 0), 1)",
    ),
    (
        "holdsAt time bound to an atom",
        "initiatedAt(hot(V)=true, T) :- happensAt(level(V, L), T), holdsAt(cold(V)=true, L).",
        "holdsAt time-point must be bound: holdsAt(=(cold(V), true), L)",
        None,
    ),
    (
        "holdsAt argument bound to a non-FVP",
        "initiatedAt(hot(V)=true, T) :- happensAt(level(V, L), T), holdsAt(L, T).",
        "holdsAt requires an FVP argument: holdsAt(L, T)",
        None,
    ),
    (
        "event pattern bound to a number",
        "initiatedAt(hot(V)=true, T) :- happensAt(level(V, L), T), limit(V, M), "
        "happensAt(M, T).",
        "cannot determine functor of pattern 5",
        None,
    ),
    (
        "head time bound to an atom",
        "initiatedAt(hot(V)=true, L) :- happensAt(level(V, L), T).",
        "head time-point is not bound in initiatedAt(=(hot(V), true), L)",
        None,
    ),
]


class TestRuntimeErrors:
    @pytest.mark.parametrize(
        "name,rule_text,reason,condition", _ERROR_CASES, ids=[c[0] for c in _ERROR_CASES]
    )
    def test_error_keeps_reason_head_condition_and_message(
        self, name, rule_text, reason, condition
    ):
        description = EventDescription.from_text(rule_text)
        rule = parse_rule(rule_text)
        kb = KnowledgeBase.from_text("limit(a, 5).")
        stream = _stream([(1, "level(a, high)")])
        with pytest.raises(EvaluationError) as excinfo:
            RTECEngine(description, kb, strict=False).recognise(stream)
        error = excinfo.value
        assert error.reason == reason
        assert error.rule_head == rule.head
        assert (repr(error.condition) if error.condition is not None else None) == condition

        # The tolerant message names the rule once, in its own prefix.
        bare = EvaluationError(error.reason, condition=error.condition)
        tolerant = RTECEngine(description, kb, strict=False, skip_errors=True)
        tolerant.recognise(stream)
        assert tolerant.runtime_warnings == ["skipped rule %r: %s" % (rule.head, bare)]

    def test_compile_time_rejection_keeps_its_context(self):
        rule_text = "initiatedAt(hot(V)=true, T) :- happensAt(level(V, L), T), X > L."
        description = EventDescription.from_text(rule_text)
        stream = _stream([(1, "level(a, 2)")])
        with pytest.raises(EvaluationError) as excinfo:
            RTECEngine(description, strict=False).recognise(stream)
        assert "unbound variable 'X'" in excinfo.value.reason
        assert excinfo.value.rule_head == parse_rule(rule_text).head
        tolerant = RTECEngine(description, strict=False, skip_errors=True)
        tolerant.recognise(stream)
        tolerant.recognise(stream)  # the cached failure raises afresh
        assert tolerant.runtime_warnings == [
            "skipped rule %r: %s" % (parse_rule(rule_text).head, excinfo.value)
        ] * 2


# One rule reaching all seven condition classes, in body order: compare,
# happensat, happensat.neg, holdsat.ground, holdsat.enum, background,
# background.neg.
_COUNTER_RULES = """
initiatedAt(hot(V)=true, T) :- happensAt(heat(V), T).
initiatedAt(zone(V, Z)=true, T) :- happensAt(enter(V, Z), T).
initiatedAt(alert(V)=true, T) :-
    happensAt(ping(V, S), T),
    S > 1,
    happensAt(ack(V), T),
    not happensAt(nack(V), T),
    holdsAt(hot(V)=true, T),
    holdsAt(zone(V, Z)=true, T),
    watched(V),
    not banned(Z).
"""

_COUNTER_EVENTS = [
    (1, "heat(a)"), (1, "enter(a, z1)"), (1, "heat(c)"), (1, "enter(c, z1)"),
    (3, "enter(a, z2)"),
    (5, "ping(a, 3)"), (5, "ack(a)"),
    (6, "ping(a, 0)"),
    (7, "ping(b, 5)"), (7, "ack(b)"), (7, "nack(b)"),
    (8, "ping(b, 4)"), (8, "ack(b)"),
    (9, "ping(c, 4)"), (9, "ack(c)"),
    (10, "ping(a, 2)"),
]

# Derived by hand over the six ping seeds (t = 5, 6, 7, 8, 9, 10):
#   S > 1            6 evaluated; all but t6 (S = 0) pass          -> 5
#   ack(V) at T      5; all but t10                                -> 4
#   not nack(V)      4; t7 has a nack                              -> 3
#   hot(V)=true      3 (a@5, b@8, c@9); b is never hot             -> 2
#   zone(V, Z)=true  2 (a@5, c@9); a is in z1 and z2, c in z1      -> 3
#   watched(V)       3 (a/z1, a/z2, c/z1); c is not watched        -> 2
#   not banned(Z)    2 (z1, z2); z2 is banned                      -> 1
_EXPECTED_SAMPLES = {
    "compare": (6, 5),
    "happensat": (5, 4),
    "happensat.neg": (4, 3),
    "holdsat.ground": (3, 2),
    "holdsat.enum": (2, 3),
    "background": (3, 2),
    "background.neg": (2, 1),
}


class TestTracerCounters:
    def _engine(self):
        description = EventDescription.from_text(_COUNTER_RULES)
        kb = KnowledgeBase.from_text("watched(a). watched(b). banned(z2).")
        return RTECEngine(description, kb, strict=False), _stream(_COUNTER_EVENTS)

    def test_counters_match_hand_derived_counts(self):
        engine, stream = self._engine()
        with telemetry.enabled() as tracer:
            result = engine.recognise(stream)
        totals = {}

        def visit(span):
            for name, value in span.counters.items():
                if name.startswith("cond."):
                    totals[name] = totals.get(name, 0) + value
            for child in span.children:
                visit(child)

        for root in tracer.report().roots:
            visit(root)
        expected = {}
        for cls, (evals, sols) in _EXPECTED_SAMPLES.items():
            expected["cond.%s.eval" % cls] = evals
            expected["cond.%s.sol" % cls] = sols
        assert totals == expected
        assert _holding(result, parse_term("alert(a)=true"), 12) == set(range(6, 11))
        untraced, _ = self._engine()
        assert untraced.recognise(stream) == result

    def test_measured_cost_model_sees_the_same_samples(self):
        engine, stream = self._engine()
        model = measure_cost_model(engine, stream)
        assert model.samples == _EXPECTED_SAMPLES


class TestGeneratedSourceSafety:
    FUNCTOR = 'e")\n__import__("os").getpid()\nx'
    CONSTANT = 'k"), __import__("os")\n#'

    def test_quoted_text_stays_data(self):
        rules = (
            "initiatedAt('%s'(V)=true, T) :- happensAt('%s'(V, '%s'), T), tag(V, '%s').\n"
            % (self.FUNCTOR, self.FUNCTOR, self.CONSTANT, self.CONSTANT)
        )
        description = EventDescription.from_text(rules)
        kb = KnowledgeBase([Compound("tag", (Constant("v1"), Constant(self.CONSTANT)))])
        stream = EventStream(
            [
                Event(1, Compound(self.FUNCTOR, (Constant("v1"), Constant(self.CONSTANT)))),
                Event(2, Compound(self.FUNCTOR, (Constant("v2"), Constant("other")))),
            ]
        )
        for traced in (False, True):
            rule = next(iter(description.simple_fluents.values())).initiated_rules[0]
            source, _namespace = generate_source(compile_rule(rule), traced)
            assert "__import__" not in source
            assert '"' not in source
        result = RTECEngine(description, kb, strict=False).recognise(stream)
        pair = Compound("=", (Compound(self.FUNCTOR, (Constant("v1"),)), Constant("true")))
        assert list(result.holds_for(pair).points()) == [2]
        assert len(list(result.fvps())) == 1


class TestRetention:
    def test_bodies_compile_once_per_rule_not_per_window(self, monkeypatch):
        built = []
        build = rule_compile._build_body

        def counting(rule, traced):
            built.append(rule)
            return build(rule, traced)

        monkeypatch.setattr(rule_compile, "_build_body", counting)
        description = EventDescription.from_text(
            "initiatedAt(on(V)=true, T) :- happensAt(up(V), T).\n"
            "terminatedAt(on(V)=true, T) :- happensAt(down(V), T).\n"
        )
        stream = _stream([(t, "up(a)" if t % 2 else "down(a)") for t in range(1, 12)])
        engine = RTECEngine(description, strict=False)
        engine.recognise(stream, window=2, step=1)
        engine.recognise(stream, window=3, step=1)
        assert len(built) == 2

    def test_compiled_bodies_die_with_their_descriptions(self):
        gc.collect()
        cached = len(rule_compile._BODIES)
        stream = _stream([(1, "speed(a, 10)"), (2, "speed(a, 1)")])
        kb = KnowledgeBase.from_text("limit(a, 5).")
        rules = []
        for index in range(50):
            description = EventDescription.from_text(
                "initiatedAt(fast%d(V)=true, T) :- happensAt(speed(V, S), T), "
                "limit(V, L), S > plus(L, %d).\n"
                "terminatedAt(fast%d(V)=true, T) :- happensAt(speed(V, S), T), S < %d.\n"
                % (index, index, index, index)
            )
            engine = RTECEngine(description, kb, strict=False)
            with telemetry.enabled():
                engine.recognise(stream, window=1)
            engine.recognise(stream, optimise=True)
            for definition in description.simple_fluents.values():
                for rule in definition.initiated_rules + definition.terminated_rules:
                    rules.append(weakref.ref(rule))
            del engine, description, definition, rule
        gc.collect()
        assert len(rules) == 100
        assert [ref for ref in rules if ref() is not None] == []
        assert len(rule_compile._BODIES) == cached
