"""Compiled rule bodies for ``happensAt``-seeded rules.

``initiatedAt``/``terminatedAt`` bodies are evaluated for every window over
every seed event. :func:`compile_rule` analyses a rule once — which literal
is a ``happensAt``, the functor key of every pattern, which background
conditions can be hoisted out of the seed loop — and
:func:`compiled_body` turns that plan into one Python generator function
per rule, generated and compiled on first use:

* the seed loop binds the seed event's arguments to local *variable slots*
  by position;
* every remaining body condition becomes one nested loop or guard over
  those slots. Which variables are bound at each condition is decided at
  compile time (a positive condition binds all of its variables; negated
  ones and comparisons bind none), so matching a candidate fact against a
  pattern is a sequence of positional equality checks and slot
  assignments instead of general unification;
* a comparison becomes inline arithmetic;
* a ground background or ``holdsAt`` condition becomes a set or interval
  lookup; a non-ground background condition scans the knowledge base's
  first-argument index (:meth:`repro.logic.knowledge.KnowledgeBase.predicate_index`),
  a non-ground ``holdsAt`` the fluent store's instances of its schema;
* shapes known only at run time (a variable event pattern, a time-point
  bound by a background fact) call :func:`pattern_key` and the stream's
  lookups from inside the generated code.

Ground terms compare with ``==``: :class:`~repro.logic.terms.Constant`
equality agrees with unification on ground terms (``2`` matches ``2.0``).
All variable bindings are ground, because every fact a condition can match
(event, fluent instance, background fact) is ground.

The generated source never contains text from the rule: functors, atoms,
numbers and whole terms enter it only as names bound in the function's
namespace, so a quoted atom holding Python syntax stays data.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro import telemetry
from repro.logic.parser import Literal, Rule
from repro.logic.terms import (
    Compound,
    Constant,
    Term,
    Variable,
    intern_constant,
    is_fvp,
    term_variables,
)
from repro.logic.unification import Substitution
from repro.rtec.builtins import (
    _COMPARATORS,
    EVALUABLE_FUNCTORS,
    evaluate_arithmetic,
    is_comparison,
)
from repro.rtec.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.logic.knowledge import KnowledgeBase
    from repro.rtec.description import EventDescription
    from repro.rtec.store import FluentStore
    from repro.rtec.stream import EventStream

__all__ = [
    "HAPPENS",
    "HOLDS",
    "COMPARE",
    "BACKGROUND",
    "CompiledLiteral",
    "CompiledRule",
    "RuleBody",
    "compile_rule",
    "compiled_body",
    "generate_source",
    "pattern_key",
    "precompile_description",
    "rule_time_anchored",
]

HAPPENS, HOLDS, COMPARE, BACKGROUND = range(4)

#: A compiled body: ``(stream, kb, store, window_start, window_end,
#: require_ground)`` -> iterator of ``(head FVP, time)`` firing points.
RuleBody = Callable[
    ["EventStream", "KnowledgeBase", "FluentStore", int, int, bool],
    Iterator[Tuple[Term, int]],
]


@dataclass(frozen=True)
class CompiledLiteral:
    """One body condition with its dispatch tag precomputed."""

    literal: Literal
    tag: int
    #: (functor, arity) of the event / fluent pattern when statically known
    #: (i.e. the pattern is not itself a variable). For ``HAPPENS`` this is
    #: the event pattern's key; for ``HOLDS`` the fluent pattern's key.
    key: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class CompiledRule:
    """The evaluator plan of one ``happensAt``-seeded rule."""

    rule: Rule
    head_pair: Term
    head_time: Term
    seed_event: Term
    seed_time: Term
    seed_key: Tuple[str, int]
    #: Positive atemporal conditions evaluated once per window.
    hoisted: Tuple[Literal, ...]
    #: The remaining body conditions, in order, with dispatch tags.
    body: Tuple[CompiledLiteral, ...]


def _is_happens_at(term: Term) -> bool:
    return isinstance(term, Compound) and term.functor == "happensAt" and term.arity == 2


def _is_holds_at(term: Term) -> bool:
    return isinstance(term, Compound) and term.functor == "holdsAt" and term.arity == 2


def pattern_key(term: Term) -> Tuple[str, int]:
    """(functor, arity) of an event or fluent pattern."""
    if isinstance(term, Compound):
        return term.functor, term.arity
    if isinstance(term, Constant) and isinstance(term.value, str):
        return term.value, 0
    raise EvaluationError("cannot determine functor of pattern %r" % (term,))


def _static_key(term: Term) -> Optional[Tuple[str, int]]:
    try:
        return pattern_key(term)
    except EvaluationError:
        return None


def _classify(literal: Literal) -> CompiledLiteral:
    term = literal.term
    if _is_happens_at(term):
        assert isinstance(term, Compound)
        return CompiledLiteral(literal, HAPPENS, _static_key(term.args[0]))
    if _is_holds_at(term):
        assert isinstance(term, Compound)
        key = None
        pair = term.args[0]
        if is_fvp(pair):
            assert isinstance(pair, Compound)
            key = _static_key(pair.args[0])
        return CompiledLiteral(literal, HOLDS, key)
    if is_comparison(term):
        return CompiledLiteral(literal, COMPARE)
    return CompiledLiteral(literal, BACKGROUND)


def compile_rule(rule: Rule) -> CompiledRule:
    """Build the evaluator plan for one rule.

    Raises :class:`EvaluationError` on malformed shapes (no body, first
    condition not a positive ``happensAt``, head without an FVP) and on
    rules the binding-order analysis proves would fail at run time. The
    plan is not cached; :func:`compiled_body` caches what it generates
    from it.
    """
    if not rule.body:
        raise EvaluationError("rule %r has an empty body" % (rule.head,))
    first = rule.body[0]
    if first.negated or not _is_happens_at(first.term):
        raise EvaluationError(
            "first condition of %r must be a positive happensAt" % (rule.head,)
        )
    head = rule.head
    if not (isinstance(head, Compound) and head.arity == 2 and is_fvp(head.args[0])):
        raise EvaluationError("rule head without an FVP: %r" % (head,))
    head_pair, head_time = head.args
    assert isinstance(first.term, Compound)
    seed_event, seed_time = first.term.args
    seed_key = pattern_key(seed_event)

    # Binding-order dataflow: a rule whose body is guaranteed to feed an
    # unbound variable into a builtin (or whose head can never become
    # ground) would raise an EvaluationError on its first firing; reject it
    # at compile time with the analyser's diagnostic instead of crashing
    # mid-window. Imported lazily — repro.analysis depends on this package.
    from repro.analysis.binding import check_simple_rule

    problems = check_simple_rule(rule)
    if problems:
        raise EvaluationError(problems[0].message, rule_head=rule.head)

    # Variables a stream condition can bind vary per seed event, so a
    # condition touching them can never be hoisted out of the seed loop.
    stream_vars = set(term_variables(first.term))
    for literal in rule.body[1:]:
        if _is_happens_at(literal.term) or _is_holds_at(literal.term):
            stream_vars.update(term_variables(literal.term))
    stream_vars.update(term_variables(head_time))

    hoisted = []
    blocked_vars: Set[Variable] = set()  # variables of earlier non-hoisted conditions
    body = []
    for literal in rule.body[1:]:
        compiled = _classify(literal)
        lit_vars = set(term_variables(literal.term))
        if (
            compiled.tag == BACKGROUND
            and not literal.negated
            and not (lit_vars & stream_vars)
            and not (lit_vars & blocked_vars)
        ):
            hoisted.append(literal)
        else:
            body.append(compiled)
            blocked_vars |= lit_vars

    return CompiledRule(
        rule=rule,
        head_pair=head_pair,
        head_time=head_time,
        seed_event=seed_event,
        seed_time=seed_time,
        seed_key=seed_key,
        hoisted=tuple(hoisted),
        body=tuple(body),
    )


def rule_time_anchored(plan: CompiledRule) -> bool:
    """Whether every temporal condition of ``plan`` is anchored at the head time.

    A rule is *time-anchored* when its head time is a variable bound by the
    seed event's occurrence time and every other ``happensAt``/``holdsAt``
    condition refers to exactly that variable. Such a rule's firing points
    at times after a boundary ``b`` depend only on events and fluent values
    after ``b`` — the property the incremental (delta) window evaluation
    relies on: re-running the rule over just the events newer than the
    previous query time reproduces precisely the firings newer than it.

    Rules that scan the window with a free time variable, pin a condition
    to a constant time-point, or put a constant in the head time can reach
    back before the boundary; descriptions containing any such rule fall
    back to full-window recomputation (see
    :meth:`repro.rtec.engine.RTECEngine.delta_diagnostics`).
    """
    head_time = plan.head_time
    if not isinstance(head_time, Variable):
        return False
    if plan.seed_time != head_time:
        return False
    for compiled in plan.body:
        if compiled.tag in (HAPPENS, HOLDS):
            term = compiled.literal.term
            assert isinstance(term, Compound)
            if term.args[1] != head_time:
                return False
    return True


# -- run-time support of the generated code ----------------------------------


def _fail(reason: str, condition: Term) -> float:
    """Raise a comparison's error from inside its arithmetic expression."""
    raise EvaluationError(reason, condition=condition)


def _slow_number(term: Term, condition: Term) -> float:
    """The value of a bound variable that is not a plain numeric constant:
    evaluated as an arithmetic expression, or the evaluation's error."""
    try:
        return evaluate_arithmetic(term, _EMPTY)
    except EvaluationError as exc:
        raise exc.with_context(condition=condition) from exc


def _arithmetic(functor: str, condition: Term) -> Callable[..., float]:
    """An evaluable functor raising the errors of
    :func:`repro.rtec.builtins.evaluate_arithmetic`."""
    fn = EVALUABLE_FUNCTORS[functor]

    def apply(*args: float) -> float:
        try:
            return fn(*args)
        except TypeError:
            raise EvaluationError(
                "wrong arity for arithmetic functor %r: %d" % (functor, len(args)),
                condition=condition,
            )
        except ZeroDivisionError:
            raise EvaluationError(
                "division by zero in arithmetic expression", condition=condition
            )

    return apply


def _time_point(term: Term, reason: str) -> int:
    """A bound time-point term as an int, or an error naming ``reason``."""
    if isinstance(term, Constant) and term.is_number:
        return int(term.value)
    raise EvaluationError(reason)


def _scan_events(
    stream: "EventStream",
    key: Tuple[str, int],
    first: Optional[Term],
    time: Term,
    window_start: int,
    window_end: int,
) -> Iterator:
    """Candidates of a body ``happensAt`` whose time-point is bound at run
    time: the events at that time when it is a number, else the window."""
    if isinstance(time, Constant) and time.is_number:
        return stream.events_at(key[0], key[1], int(time.value), first)
    return stream.events_in_window(key[0], key[1], window_start, window_end, first)


def _hoister(literals: Tuple[Literal, ...], variables: Tuple[Variable, ...]):
    """Solve the hoisted prefix once per call: a list of slot-value tuples."""

    def hoist(kb: "KnowledgeBase") -> List[Tuple[Term, ...]]:
        solutions = [_EMPTY]
        for literal in literals:
            solutions = [ext for s in solutions for ext in kb.query(literal.term, s)]
            if not solutions:
                return []
        return [tuple(s.resolve(var) for var in variables) for s in solutions]

    return hoist


def _counter_flush(classes: Tuple[str, ...]) -> Callable[[Tuple[int, ...]], None]:
    """Emit the ``cond.<class>.eval``/``.sol`` counters of one traced call.

    ``counts[i]`` is how often condition ``i`` was reached; every solution
    of condition ``i`` reaches condition ``i + 1`` (or the head), so
    ``counts[i + 1]`` is its solution count.
    """
    names = [("cond.%s.eval" % cls, "cond.%s.sol" % cls) for cls in classes]

    def flush(counts: Tuple[int, ...]) -> None:
        for (evals, sols), reached, solved in zip(names, counts, counts[1:]):
            if reached:
                telemetry.count(evals, reached)
            if solved:
                telemetry.count(sols, solved)

    return flush


_EMPTY = Substitution()

_INLINE_COMPARATORS = {"<": "<", ">": ">", "=<": "<=", ">=": ">="}

#: Loops one generated function may nest (CPython's limit is 20 blocks,
#: counting the ``try`` of the traced variant).
_MAX_LOOPS = 16

#: Names every generated function may use.
_RUNTIME: Dict[str, object] = {
    "_Compound": Compound,
    "_Constant": Constant,
    "_NUMBER": (int, float),
    "_EvaluationError": EvaluationError,
    "_intern": intern_constant,
    "_is_fvp": is_fvp,
    "_pattern_key": pattern_key,
    "_scan_events": _scan_events,
    "_time_point": _time_point,
    "_fail": _fail,
    "_slow_number": _slow_number,
}


# -- code generation ----------------------------------------------------------


class _Dead(Exception):
    """The condition being generated always raises; nothing after it runs."""


class _Generator:
    """Writes the source of one rule's body function.

    Every variable gets a slot local ``v<k>``; a variable bound to an event
    occurrence time also gets ``i<k>``, the plain int, and its term local is
    only materialised (``v<k> = _intern(i<k>)``) when some later code reads
    it. ``bound`` maps each variable bound at the current point of the
    generated code to ``"term"`` or ``"int"``.
    """

    def __init__(self, plan: CompiledRule, traced: bool) -> None:
        self.plan = plan
        self.traced = traced
        self.namespace: Dict[str, object] = dict(_RUNTIME)
        self._constants: Dict[int, str] = {}
        self.prelude: Dict[str, str] = {}
        self.lines: List[Union[str, Tuple[str, int, int]]] = []
        self.depth = 1
        #: Loops open in the function being written, and the nested
        #: functions opened so far as ``(depth of the def, name)``.
        self.loops = 0
        self.nested: List[Tuple[int, str]] = []
        self.slots: Dict[Variable, int] = {}
        self.bound: Dict[Variable, str] = {}
        #: Locals holding the numeric value of a variable (walrus-cached).
        self.numbers: Dict[Variable, str] = {}
        self.term_reads: Set[int] = set()
        self.temps = 0
        self.classes: List[str] = []

    # -- plumbing ------------------------------------------------------------

    def const(self, value: object) -> str:
        """A namespace name bound to ``value`` (never its text)."""
        name = self._constants.get(id(value))
        if name is None:
            name = "_k%d" % len(self._constants)
            self._constants[id(value)] = name
            self.namespace[name] = value
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def guard(self, failed: str) -> None:
        """Backtrack when ``failed`` holds: to the next candidate of the
        innermost loop, or out of a nested function before its first loop."""
        self.emit("if %s: %s" % (failed, "continue" if self.loops else "return"))

    def make_room(self) -> None:
        """Continue the body in a nested generator function when the current
        one already nests :data:`_MAX_LOOPS` loops (CPython allows 20
        statically nested blocks per function); the function is entered by
        ``yield from`` where the outer body ends."""
        if self.loops < _MAX_LOOPS:
            return
        name = self.temp("_d")
        self.emit("def %s():" % name)
        self.nested.append((self.depth, name))
        self.depth += 1
        self.lines.append(("nonlocal", self.depth, 0))
        self.loops = 0

    def open_loop(self, header: str) -> None:
        """Open ``for <header>:``; the rest of the body nests inside it."""
        self.make_room()
        self.emit("for %s:" % header)
        self.depth += 1
        self.loops += 1

    def temp(self, prefix: str) -> str:
        self.temps += 1
        return "%s%d" % (prefix, self.temps)

    def slot(self, var: Variable) -> int:
        return self.slots.setdefault(var, len(self.slots))

    def need(self, name: str, expression: str) -> str:
        """A local computed once per call at the top of the function."""
        self.prelude.setdefault(name, expression)
        return name

    def is_bound(self, term: Term) -> bool:
        return all(var in self.bound for var in term_variables(term))

    def bind(self, var: Variable, expression: str) -> None:
        self.emit("v%d = %s" % (self.slot(var), expression))
        self.bound[var] = "term"

    def bind_time(self, var: Variable, expression: str) -> None:
        index = self.slot(var)
        self.emit("i%d = %s" % (index, expression))
        self.lines.append(("intern", self.depth, index))  # the lazy term local
        self.bound[var] = "int"

    def term(self, term: Term) -> str:
        """An expression for ``term`` under the current bindings."""
        if isinstance(term, Variable):
            if term not in self.bound:
                return self.const(term)
            index = self.slot(term)
            self.term_reads.add(index)
            return "v%d" % index
        bound = [var for var in term_variables(term) if var in self.bound]
        if isinstance(term, Constant) or not bound:
            return self.const(term)
        # Built once per call and binding of its variables: heads and lookup
        # keys repeat across the seed events of one window. Equal bindings
        # (``2`` and ``2.0``) share the first-built term, the one the
        # engine's FVP-keyed maps would keep anyway.
        if len(bound) == 1:
            key = self.term(bound[0])
        else:
            key = "(%s)" % "".join("%s, " % self.term(var) for var in bound)
        memo = self.need(self.temp("_m"), "{}")
        return "(%s.get(%s) or %s.setdefault(%s, %s))" % (
            memo, key, memo, key, self.build(term),
        )

    def build(self, term: Term) -> str:
        """An expression constructing ``term`` under the current bindings."""
        if isinstance(term, Variable) or isinstance(term, Constant):
            return self.term(term)
        if not any(var in self.bound for var in term_variables(term)):
            return self.const(term)
        args = "".join("%s, " % self.build(arg) for arg in term.args)
        return "_Compound(%s, (%s))" % (self.const(term.functor), args)

    def time_int(self, var: Variable) -> Optional[str]:
        """The int local of a variable bound to an event time, if any."""
        if self.bound.get(var) == "int":
            return "i%d" % self.slot(var)
        return None

    # -- matching a ground run-time term against a pattern -------------------

    def match(self, pattern: Term, value: str) -> None:
        """Guards that the ground term ``value`` matches ``pattern``, binding
        the pattern's free variables."""
        if isinstance(pattern, Variable) and pattern not in self.bound:
            self.bind(pattern, value)
            return
        if "(" in value:
            name = self.temp("_t")
            self.emit("%s = %s" % (name, value))
            value = name
        if isinstance(pattern, Compound) and not self.is_bound(pattern):
            self.guard(
                "%s.__class__ is not _Compound or %s.functor != %s or len(%s.args) != %d"
                % (value, value, self.const(pattern.functor), value, pattern.arity)
            )
            self.match_args(pattern.args, "%s.args" % value)
            return
        expected = self.term(pattern)
        if "(" in expected:
            name = self.temp("_t")
            self.emit("%s = %s" % (name, expected))
            expected = name
        self.guard("%s is not %s and %s != %s" % (value, expected, value, expected))

    def match_args(self, patterns: Tuple[Term, ...], args: str, skip_first: bool = False) -> None:
        """Positional matching of an argument tuple expression."""
        fresh: List[Variable] = [
            p for p in patterns if isinstance(p, Variable) and p not in self.bound
        ]
        if not skip_first and len(fresh) == len(patterns) and len(set(fresh)) == len(fresh):
            targets = "".join("v%d, " % self.slot(var) for var in fresh)
            self.emit("%s= %s" % (targets, args))
            for var in fresh:
                self.bound[var] = "term"
            return
        name = self.temp("_a")
        self.emit("%s = %s" % (name, args))
        for position, pattern in enumerate(patterns):
            if skip_first and position == 0:
                continue
            self.match(pattern, "%s[%d]" % (name, position))

    def match_time(self, pattern: Term, occurrence: str, exact: bool) -> None:
        """Match an event occurrence time (an int expression) against a
        time pattern; ``exact``: the candidate lookup already guaranteed it."""
        if exact:
            return
        if isinstance(pattern, Variable) and pattern not in self.bound:
            self.bind_time(pattern, occurrence)
            return
        self.match(pattern, "_intern(%s)" % occurrence)

    # -- conditions ------------------------------------------------------------

    def condition(self, index: int, compiled: CompiledLiteral) -> None:
        self.classes.append(self.condition_class(compiled))
        if self.traced:
            self.emit("c%d += 1" % index)
        if compiled.tag == COMPARE:
            self.compare(compiled.literal)
        elif compiled.tag == HAPPENS:
            self.happens(compiled)
        elif compiled.tag == HOLDS:
            self.holds(compiled)
        else:
            self.background(compiled.literal)

    def condition_class(self, compiled: CompiledLiteral) -> str:
        """The measured cost class (mirrors
        :func:`repro.analysis.costmodel.condition_class`)."""
        literal = compiled.literal
        if compiled.tag == COMPARE:
            return "compare"
        if compiled.tag == HAPPENS:
            return "happensat.neg" if literal.negated else "happensat"
        if compiled.tag == HOLDS:
            assert isinstance(literal.term, Compound)
            return "holdsat.ground" if self.is_bound(literal.term.args[0]) else "holdsat.enum"
        return "background.neg" if literal.negated else "background"

    def scan(self, item: str, candidates: str, negated: bool, match: Callable[[], None]) -> None:
        """A loop over candidate facts; ``match`` emits the guards of one.

        Positive: the rest of the body nests inside the loop. Negated: the
        loop only looks for one match and its bindings are dropped after.
        """
        if not negated:
            self.open_loop("%s in %s" % (item, candidates))
            match()
            return
        saved = dict(self.bound)
        hit = self.temp("_h")
        self.make_room()
        self.emit("%s = False" % hit)
        self.open_loop("%s in %s" % (item, candidates))
        match()
        self.emit("%s = True" % hit)
        self.emit("break")
        self.depth -= 1
        self.loops -= 1
        self.bound = saved
        self.guard(hit)

    def raise_error(self, reason: str) -> None:
        self.emit("raise _EvaluationError(%s)" % self.const(reason))
        raise _Dead

    def compare(self, literal: Literal) -> None:
        term = literal.term
        assert isinstance(term, Compound)
        left = self.number(term.args[0], term)
        right = self.number(term.args[1], term)
        operator = _INLINE_COMPARATORS.get(term.functor)
        if operator is not None:
            test = "%s %s %s" % (left, operator, right)
        else:
            test = "%s(%s, %s)" % (self.const(_COMPARATORS[term.functor]), left, right)
        self.guard(test if literal.negated else "not (%s)" % test)

    def number(self, term: Term, condition: Term) -> str:
        """An expression for the numeric value of an arithmetic term,
        raising the errors of :func:`repro.rtec.builtins.evaluate_arithmetic`
        in its order: left operand first, an unknown functor before its
        arguments, a failing application after them."""
        if isinstance(term, Variable):
            if term not in self.bound:
                return "_fail(%s, %s)" % (
                    self.const("unbound variable %r in arithmetic expression" % term.name),
                    self.const(condition),
                )
            known = self.time_int(term) or self.numbers.get(term)
            if known is not None:
                return known
            index = self.slot(term)
            self.term_reads.add(index)
            name = self.numbers[term] = "n%d" % index
            return (
                "(%s := v%d.value if v%d.__class__ is _Constant "
                "and v%d.value.__class__ in _NUMBER else _slow_number(v%d, %s))"
                % (name, index, index, index, index, self.const(condition))
            )
        if isinstance(term, Constant):
            if term.is_number:
                return self.const(term.value)
            return "_fail(%s, %s)" % (
                self.const("non-numeric constant %r in arithmetic expression" % term.value),
                self.const(condition),
            )
        assert isinstance(term, Compound)
        if term.functor not in EVALUABLE_FUNCTORS:
            return "_fail(%s, %s)" % (
                self.const("unknown arithmetic functor %r/%d" % (term.functor, term.arity)),
                self.const(condition),
            )
        args = ", ".join(self.number(arg, condition) for arg in term.args)
        return "%s(%s)" % (self.const(_arithmetic(term.functor, condition)), args)

    def happens(self, compiled: CompiledLiteral) -> None:
        literal = compiled.literal
        assert isinstance(literal.term, Compound)
        pattern, time = literal.term.args
        first: Optional[str] = None
        if compiled.key is not None:
            key = self.const(compiled.key)
            if isinstance(pattern, Compound) and self.is_bound(pattern.args[0]):
                first = self.term(pattern.args[0])
        elif isinstance(pattern, Variable) and pattern in self.bound:
            key = self.temp("_y")
            self.emit("%s = _pattern_key(%s)" % (key, self.term(pattern)))
        else:
            self.emit("_pattern_key(%s)" % self.term(pattern))  # always raises
            raise _Dead
        first_arg = first or "None"

        exact = False
        at = self.time_int(time) if isinstance(time, Variable) else None
        if at is not None:
            exact = True
        elif isinstance(time, Constant) and time.is_number:
            at = self.const(int(time.value))
            exact = isinstance(time.value, int)
        if at is not None:
            candidates = "_at(%s[0], %s[1], %s, %s)" % (key, key, at, first_arg)
            self.need("_at", "stream.events_at")
        elif isinstance(time, Variable) and time in self.bound:
            candidates = "_scan_events(stream, %s, %s, %s, window_start, window_end)" % (
                key, first_arg, self.term(time),
            )
        else:
            candidates = "_in(%s[0], %s[1], window_start, window_end, %s)" % (
                key, key, first_arg,
            )
            self.need("_in", "stream.events_in_window")

        event = self.temp("_e")
        before = dict(self.bound)
        indexed, keyed = first is not None, compiled.key is not None

        def match() -> None:
            if not keyed:
                self.match(pattern, "%s.term" % event)
            elif isinstance(pattern, Compound):
                self.match_args(pattern.args, "%s.term.args" % event, skip_first=indexed)
            if literal.negated:
                # A negated condition matches its time pattern under the
                # bindings from before the condition, not under those its
                # event pattern just made.
                self.bound = dict(before)
            self.match_time(time, "%s.time" % event, exact)

        self.scan(event, candidates, literal.negated, match)

    def holds(self, compiled: CompiledLiteral) -> None:
        literal = compiled.literal
        assert isinstance(literal.term, Compound)
        pair, time = literal.term.args
        time_error = "holdsAt time-point must be bound: %r" % (literal.term,)
        at = self.time_int(time) if isinstance(time, Variable) else None
        if at is None:
            if isinstance(time, Variable) and time in self.bound:
                at = self.temp("_w")
                self.emit("%s = _time_point(%s, %s)" % (at, self.term(time), self.const(time_error)))
            elif isinstance(time, Constant) and time.is_number:
                at = self.const(int(time.value))
            else:
                self.raise_error(time_error)
        fvp_error = "holdsAt requires an FVP argument: %r" % (literal.term,)
        if not is_fvp(pair):
            if not (isinstance(pair, Variable) and pair in self.bound):
                self.raise_error(fvp_error)
            self.emit(
                "if not _is_fvp(%s): raise _EvaluationError(%s)"
                % (self.term(pair), self.const(fvp_error))
            )
        if self.is_bound(pair):
            holds = self.need("_holds", "store.holds_at")
            test = "%s(%s, %s)" % (holds, self.term(pair), at)
            self.guard(test if literal.negated else "not %s" % test)
            return
        if literal.negated:
            self.raise_error("negated holdsAt requires ground arguments: %r" % (literal.term,))
        assert isinstance(pair, Compound)
        fluent, value = pair.args
        if compiled.key is not None:
            key = self.const(compiled.key)
        elif isinstance(fluent, Variable) and fluent in self.bound:
            key = "_pattern_key(%s)" % self.term(fluent)
        else:
            self.emit("_pattern_key(%s)" % self.term(fluent))  # always raises
            raise _Dead
        instance, intervals = self.temp("_p"), self.temp("_i")
        self.need("_instances", "store.instances")
        self.open_loop("%s, %s in _instances(%s)" % (instance, intervals, key))
        args = self.temp("_a")
        self.emit("%s = %s.args" % (args, instance))
        if compiled.key is None:
            self.match(fluent, "%s[0]" % args)
        elif isinstance(fluent, Compound):
            # The schema index guarantees the fluent's functor and arity.
            self.match_args(fluent.args, "%s[0].args" % args)
        self.match(value, "%s[1]" % args)
        self.guard("not %s.holds_at(%s)" % (intervals, at))

    def background(self, literal: Literal) -> None:
        goal = literal.term
        if isinstance(goal, Variable) or (
            isinstance(goal, Constant) and not isinstance(goal.value, str)
        ):
            if goal in self.bound:
                test = "%s in kb" % self.term(goal)
                self.guard(test if literal.negated else "not (%s)" % test)
            elif not literal.negated:
                # No fact can match an unbound variable or a number.
                self.guard("True")
            return
        key = pattern_key(goal)
        index = self.const(key)
        facts, ground, by_first = "_f" + index, "_g" + index, "_b" + index
        self.need("%s, %s, %s" % (facts, ground, by_first), "kb.predicate_index(%s)" % index)
        if self.is_bound(goal):
            test = "%s in %s" % (self.term(goal), ground)
            self.guard(test if literal.negated else "not (%s)" % test)
            return
        assert isinstance(goal, Compound)
        indexed = self.is_bound(goal.args[0])
        if indexed:
            candidates = "%s.get(%s, ())" % (by_first, self.term(goal.args[0]))
        else:
            candidates = facts
        fact, patterns = self.temp("_x"), goal.args
        self.scan(
            fact,
            candidates,
            literal.negated,
            lambda: self.match_args(patterns, "%s.args" % fact, skip_first=indexed),
        )

    def head(self) -> None:
        plan = self.plan
        if self.traced:
            self.emit("c%d += 1" % len(plan.body))
        pair = self.term(plan.head_pair)
        if not self.is_bound(plan.head_pair):
            name = self.temp("_r")
            self.emit("%s = %s" % (name, pair))
            self.emit("if require_ground: raise _head_error(%s)" % name)
            pair = name
        time_error = "head time-point is not bound in %r" % (plan.rule.head,)
        head_time = plan.head_time
        at = self.time_int(head_time) if isinstance(head_time, Variable) else None
        if at is None:
            if isinstance(head_time, Variable) and head_time in self.bound:
                at = "_time_point(%s, %s)" % (self.term(head_time), self.const(time_error))
            elif isinstance(head_time, Constant) and head_time.is_number:
                at = self.const(int(head_time.value))
            else:
                self.raise_error(time_error)
        self.emit("yield %s, %s" % (pair, at))

    # -- the whole function ----------------------------------------------------

    def seed(self) -> None:
        plan = self.plan
        self.need("_in", "stream.events_in_window")
        key = self.const(plan.seed_key)
        self.open_loop("_e in _in(%s[0], %s[1], window_start, window_end)" % (key, key))
        if isinstance(plan.seed_event, Compound):
            self.match_args(plan.seed_event.args, "_e.term.args")
        self.match_time(plan.seed_time, "_e.time", exact=False)

    def generate(self) -> str:
        plan = self.plan
        hoisted_vars: Tuple[Variable, ...] = ()
        if plan.hoisted:
            seen: List[Variable] = []
            for literal in plan.hoisted:
                for var in term_variables(literal.term):
                    if var not in seen:
                        seen.append(var)
            hoisted_vars = tuple(seen)
            hoist = self.const(_hoister(plan.hoisted, hoisted_vars))
            self.need("_pre", "%s(kb)" % hoist)
        self.namespace["_head_error"] = partial(_head_error, plan.rule.head)
        try:
            self.seed()
            if plan.hoisted:
                if hoisted_vars:
                    self.open_loop("_q in _pre")
                    for var in hoisted_vars:
                        self.bound[var] = "term"
                    targets = "".join("v%d, " % self.slot(var) for var in hoisted_vars)
                    self.emit("%s= _q" % targets)
            for index, compiled in enumerate(plan.body):
                self.condition(index, compiled)
            self.head()
        except _Dead:
            pass
        for depth, name in reversed(self.nested):
            self.lines.append("    " * depth + "yield from %s()" % name)
        return self.render(bool(plan.hoisted))

    def render(self, hoisted: bool) -> str:
        lines = ["def _rule(stream, kb, store, window_start, window_end, require_ground):"]
        for name, expression in self.prelude.items():
            lines.append("    %s = %s" % (name, expression))
        if hoisted:
            lines.append("    if not _pre:")
            lines.append("        return")
        counters = len(self.classes) + 1
        body: List[str] = []
        for line in self.lines:
            if isinstance(line, str):
                body.append(line)
                continue
            kind, depth, index = line
            if kind == "intern" and index in self.term_reads:
                body.append("    " * depth + "v%d = _intern(i%d)" % (index, index))
            elif kind == "nonlocal" and self.traced:
                body.append(
                    "    " * depth + "nonlocal " + ", ".join("c%d" % i for i in range(counters))
                )
        if self.traced:
            self.namespace["_flush"] = _counter_flush(tuple(self.classes))
            lines.append("    " + " = ".join("c%d" % i for i in range(counters)) + " = 0")
            lines.append("    try:")
            lines.extend("    " + line for line in body)
            lines.append("    finally:")
            lines.append(
                "        _flush((%s))" % "".join("c%d, " % i for i in range(counters))
            )
        else:
            lines.extend(body)
        # A generator even when every path raises before the first yield.
        lines.append("    return")
        lines.append("    yield")
        return "\n".join(lines) + "\n"


def _head_error(head: Term, pair: Term) -> EvaluationError:
    return EvaluationError(
        "head FVP %r not ground after body evaluation of %r" % (pair, head)
    )


def generate_source(plan: CompiledRule, traced: bool = False) -> Tuple[str, Dict[str, object]]:
    """The Python source of ``plan``'s body function and its namespace.

    ``traced`` adds the ``cond.<class>.eval``/``.sol`` counters the
    measured cost model reads (:mod:`repro.analysis.costmodel`).
    """
    generator = _Generator(plan, traced)
    source = generator.generate()
    return source, generator.namespace


def _build_body(rule: Rule, traced: bool) -> RuleBody:
    try:
        plan = compile_rule(rule)
    except EvaluationError as exc:
        reason, head, condition = exc.reason, exc.rule_head, exc.condition

        def uncompilable(*_args: object) -> Iterator[Tuple[Term, int]]:
            raise EvaluationError(reason, head, condition)

        return uncompilable
    source, namespace = generate_source(plan, traced)
    exec(compile(source, "<compiled rule body>", "exec"), namespace)
    return namespace["_rule"]  # type: ignore[return-value]


#: Generated bodies keyed by rule identity: ``id(rule) -> (weak reference
#: to the rule, [untraced body, traced body])``. Entries hold no strong
#: reference to their rule and are dropped when it is collected, so a
#: description's compiled bodies die with it.
_BODIES: Dict[int, Tuple["weakref.ref[Rule]", List[Optional[RuleBody]]]] = {}


def _forget(key: int, ref: "weakref.ref[Rule]") -> None:
    entry = _BODIES.get(key)
    if entry is not None and entry[0] is ref:
        _BODIES.pop(key, None)


def compiled_body(rule: Rule, traced: bool = False) -> RuleBody:
    """The generated body function of ``rule``, compiled on first use.

    Calling it returns a generator of ``(head FVP, time)`` firing points;
    a rule :func:`compile_rule` rejects yields a function raising that
    error. ``traced`` selects the variant emitting condition counters.
    """
    key = id(rule)
    entry = _BODIES.get(key)
    if entry is None or entry[0]() is not rule:
        variants: List[Optional[RuleBody]] = [None, None]
        _BODIES[key] = (weakref.ref(rule, partial(_forget, key)), variants)
    else:
        variants = entry[1]
    body = variants[traced]
    if body is None:
        body = variants[traced] = _build_body(rule, traced)
    return body


def precompile_description(description: "EventDescription") -> None:
    """Compile the body of every simple-fluent rule ahead of its first window.

    The optimised engine calls this once at construction so that the first
    recognition window pays no compile cost. A rule the compiler rejects
    gets its error-raising body, exactly as on first use.
    """
    for definition in description.simple_fluents.values():
        for rule in definition.initiated_rules + definition.terminated_rules:
            compiled_body(rule)
