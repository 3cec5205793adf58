"""Static (atemporal) knowledge base.

RTEC rule bodies may reference background knowledge such as
``areaType(AreaID, AreaType)``, ``thresholds(Name, Value)`` or
``vesselType(Vessel, Type)`` (Section 3.2 of the paper). These facts do not
change over time; the engine queries them by unification.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.logic.parser import parse_program
from repro.logic.terms import Compound, Constant, Term, is_ground
from repro.logic.unification import Substitution, unify

__all__ = ["KnowledgeBase", "PredicateIndex"]


class PredicateIndex(NamedTuple):
    """Read-only views of the facts of one predicate (see
    :meth:`KnowledgeBase.predicate_index`)."""

    #: Every fact, in insertion order.
    facts: Sequence[Term]
    #: The same facts as a set, for ground membership tests.
    ground: AbstractSet[Term]
    #: Facts grouped by their (ground) first argument.
    by_first: Mapping[Term, Sequence[Term]]


_NO_FACTS = PredicateIndex((), frozenset(), {})


def _key_of(term: Term) -> Tuple[str, int]:
    if isinstance(term, Compound):
        return (term.functor, term.arity)
    if isinstance(term, Constant) and isinstance(term.value, str):
        return (term.value, 0)
    raise ValueError("knowledge base facts must be atoms or compounds: %r" % (term,))


class KnowledgeBase:
    """A set of ground atemporal facts indexed by (functor, arity).

    Two secondary indexes accelerate the rule-evaluation hot path: a set per
    predicate for O(1) fully-ground queries, and a first-argument index so a
    query with a bound first argument (``vesselSpeedRange(v1, Min, Max)``)
    only unifies against the facts of that entity instead of the whole
    predicate. Both rely on :class:`~repro.logic.terms.Constant` equality
    and hashing agreeing with unification (``2`` matches ``2.0``).
    """

    def __init__(self, facts: Iterable[Term] = ()) -> None:
        self._facts: Dict[Tuple[str, int], List[Term]] = defaultdict(list)
        self._fact_sets: Dict[Tuple[str, int], set] = defaultdict(set)
        self._by_first: Dict[Tuple[str, int], Dict[Term, List[Term]]] = defaultdict(dict)
        for fact in facts:
            self.add(fact)

    @classmethod
    def from_text(cls, text: str) -> "KnowledgeBase":
        """Build a knowledge base from a program of facts, e.g. ``areaType(a1, fishing).``"""
        kb = cls()
        for rule in parse_program(text):
            if not rule.is_fact:
                raise ValueError("knowledge bases may only contain facts: %r" % (rule,))
            kb.add(rule.head)
        return kb

    def add(self, fact: Term) -> None:
        if not is_ground(fact):
            raise ValueError("knowledge base facts must be ground: %r" % (fact,))
        key = _key_of(fact)
        if fact not in self._fact_sets[key]:
            self._facts[key].append(fact)
            self._fact_sets[key].add(fact)
            if isinstance(fact, Compound):
                self._by_first[key].setdefault(fact.args[0], []).append(fact)

    def predicates(self) -> Iterator[Tuple[str, int]]:
        """Yield the (functor, arity) pairs with at least one fact."""
        return iter(sorted(self._facts))

    def facts(self, functor: Optional[str] = None) -> Iterator[Term]:
        """Yield all facts, or only those with the given functor."""
        for (name, _arity), stored in sorted(self._facts.items()):
            if functor is None or name == functor:
                yield from stored

    def predicate_index(self, key: Tuple[str, int]) -> PredicateIndex:
        """The facts of predicate ``key`` = (functor, arity) and their indexes.

        Compiled rule bodies (:mod:`repro.rtec.compile`) fetch this once per
        evaluation and answer a ground condition by set membership and a
        non-ground one by scanning ``facts`` — or ``by_first[first]`` when
        the first argument is bound — with positional matching. The views
        are live and must not be mutated.
        """
        facts = self._facts.get(key)
        if not facts:
            return _NO_FACTS
        return PredicateIndex(facts, self._fact_sets[key], self._by_first.get(key, {}))

    def query(self, goal: Term, subst: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Yield one extended substitution per fact unifying with ``goal``."""
        if subst is None:
            subst = Substitution()
        goal = subst.resolve(goal)
        try:
            key = _key_of(goal)
        except ValueError:
            return
        if is_ground(goal):
            if goal in self._fact_sets.get(key, ()):
                yield subst
            return
        candidates = self._facts.get(key, ())
        if candidates and isinstance(goal, Compound):
            first = goal.args[0]
            if is_ground(first):
                candidates = self._by_first[key].get(first, ())
        for fact in candidates:
            extended = unify(goal, fact, subst)
            if extended is not None:
                yield extended

    def holds(self, goal: Term, subst: Optional[Substitution] = None) -> bool:
        """True when at least one fact unifies with ``goal``."""
        return next(self.query(goal, subst), None) is not None

    def __len__(self) -> int:
        return sum(len(v) for v in self._facts.values())

    def __contains__(self, fact: Term) -> bool:
        try:
            key = _key_of(fact)
        except ValueError:
            return False
        return fact in self._fact_sets.get(key, ())
