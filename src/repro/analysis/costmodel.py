"""Measured condition-cost models for selectivity reordering.

The optimiser's Phase C (:func:`repro.analysis.optimize.optimise_description`
with ``reorder=True``) orders simple-rule bodies cheapest-first. By default
the rank of a condition comes from a static table (comparisons before
background lookups before fluent queries before stream joins). This module
replaces that heuristic with *measured* ranks: the compiled rule bodies
(:mod:`repro.rtec.compile`) count, per condition class, how many times a
condition of that class was attempted and how many substitutions it
yielded; the ratio is the class's observed **expansion factor** — below 1
the class filters, above 1 it fans out — and ordering by it puts the most
selective conditions first for the workload that was actually profiled.

The contract with the optimiser is unchanged: reordering is subject to the
same binding-order validity constraint, so *any* rank function yields a
byte-identical recognition result (a property the test suite checks with
hypothesis-random rank tables); the cost model only changes which of the
valid orders is picked.

Classes mirror :func:`condition_class`:

========================  ====================================================
``compare``               arithmetic comparison (pure filter)
``background`` / ``.neg`` atemporal KB lookup (positive / negated)
``holdsat.ground``        fully bound ``holdsAt`` (O(1) store lookup)
``holdsat.enum``          ``holdsAt`` with unbound pattern variables
``happensat`` / ``.neg``  stream join (positive / negated)
========================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.logic.parser import Literal
from repro.logic.terms import Compound, Variable, term_variables
from repro.rtec.builtins import is_comparison

__all__ = [
    "CONDITION_CLASSES",
    "STATIC_RANKS",
    "DEFAULT_EXPANSIONS",
    "condition_class",
    "CostModel",
    "measure_cost_model",
]

#: Every condition class the evaluator can count.
CONDITION_CLASSES: Tuple[str, ...] = (
    "compare",
    "background.neg",
    "background",
    "holdsat.ground",
    "happensat.neg",
    "happensat",
    "holdsat.enum",
)

#: The static heuristic ranks (the historical ``_literal_cost`` table of
#: the optimiser), kept as the tie-break and the no-measurement fallback.
STATIC_RANKS: Dict[str, int] = {
    "compare": 0,
    "background.neg": 1,
    "background": 2,
    "holdsat.ground": 3,
    "happensat.neg": 4,
    "happensat": 5,
    "holdsat.enum": 6,
}

#: Prior expansion factors for classes the profiling run never exercised,
#: chosen to reproduce the static order on the measured scale.
DEFAULT_EXPANSIONS: Dict[str, float] = {
    "compare": 0.40,
    "background.neg": 0.60,
    "background": 0.80,
    "holdsat.ground": 0.90,
    "happensat.neg": 0.95,
    "happensat": 2.00,
    "holdsat.enum": 3.00,
}

#: Below this many attempts a class's measurement is considered noise and
#: the prior is used instead.
MIN_SAMPLES = 8


def condition_class(literal: Literal, bound: Set[Variable]) -> str:
    """The cost class of one body condition given the bound variables."""
    term = literal.term
    if is_comparison(term):
        return "compare"
    if isinstance(term, Compound) and term.functor == "holdsAt" and term.arity == 2:
        if set(term_variables(term)) <= bound:
            return "holdsat.ground"
        return "holdsat.enum"
    if isinstance(term, Compound) and term.functor == "happensAt" and term.arity == 2:
        return "happensat.neg" if literal.negated else "happensat"
    return "background.neg" if literal.negated else "background"


@dataclass(frozen=True)
class CostModel:
    """Per-class measured ranks plus the raw samples they came from.

    ``ranks`` maps condition class to its rank (lower = earlier);
    ``samples`` maps class to ``(attempts, solutions)``; ``rule_seconds``
    maps rendered rule heads to their measured evaluation time (reporting
    only — body order within a rule is driven by the class ranks).
    """

    ranks: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    source: str = ""

    def rank(self, cls: str) -> float:
        value = self.ranks.get(cls)
        if value is None:
            return float(DEFAULT_EXPANSIONS.get(cls, STATIC_RANKS.get(cls, 99)))
        return value

    def key(self) -> Tuple[Tuple[str, float], ...]:
        """A hashable digest (cache key for optimised engine clones)."""
        return tuple(sorted(self.ranks.items()))

    def describe(self) -> str:
        parts = []
        for cls in CONDITION_CLASSES:
            attempts, solutions = self.samples.get(cls, (0, 0))
            parts.append(
                "%s=%.3f (%d/%d)" % (cls, self.rank(cls), solutions, attempts)
            )
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ranks": dict(self.ranks),
            "samples": {cls: list(pair) for cls, pair in self.samples.items()},
            "rule_seconds": dict(self.rule_seconds),
            "source": self.source,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CostModel":
        return cls(
            ranks={str(k): float(v) for k, v in data.get("ranks", {}).items()},
            samples={
                str(k): (int(v[0]), int(v[1]))
                for k, v in data.get("samples", {}).items()
            },
            rule_seconds={
                str(k): float(v) for k, v in data.get("rule_seconds", {}).items()
            },
            source=str(data.get("source", "")),
        )

    @classmethod
    def from_report(cls, report, source: str = "") -> "CostModel":
        """Build a model from a :class:`~repro.telemetry.report.TelemetryReport`.

        Sums the ``cond.<class>.eval`` / ``cond.<class>.sol`` counters the
        compiled rule bodies emit (see :mod:`repro.rtec.compile`) across the whole
        span forest; classes with fewer than :data:`MIN_SAMPLES` attempts
        keep their prior. Per-rule wall-clock comes from the ``rtec.rule``
        spans' ``head`` attribute.
        """
        totals: Dict[str, int] = {}
        rule_seconds: Dict[str, float] = {}

        def visit(span) -> None:
            for name, value in span.counters.items():
                if name.startswith("cond."):
                    totals[name] = totals.get(name, 0) + value
            if span.name == "rtec.rule":
                head = span.attrs.get("head")
                if head is not None:
                    rule_seconds[head] = rule_seconds.get(head, 0.0) + (
                        span.duration or 0.0
                    )
            for child in span.children:
                visit(child)

        for root in report.roots:
            visit(root)

        ranks: Dict[str, float] = {}
        samples: Dict[str, Tuple[int, int]] = {}
        for klass in CONDITION_CLASSES:
            attempts = totals.get("cond.%s.eval" % klass, 0)
            solutions = totals.get("cond.%s.sol" % klass, 0)
            if attempts:
                samples[klass] = (attempts, solutions)
            if attempts >= MIN_SAMPLES:
                ranks[klass] = solutions / attempts
        return cls(
            ranks=ranks, samples=samples, rule_seconds=rule_seconds, source=source
        )


def measure_cost_model(engine, stream, input_fluents=None, source: str = "profiled", **recognise_kwargs) -> CostModel:
    """Profile one recognition run and return the measured cost model.

    Runs ``engine.recognise(stream, input_fluents, **recognise_kwargs)``
    under a private tracer (any ambient tracer is restored afterwards) and
    feeds the per-rule spans and condition-class counters into
    :meth:`CostModel.from_report`. The profiling run is *unoptimised* by
    construction — it measures the description as written, and the model
    then drives the reordering of the optimised clone.
    """
    from repro import telemetry

    with telemetry.enabled() as tracer:
        engine.recognise(stream, input_fluents, **recognise_kwargs)
    return CostModel.from_report(tracer.report(), source=source)
