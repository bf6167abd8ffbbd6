"""Relational-algebra backends: interpreted and compile-once.

Both plan the spec's SQL text through
:class:`repro.relalg.sql.SqlPlanner` — the one relational statement of
the rule.  The difference is purely the evaluation strategy (the
paper's research question 4):

* ``interpreted`` re-derives everything per step: it plans the text
  (parsed once per process), materializes each ``WITH`` CTE eagerly
  before the next starts (the paper's "naive" CTE-at-a-time
  evaluation), then optimizes and runs the final query;
* ``compiled`` plans the text once per (requests, history) table pair,
  CTEs deferred, via :class:`repro.relalg.plan.PlanCache`, and only
  executes physical operators per step.
"""

from __future__ import annotations

from functools import partial

from repro.backends.base import (
    ExecutionBackend,
    SpecEvaluator,
    register_backend,
    spec_plan,
)
from repro.model.request import Request
from repro.protocols.base import ProtocolDecision
from repro.protocols.spec import ProtocolSpec
from repro.relalg.plan import PlanCache
from repro.relalg.sql import SqlPlanner
from repro.relalg.table import Table


def _rows_to_decision(rows) -> ProtocolDecision:
    return ProtocolDecision(
        qualified=[Request.from_row(row) for row in rows]
    )


class InterpretedRelalgEvaluator(SpecEvaluator):
    """Per-step eager-CTE plan and execute on the relalg engine."""

    def __init__(self, spec: ProtocolSpec) -> None:
        self.source = spec.sql

    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        planner = SqlPlanner({"requests": requests, "history": history})
        return _rows_to_decision(planner.execute(self.source).rows)


class CompiledRelalgEvaluator(SpecEvaluator):
    """Compile-once physical plans, cached per table pair."""

    def __init__(self, spec: ProtocolSpec) -> None:
        self.source = spec.sql
        self.plans = PlanCache(partial(spec_plan, spec))

    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        return _rows_to_decision(
            self.plans.get(requests, history).execute().rows
        )

    def reset(self) -> None:
        self.plans.clear()

    def explain(self, requests: Table, history: Table) -> str:
        """Physical EXPLAIN of the cached plan for this table pair."""
        return self.plans.get(requests, history).explain()


class InterpretedRelalgBackend(ExecutionBackend):
    name = "interpreted"
    description = "the spec's SQL, CTEs materialized eagerly every step"
    consumes = ("sql",)

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return InterpretedRelalgEvaluator(spec)


class CompiledRelalgBackend(ExecutionBackend):
    name = "compiled"
    description = "the spec's SQL, compile-once cached physical plans"
    consumes = ("sql",)

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return CompiledRelalgEvaluator(spec)


@register_backend
def _make_interpreted() -> InterpretedRelalgBackend:
    return InterpretedRelalgBackend()


@register_backend
def _make_compiled() -> CompiledRelalgBackend:
    return CompiledRelalgBackend()
