"""Relational-algebra backends: interpreted and compile-once.

Both lower the spec's ``relalg`` logical-plan builder when present and
fall back to planning the spec's SQL text through
:class:`repro.relalg.sql.SqlPlanner` — a spec written only as SQL still
runs on this engine.  The difference is purely the evaluation strategy
(the paper's research question 4):

* ``interpreted`` re-derives everything per step — the eager pipeline
  dialect when the spec ships one (the paper's "naive" CTE-at-a-time
  evaluation), otherwise a fresh optimize+bind+execute of the logical
  plan;
* ``compiled`` analyzes once per (requests, history) table pair via
  :class:`repro.relalg.plan.PlanCache` and only executes physical
  operators per step.
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
    """Per-step rebuild-and-execute on the relalg engine."""

    def __init__(self, spec: ProtocolSpec) -> None:
        self._spec = spec
        if spec.relalg_pipeline is None and spec.relalg is None:
            self.source = spec.sql

    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        spec = self._spec
        if spec.relalg_pipeline is not None:
            return _rows_to_decision(spec.relalg_pipeline(requests, history))
        if spec.relalg is not None:
            return _rows_to_decision(
                spec.relalg(requests, history).execute().rows
            )
        planner = SqlPlanner({"requests": requests, "history": history})
        return _rows_to_decision(planner.execute(spec.sql).rows)


class CompiledRelalgEvaluator(SpecEvaluator):
    """Compile-once physical plans, cached per table pair."""

    def __init__(self, spec: ProtocolSpec) -> None:
        if spec.relalg is None:
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
    description = "relalg engine, re-evaluated from scratch each step"
    consumes = ("relalg-pipeline", "relalg", "sql")

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return InterpretedRelalgEvaluator(spec)


class CompiledRelalgBackend(ExecutionBackend):
    name = "compiled"
    description = "relalg engine, compile-once cached physical plans"
    consumes = ("relalg", "sql")

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
