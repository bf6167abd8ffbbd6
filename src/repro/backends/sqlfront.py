"""SQL-frontend backend: the spec's literal SQL text on our engine.

Where the relalg backends prefer a hand-built logical plan, this
backend *insists* on the SQL dialect — it exists to demonstrate the
paper's language question end-to-end: the same text a real DBMS would
run parses, plans and compiles on this repository's engine with no
hand-written plan at all.  SQL in, schedule out.
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


class SqlFrontendEvaluator(SpecEvaluator):
    """Parse/plan once per table pair (``compiled=True``, the default)
    or re-parse per step (the E8 interpreted ablation)."""

    def __init__(self, spec: ProtocolSpec, compiled: bool = True) -> None:
        self._sql = spec.sql
        self.source = spec.sql
        self.compiled = compiled

        self.plans = PlanCache(partial(spec_plan, spec, dialect="sql"))

    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        if self.compiled:
            relation = self.plans.get(requests, history).execute()
        else:
            planner = SqlPlanner({"requests": requests, "history": history})
            relation = planner.execute(self._sql)
        return ProtocolDecision(
            qualified=[Request.from_row(row) for row in relation.rows]
        )

    def reset(self) -> None:
        self.plans.clear()


class SqlFrontendBackend(ExecutionBackend):
    name = "sqlfront"
    description = "the spec's SQL text parsed and planned by our frontend"
    consumes = ("sql",)

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return SqlFrontendEvaluator(spec, **options)


@register_backend
def _make_sqlfront() -> SqlFrontendBackend:
    return SqlFrontendBackend()
