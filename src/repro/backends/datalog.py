"""Datalog backend: the spec's rule set on the stratified engine.

The succinct-language formulation (paper Section 5): the program is
parsed once at lowering time; each step loads the two relations as
facts, evaluates to fixpoint, and reads off ``qualified``.  Denials are
attributed from the ``denied`` predicate when the rule set derives one,
and the last evaluation is kept for why-provenance
(:meth:`DatalogEvaluator.explain_denial`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.backends.base import (
    ExecutionBackend,
    SpecEvaluator,
    register_backend,
)
from repro.datalog.engine import Database, evaluate
from repro.datalog.program import Program
from repro.model.request import Request
from repro.protocols.base import ProtocolDecision
from repro.protocols.spec import ProtocolSpec
from repro.relalg.table import Table


def evaluate_rules(
    program: Program,
    requests: Table,
    history: Table,
    decode: Callable[[Sequence], Any],
    denial: str,
) -> tuple[ProtocolDecision, Database]:
    """One scheduling step of a Datalog rule set: load the two relations
    as facts, evaluate to fixpoint, decode ``qualified`` in row order
    and attribute every ``denied`` id the *denial* text.  Returns the
    decision and the evaluated database (for why-provenance)."""
    db = Database()
    db.add_facts("requests", requests.rows)
    db.add_facts("history", history.rows)
    evaluate(program, db)
    decision = ProtocolDecision(
        qualified=[decode(row) for row in sorted(db.facts("qualified"))]
    )
    for fact in db.facts("denied"):
        decision.denials[fact[0]] = denial
    return decision, db


class DatalogEvaluator(SpecEvaluator):
    def __init__(self, spec: ProtocolSpec) -> None:
        self._spec = spec
        self.source = spec.datalog
        self.program = Program.parse(spec.datalog)
        self._last_db: Database | None = None

    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        decision, self._last_db = evaluate_rules(
            self.program, requests, history, Request.from_row,
            f"denied by {self._spec.name} rules",
        )
        return decision

    def explain_denial(self, request_id: int) -> str:
        """Why-provenance for the last batch's denial of *request_id*."""
        from repro.datalog.explain import explain

        if self._last_db is None:
            raise RuntimeError("no schedule() call to explain yet")
        return explain(
            self.program, self._last_db, "denied", (request_id,)
        ).format()


class DatalogBackend(ExecutionBackend):
    name = "datalog"
    description = "the spec's Datalog rules on the stratified engine"
    consumes = ("datalog",)

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return DatalogEvaluator(spec)


@register_backend
def _make_datalog() -> DatalogBackend:
    return DatalogBackend()
