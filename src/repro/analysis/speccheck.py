"""Cross-dialect consistency checks for registered protocol specs.

A :class:`~repro.protocols.spec.ProtocolSpec` states the *same*
qualification rule in several dialects; the equivalence sweep proves
them equal on randomized workloads, but only at runtime.  This pass
checks the statically checkable half of that contract per spec:

* **S001** — every analyzable query dialect (relalg builder, SQL text)
  must project exactly the Table 2 request columns
  (``id, ta, intrata, operation, object``), the shape
  ``Request.from_row`` and the scheduler dispatch path assume.
* **S002** — the datalog dialect must derive ``qualified/5``.
* **S003** — the operation codes each dialect consults must be
  consistent with the spec's :class:`~repro.protocols.spec.LockModel`:
  a model with any conflict check needs the write code (``'w'``) and
  the termination codes (``'a'``, ``'c'``) — write locks are derived
  from unfinished write rows — while a no-locks model must consult no
  operation codes at all.  Read codes are deliberately *not* required:
  Listing 1 derives read locks implicitly (unfinished rows minus
  writes) without ever testing ``operation = 'r'``.
* **S004/S005** — schema and type findings from
  :mod:`repro.analysis.inference` over each dialect's plan.

Plan-level lints ride the same walk: **P201** (a ``WITH`` CTE that no
part of the statement references), **P202** (a filter whose predicate
is constant or compares a column with itself), **P203** (an inner join
that keeps no equality key *after* optimization and therefore runs as
a nested loop).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.inference import infer_plan, table2_projection_ok
from repro.backends.base import spec_plan
from repro.core.stores import REQUEST_COLUMNS, empty_table2_stores
from repro.protocols.spec import SPEC_REGISTRY, LockModel, ProtocolSpec
from repro.relalg.expressions import (
    ColumnRef,
    Compare,
    Expr,
    InSet,
    Literal,
)
from repro.relalg.query import (
    CTENode,
    ExtendNode,
    FilterNode,
    JoinNode,
    PlanNode,
)

__all__ = [
    "check_spec",
    "check_registry",
    "collect_expressions",
    "operation_literals",
]

#: The paper's single-letter operation codes (Table 2 / Listing 1).
_OPERATION_CODES = frozenset({"r", "w", "a", "c"})


def _walk_plan(root: PlanNode) -> Iterable[PlanNode]:
    """Every node of the plan DAG, each shared subtree visited once."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


def collect_expressions(root: PlanNode) -> list[Expr]:
    """All scalar expressions attached to the plan's operators."""
    out: list[Expr] = []
    for node in _walk_plan(root):
        if isinstance(node, (FilterNode, JoinNode)):
            if node.predicate is not None:
                out.append(node.predicate)
        elif isinstance(node, ExtendNode):
            out.append(node.expr)
    return out


def _walk_expr(expr: Expr) -> Iterable[Expr]:
    yield expr
    for attr in ("left", "right", "inner"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr):
            yield from _walk_expr(child)
    for child in getattr(expr, "parts", ()):
        yield from _walk_expr(child)
    for child in getattr(expr, "columns", ()):
        if isinstance(child, Expr):
            yield from _walk_expr(child)


def operation_literals(root: PlanNode) -> frozenset[str]:
    """Operation codes the plan compares the ``operation`` column to."""
    found: set[str] = set()
    for top in collect_expressions(root):
        for expr in _walk_expr(top):
            if isinstance(expr, Compare):
                for ref, lit in (
                    (expr.left, expr.right),
                    (expr.right, expr.left),
                ):
                    if (
                        isinstance(ref, ColumnRef)
                        and ref.name == "operation"
                        and isinstance(lit, Literal)
                        and lit.value in _OPERATION_CODES
                    ):
                        found.add(lit.value)
            elif isinstance(expr, InSet):
                if (
                    isinstance(expr.inner, ColumnRef)
                    and expr.inner.name == "operation"
                ):
                    found |= {
                        v for v in expr.values if v in _OPERATION_CODES
                    }
    return frozenset(found)


def _datalog_literals(source: str) -> frozenset[str]:
    """Operation codes a datalog program mentions as string constants."""
    from repro.datalog.ast import Comparison, Const
    from repro.datalog.parser import parse_program

    found: set[str] = set()
    for rule in parse_program(source):
        for atom in [rule.head] + [
            item.atom
            for item in rule.body
            if hasattr(item, "atom")
        ]:
            for term in atom.terms:
                if isinstance(term, Const) and term.value in _OPERATION_CODES:
                    found.add(term.value)
        for item in rule.body:
            if isinstance(item, Comparison):
                for side in (item.left, item.right):
                    if (
                        isinstance(side, Const)
                        and side.value in _OPERATION_CODES
                    ):
                        found.add(side.value)
    return frozenset(found)


def _required_codes(model: LockModel) -> frozenset[str]:
    """Codes every dialect of a spec with this lock model must consult."""
    checks = (
        model.reads_check_writers
        or model.writes_check_readers
        or model.writes_check_writers
    )
    if not checks:
        return frozenset()
    # Any conflict check needs write locks (derived from 'w' rows) and
    # the finished-transaction filter ('a'/'c' terminations).  Read
    # locks are derived without testing 'r' (see module docstring).
    return frozenset({"w", "a", "c"})


def _build_dialect_plans(
    spec: ProtocolSpec,
) -> tuple[dict[str, PlanNode], list[Diagnostic]]:
    """Plan each analyzable query dialect against empty Table 2 stores."""
    plans: dict[str, PlanNode] = {}
    findings: list[Diagnostic] = []
    requests, history = empty_table2_stores()
    for dialect in sorted({"relalg", "sql"} & spec.dialects()):
        try:
            plans[dialect] = spec_plan(spec, requests, history, dialect)
        except Exception as error:
            findings.append(
                Diagnostic(
                    "S004",
                    f"{spec.name}/{dialect}",
                    f"building the {dialect} plan failed: "
                    f"{type(error).__name__}: {error}",
                )
            )
    return plans, findings


def _check_datalog(spec: ProtocolSpec) -> list[Diagnostic]:
    from repro.datalog.parser import parse_program

    subject = f"{spec.name}/datalog"
    try:
        rules = parse_program(spec.datalog)
    except Exception as error:
        return [
            Diagnostic(
                "S002",
                subject,
                f"datalog dialect does not parse: "
                f"{type(error).__name__}: {error}",
            )
        ]
    heads = [rule.head for rule in rules if rule.head.pred == "qualified"]
    if not heads:
        return [
            Diagnostic(
                "S002", subject, "no rule derives the qualified relation"
            )
        ]
    findings = []
    for head in heads:
        if head.arity != len(REQUEST_COLUMNS):
            findings.append(
                Diagnostic(
                    "S002",
                    subject,
                    f"qualified head has arity {head.arity}, expected "
                    f"{len(REQUEST_COLUMNS)} (Table 2 columns)",
                )
            )
    return findings


def _lint_unused_ctes(spec: ProtocolSpec, plan: PlanNode) -> list[Diagnostic]:
    # The parser's CTE list is the declaration site; CTENodes reachable
    # from the deferred plan are the references.  (_Parser is the sql
    # module's own; the lint deliberately reuses it rather than
    # re-tokenizing.)
    from repro.relalg.sql import _Parser

    declared = [name for name, __ in _Parser(spec.sql).statement().ctes]
    reachable = {
        node.name for node in _walk_plan(plan) if isinstance(node, CTENode)
    }
    return [
        Diagnostic(
            "P201",
            f"{spec.name}/sql",
            f"CTE {name!r} is declared but never referenced",
        )
        for name in declared
        if name not in reachable
    ]


def _same_column(left: Expr, right: Expr) -> bool:
    return (
        isinstance(left, ColumnRef)
        and isinstance(right, ColumnRef)
        and left.name == right.name
        and left.qualifier == right.qualifier
    )


def _lint_dead_filters(subject: str, plan: PlanNode) -> list[Diagnostic]:
    findings = []
    for node in _walk_plan(plan):
        if not isinstance(node, FilterNode):
            continue
        predicate = node.predicate
        if isinstance(predicate, Literal):
            verdict = "always true" if predicate.value else "always false"
            findings.append(
                Diagnostic(
                    "P202",
                    subject,
                    f"filter predicate {predicate!r} is constant "
                    f"({verdict})",
                )
            )
        elif isinstance(predicate, Compare) and _same_column(
            predicate.left, predicate.right
        ):
            findings.append(
                Diagnostic(
                    "P202",
                    subject,
                    f"filter compares a column with itself: {predicate!r}",
                )
            )
    return findings


def _lint_nested_loop_joins(
    subject: str, plan: PlanNode
) -> list[Diagnostic]:
    from repro.relalg.optimizer import optimize_plan, split_join_predicate
    from repro.relalg.plan import reduce_outer_joins

    try:
        optimized = reduce_outer_joins(optimize_plan(plan))
    except Exception:
        return []  # planning defects are reported as S004, not P203
    findings = []
    for node in _walk_plan(optimized):
        if not isinstance(node, JoinNode) or node.how != "inner":
            continue
        if node.predicate is None:
            continue  # an explicit cross join is presumed intentional
        try:
            left_keys, __, __ = split_join_predicate(
                node.predicate,
                node.left.output_schema(),
                node.right.output_schema(),
            )
        except Exception:
            continue
        if not left_keys:
            findings.append(
                Diagnostic(
                    "P203",
                    subject,
                    f"inner join keeps no equality key after "
                    f"optimization (nested loop): {node.predicate!r}",
                )
            )
    return findings


def check_spec(spec: ProtocolSpec) -> list[Diagnostic]:
    """All S0xx/P2xx findings for one spec."""
    plans, findings = _build_dialect_plans(spec)

    consulted: dict[str, frozenset[str]] = {}
    for dialect, plan in sorted(plans.items()):
        subject = f"{spec.name}/{dialect}"
        inference = infer_plan(plan, subject=subject)
        findings.extend(inference.diagnostics)
        if not table2_projection_ok(inference):
            findings.append(
                Diagnostic(
                    "S001",
                    subject,
                    f"projects {list(inference.schema.names)}, expected "
                    f"the Table 2 columns {list(REQUEST_COLUMNS)}",
                )
            )
        consulted[dialect] = operation_literals(plan)
        findings.extend(_lint_dead_filters(subject, plan))
        findings.extend(_lint_nested_loop_joins(subject, plan))

    if spec.sql is not None and "sql" in plans:
        findings.extend(_lint_unused_ctes(spec, plans["sql"]))

    if spec.datalog is not None:
        findings.extend(_check_datalog(spec))
        try:
            consulted["datalog"] = _datalog_literals(spec.datalog)
        except Exception:
            pass  # parse failures already reported as S002

    if spec.lock_model is not None:
        required = _required_codes(spec.lock_model)
        for dialect, codes in sorted(consulted.items()):
            subject = f"{spec.name}/{dialect}"
            missing = required - codes
            if missing:
                findings.append(
                    Diagnostic(
                        "S003",
                        subject,
                        f"lock model requires consulting operation codes "
                        f"{sorted(required)} but the dialect only tests "
                        f"{sorted(codes)} (missing {sorted(missing)})",
                    )
                )
            if not required and codes:
                findings.append(
                    Diagnostic(
                        "S003",
                        subject,
                        f"lock model checks no conflicts, yet the dialect "
                        f"branches on operation codes {sorted(codes)}",
                    )
                )
    return findings


def check_registry(
    specs: Optional[Iterable[ProtocolSpec]] = None,
) -> list[Diagnostic]:
    """Findings across every registered spec (registration imported)."""
    if specs is None:
        import repro.protocols  # noqa: F401  (populates SPEC_REGISTRY)

        specs = [SPEC_REGISTRY[name] for name in sorted(SPEC_REGISTRY)]
    findings: list[Diagnostic] = []
    for spec in specs:
        findings.extend(check_spec(spec))
    return findings
