"""Schema and type inference over relalg logical plans.

The relalg IR resolves column *positions* lazily (at compile/execute
time), so a mis-spelled column or an ``int``-vs-``str`` comparison in a
registered spec only surfaces when the plan first runs.  This pass
walks a :class:`~repro.relalg.query.PlanNode` tree once, statically:

* it threads a :class:`TypedSchema` — the ordinary
  :class:`~repro.relalg.schema.Schema` plus a per-column type and a
  nullability bit (the padded side of a left join) — bottom-up through
  every operator.  The schema half is each node's own
  :meth:`~repro.relalg.query.PlanNode.derive_schema` (the algebra
  ``output_schema()`` and the delta lowering also call); only types
  and nullability are stated here;
* every column reference is resolved eagerly, turning latent
  :class:`~repro.relalg.schema.SchemaError`\\s into ``S004`` findings
  with the offending operator named;
* expressions are typed (``S005`` when two statically-known,
  incomparable types are compared, added, or tested with ``IN``).

Types form the small lattice ``int/float/str/bool`` below ``any``
(unknown, never flagged) with ``null`` for the literal ``None``.  Base
tables carrying the paper's Table 2 columns are seeded from
:data:`TABLE2_TYPES`; anything else starts at ``any``, so inference is
conservative: a finding means a real inconsistency, silence does not
prove typability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.diagnostics import Diagnostic
from repro.core.stores import REQUEST_COLUMNS
from repro.relalg.expressions import (
    And,
    Arith,
    ColumnRef,
    Compare,
    Expr,
    Func,
    InSet,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.relalg.operators import _AGGREGATES, _split, resolve_sort_keys
from repro.relalg.query import (
    AggregateNode,
    ExtendNode,
    FilterNode,
    JoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    SetOpNode,
    SourceNode,
)
from repro.relalg.schema import Schema, SchemaError
from repro.relalg.table import Table

__all__ = [
    "TABLE2_TYPES",
    "TypedSchema",
    "Inference",
    "infer_plan",
    "table2_projection_ok",
]

#: Column types of the paper's Table 2 request/history relations.
TABLE2_TYPES: dict[str, str] = {
    "id": "int",
    "ta": "int",
    "intrata": "int",
    "operation": "str",
    "object": "int",
}

_NUMERIC = frozenset({"int", "float"})


def _comparable(left: str, right: str) -> bool:
    """May values of these two inferred types ever compare equal/ordered?"""
    if "any" in (left, right) or "null" in (left, right):
        return True
    if left == right:
        return True
    return left in _NUMERIC and right in _NUMERIC


def _python_type(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    return "any"


@dataclass(frozen=True, slots=True)
class TypedSchema:
    """A schema with one inferred type and nullability bit per column."""

    schema: Schema
    types: tuple[str, ...]
    nullable: tuple[bool, ...]

    @classmethod
    def untyped(cls, schema: Schema) -> "TypedSchema":
        n = schema.arity
        return cls(schema, ("any",) * n, (False,) * n)

    def with_schema(self, schema: Schema) -> "TypedSchema":
        """Same types/nullability under renamed/requalified columns."""
        return TypedSchema(schema, self.types, self.nullable)

    def concat(self, other: "TypedSchema") -> "TypedSchema":
        return TypedSchema(
            self.schema.concat(other.schema),
            self.types + other.types,
            self.nullable + other.nullable,
        )

    def all_nullable(self) -> "TypedSchema":
        return TypedSchema(self.schema, self.types, (True,) * self.schema.arity)

    def type_at(self, position: int) -> str:
        return self.types[position]


@dataclass(slots=True)
class Inference:
    """Result of :func:`infer_plan`: the output typing + findings."""

    typed: TypedSchema
    diagnostics: list[Diagnostic]

    @property
    def schema(self) -> Schema:
        return self.typed.schema

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _Inferencer:
    """One inference walk; memoized so shared CTE subtrees type once."""

    def __init__(self, subject: str) -> None:
        self.subject = subject
        self.diagnostics: list[Diagnostic] = []
        self._memo: dict[int, TypedSchema] = {}
        self._path: list[str] = []

    # -- reporting --------------------------------------------------------

    def _where(self) -> str:
        return " > ".join(self._path)

    def _report(self, rule: str, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(rule, self.subject, message, location=self._where())
        )

    def _resolve(self, typed: TypedSchema, name: str) -> Optional[int]:
        """Resolve a possibly-qualified column name; S004 on failure."""
        try:
            return typed.schema.resolve(*_split(name))
        except SchemaError as error:
            self._report("S004", str(error))
            return None

    # -- expressions ------------------------------------------------------

    def infer_expr(self, expr: Expr, typed: TypedSchema) -> str:
        if isinstance(expr, ColumnRef):
            try:
                pos = typed.schema.resolve(expr.name, expr.qualifier)
            except SchemaError as error:
                self._report("S004", str(error))
                return "any"
            return typed.type_at(pos)
        if isinstance(expr, Literal):
            return _python_type(expr.value)
        if isinstance(expr, Compare):
            left = self.infer_expr(expr.left, typed)
            right = self.infer_expr(expr.right, typed)
            if not _comparable(left, right):
                self._report(
                    "S005",
                    f"comparison {expr!r} can never hold: "
                    f"{left} {expr.symbol} {right}",
                )
            return "bool"
        if isinstance(expr, Arith):
            left = self.infer_expr(expr.left, typed)
            right = self.infer_expr(expr.right, typed)
            for side in (left, right):
                if side == "bool" or (
                    side == "str" and {left, right} & _NUMERIC
                ):
                    self._report(
                        "S005",
                        f"arithmetic {expr!r} over {left}/{right} operands",
                    )
                    return "any"
            if "float" in (left, right):
                return "float"
            if left == right == "int":
                return "int"
            if left == right == "str":
                return "str"  # concatenation
            return "any"
        if isinstance(expr, (And, Or)):
            for part in expr.parts:
                self.infer_expr(part, typed)
            return "bool"
        if isinstance(expr, Not):
            self.infer_expr(expr.inner, typed)
            return "bool"
        if isinstance(expr, IsNull):
            self.infer_expr(expr.inner, typed)
            return "bool"
        if isinstance(expr, InSet):
            inner = self.infer_expr(expr.inner, typed)
            element_types = {_python_type(v) for v in expr.values}
            if inner not in ("any", "null") and not any(
                _comparable(inner, t) for t in element_types
            ):
                self._report(
                    "S005",
                    f"membership test {expr!r}: {inner} column against "
                    f"{sorted(element_types)} values",
                )
            return "bool"
        if isinstance(expr, Func):
            for ref in expr.columns:
                self.infer_expr(ref, typed)
            return "any"
        return "any"

    # -- plans ------------------------------------------------------------

    def infer(self, node: PlanNode) -> TypedSchema:
        done = self._memo.get(id(node))
        if done is not None:
            return done
        self._path.append(node._describe())
        try:
            typed = self._infer(node)
        finally:
            self._path.pop()
        self._memo[id(node)] = typed
        return typed

    def _infer(self, node: PlanNode) -> TypedSchema:
        """Type one node: its schema is the node's own
        :meth:`~repro.relalg.query.PlanNode.derive_schema` over the
        inferred child schemas; this pass adds only the per-column
        types and nullability, and resolves every reference so a
        failure is reported and typed ``any`` instead of raised."""
        inputs = [self.infer(child) for child in node.children()]
        try:
            schema = node.derive_schema(*[typed.schema for typed in inputs])
        except NotImplementedError:
            # Unknown node: fall back to its own declared schema, untyped.
            return TypedSchema.untyped(node.output_schema())
        if isinstance(node, SourceNode):
            names = schema.names
            if isinstance(node.source, Table) and set(names) <= set(
                TABLE2_TYPES
            ):
                types = tuple(TABLE2_TYPES[name] for name in names)
                return TypedSchema(schema, types, (False,) * len(types))
            return TypedSchema.untyped(schema)
        if isinstance(node, ProjectNode):
            (child,) = inputs
            positions = [self._resolve(child, name) for name in node.columns]
            return TypedSchema(
                schema,
                tuple("any" if p is None else child.types[p] for p in positions),
                tuple(p is not None and child.nullable[p] for p in positions),
            )
        if isinstance(node, ExtendNode):
            (child,) = inputs
            extended = self.infer_expr(node.expr, child)
            return TypedSchema(
                schema, child.types + (extended,), child.nullable + (False,)
            )
        if isinstance(node, AggregateNode):
            (child,) = inputs
            types = []
            for group in node.group_by:
                pos = self._resolve(child, group)
                types.append("any" if pos is None else child.types[pos])
            for fn_name, input_col, __ in node.aggregations:
                if fn_name not in _AGGREGATES:
                    self._report("S004", f"unknown aggregate {fn_name!r}")
                    input_type = "any"
                elif fn_name == "count" and input_col == "*":
                    input_type = "any"
                else:
                    pos = self._resolve(child, input_col)
                    input_type = "any" if pos is None else child.types[pos]
                if fn_name == "count":
                    types.append("int")
                elif fn_name == "avg":
                    types.append("float")
                else:  # sum/min/max keep the input type
                    types.append(input_type)
            return TypedSchema(schema, tuple(types), (False,) * len(types))
        if isinstance(node, SetOpNode):
            left, right = inputs
            if left.schema.arity != right.schema.arity:
                self._report(
                    "S004",
                    f"{node.kind}: arity mismatch "
                    f"{left.schema.arity} vs {right.schema.arity}",
                )
                return left
            types = tuple(
                lt if _comparable(lt, rt) and lt == rt else "any"
                for lt, rt in zip(left.types, right.types)
            )
            nullable = tuple(
                ln or rn for ln, rn in zip(left.nullable, right.nullable)
            )
            return TypedSchema(schema, types, nullable)
        if isinstance(node, JoinNode):
            left, right = inputs
            combined = left.concat(
                right.all_nullable() if node.how == "left" else right
            )
            if node.predicate is not None:
                self.infer_expr(node.predicate, combined)
            if node.how in ("semi", "anti"):
                return left
            return combined
        if isinstance(node, FilterNode):
            self.infer_expr(node.predicate, inputs[0])
        elif isinstance(node, OrderByNode):
            try:
                resolve_sort_keys(inputs[0].schema, node.keys)
            except SchemaError as error:
                self._report("S004", str(error))
        # Everything else (aliases, CTEs, filters, distinct, order,
        # limit, the SQL planner's rename wrappers, uncorrelated EXISTS)
        # keeps its first input's rows: same types, the node's names.
        return inputs[0].with_schema(schema)


def infer_plan(node: PlanNode, subject: str = "<plan>") -> Inference:
    """Infer the typed output schema of *node*, collecting findings.

    Never raises for analyzable plans: schema failures become ``S004``
    findings (typed ``any`` past the failure point) and type conflicts
    become ``S005``, so one walk reports every independent defect.
    """
    walker = _Inferencer(subject)
    typed = walker.infer(node)
    return Inference(typed, walker.diagnostics)


def table2_projection_ok(inference: Inference) -> bool:
    """Does the inferred output match the Table 2 request projection?"""
    return inference.schema.names == tuple(REQUEST_COLUMNS)
