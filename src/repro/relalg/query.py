"""Fluent query builder over logical plan nodes.

:class:`Query` builds a small logical plan (sources, filters, joins, set
operations...) that is optimized (:mod:`repro.relalg.optimizer`) and then
executed against the physical operators; :func:`cte` names a shared
subplan, the builder's form of SQL ``WITH``.  The SQL planner
(:mod:`repro.relalg.sql`) emits the same nodes.

Example::

    q = (Query.from_(requests, alias="r")
              .join(Query.from_(history, alias="h"),
                    on=col("r.object") == col("h.object"))
              .where(col("r.ta") != col("h.ta"))
              .select("r.ta", "r.intrata"))
    result = q.execute()
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.relalg import operators as ops
from repro.relalg.expressions import Expr, and_
from repro.relalg.relation import Relation
from repro.relalg.schema import Column, Schema
from repro.relalg.table import Table


class PlanNode:
    """Base class of logical plan nodes."""

    def derive_schema(self, *children: Schema) -> Schema:
        """This node's output schema given its children's, in
        :meth:`children` order.

        The one statement of each operator's schema algebra:
        :meth:`output_schema`, the delta lowering and the static
        inference pass all call it, each threading the child schemas it
        already holds.  It only names columns — resolving references
        against them is the caller's business — so it never raises for
        a well-constructed node.
        """
        raise NotImplementedError

    def output_schema(self) -> Schema:
        # Derived once per node: nothing changes a built node (the
        # optimizer's rewrites build new ones), and planning asks again
        # at every SELECT and pushed filter, down into every shared CTE.
        schema = self.__dict__.get("_schema")
        if schema is None:
            schema = self._schema = self.derive_schema(
                *[child.output_schema() for child in self.children()]
            )
        return schema

    def execute(self) -> Relation:
        raise NotImplementedError

    def children(self) -> list["PlanNode"]:
        return []

    def explain(self, depth: int = 0) -> str:
        """Indented textual plan, EXPLAIN-style."""
        line = "  " * depth + self._describe()
        return "\n".join(
            [line] + [child.explain(depth + 1) for child in self.children()]
        )

    def _describe(self) -> str:
        return type(self).__name__


class SourceNode(PlanNode):
    """A base table or pre-computed relation, optionally aliased."""

    def __init__(self, source: Union[Table, Relation], alias: Optional[str] = None) -> None:
        self.source = source
        self.alias = alias

    def derive_schema(self) -> Schema:
        schema = self.source.schema
        return schema.qualify(self.alias) if self.alias else schema

    def execute(self) -> Relation:
        if isinstance(self.source, Table):
            return self.source.as_relation(self.alias)
        if self.alias:
            return ops.rename(self.source, self.alias)
        return self.source

    def _describe(self) -> str:
        name = self.source.name if isinstance(self.source, Table) else "<relation>"
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Source({name}{alias})"


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    def derive_schema(self, child: Schema) -> Schema:
        return child

    def execute(self) -> Relation:
        return ops.select(self.child.execute(), self.predicate)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"Filter({self.predicate!r})"


class ProjectNode(PlanNode):
    """π over *columns*; output column *i* is named ``names[i]`` (a SQL
    ``AS`` alias), by default the column's unqualified name."""

    def __init__(
        self,
        child: PlanNode,
        columns: Sequence[str],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self.child = child
        self.columns = list(columns)
        self.names = (
            list(names) if names is not None
            else [ops._split(c)[0] for c in self.columns]
        )

    def derive_schema(self, child: Schema) -> Schema:
        return Schema([Column(name) for name in self.names])

    def execute(self) -> Relation:
        relation = ops.project(self.child.execute(), self.columns)
        return Relation(self.derive_schema(relation.schema), relation.rows)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        items = (
            column if ops._split(column)[0] == name else f"{column} AS {name}"
            for column, name in zip(self.columns, self.names)
        )
        return f"Project({', '.join(items)})"


class ExtendNode(PlanNode):
    def __init__(self, child: PlanNode, name: str, expr: Expr) -> None:
        self.child = child
        self.name = name
        self.expr = expr

    def derive_schema(self, child: Schema) -> Schema:
        return Schema(list(child.columns) + [Column(self.name)])

    def execute(self) -> Relation:
        return ops.extend(self.child.execute(), self.name, self.expr)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"Extend({self.name} := {self.expr!r})"


class JoinNode(PlanNode):
    """Inner/left-outer/semi/anti join with an arbitrary predicate.

    At execution time the predicate is analysed (see optimizer): equality
    conjuncts between the two sides become hash keys, the rest a residual
    filter; with no equi-keys we fall back to nested loops.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Optional[Expr],
        how: str = "inner",
    ) -> None:
        if how not in ("inner", "left", "semi", "anti"):
            raise ValueError(f"unsupported join type: {how}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.how = how

    def derive_schema(self, left: Schema, right: Schema) -> Schema:
        if self.how in ("semi", "anti"):
            return left
        return left.concat(right)

    def execute(self) -> Relation:
        from repro.relalg.optimizer import split_join_predicate

        left = self.left.execute()
        right = self.right.execute()
        left_keys, right_keys, residual = split_join_predicate(
            self.predicate, left.schema, right.schema
        )
        if self.how == "inner":
            if left_keys:
                return ops.hash_join(left, right, left_keys, right_keys, residual)
            if self.predicate is None:
                return ops.cross_join(left, right)
            return ops.nested_loop_join(left, right, self.predicate)
        if self.how == "left":
            if left_keys:
                return ops.left_outer_join(
                    left, right, left_keys, right_keys, residual
                )
            raise ValueError(
                "left outer join requires at least one equality conjunct "
                f"between the sides; got predicate {self.predicate!r}"
            )
        if self.how == "semi":
            if left_keys and residual is None:
                return ops.semi_join(left, right, left_keys, right_keys)
            if self.predicate is None:
                raise ValueError("semi join requires a predicate")
            joined = (
                ops.hash_join(left, right, left_keys, right_keys, residual)
                if left_keys
                else ops.nested_loop_join(left, right, self.predicate)
            )
            width = left.schema.arity
            return ops.distinct(
                Relation(left.schema, [row[:width] for row in joined.rows])
            )
        # anti
        if left_keys:
            return ops.anti_join(
                left, right, left_keys, right_keys, residual
            )
        if self.predicate is None:
            raise ValueError("anti join requires a predicate")
        return ops.anti_join_predicate(left, right, self.predicate)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def _describe(self) -> str:
        return f"Join[{self.how}]({self.predicate!r})"


class SetOpNode(PlanNode):
    _FUNCS: dict[str, Callable[[Relation, Relation], Relation]] = {
        "union": ops.union,
        "union_all": ops.union_all,
        "except": ops.except_,
        "except_all": ops.except_all,
        "intersect": ops.intersect,
    }

    def __init__(self, kind: str, left: PlanNode, right: PlanNode) -> None:
        if kind not in self._FUNCS:
            raise ValueError(f"unknown set operation {kind!r}")
        self.kind = kind
        self.left = left
        self.right = right

    def derive_schema(self, left: Schema, right: Schema) -> Schema:
        return left

    def execute(self) -> Relation:
        return self._FUNCS[self.kind](self.left.execute(), self.right.execute())

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def _describe(self) -> str:
        return f"SetOp[{self.kind}]"


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child

    def derive_schema(self, child: Schema) -> Schema:
        return child

    def execute(self) -> Relation:
        return ops.distinct(self.child.execute())

    def children(self) -> list[PlanNode]:
        return [self.child]


class OrderByNode(PlanNode):
    def __init__(self, child: PlanNode, keys: Sequence) -> None:
        self.child = child
        self.keys = list(keys)

    def derive_schema(self, child: Schema) -> Schema:
        return child

    def execute(self) -> Relation:
        return ops.order_by(self.child.execute(), self.keys)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"OrderBy({self.keys})"


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, n: int) -> None:
        self.child = child
        self.n = n

    def derive_schema(self, child: Schema) -> Schema:
        return child

    def execute(self) -> Relation:
        return ops.limit(self.child.execute(), self.n)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"Limit({self.n})"


class AggregateNode(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[str],
        aggregations: Sequence[tuple[str, str, str]],
    ) -> None:
        self.child = child
        self.group_by = list(group_by)
        self.aggregations = list(aggregations)

    def derive_schema(self, child: Schema) -> Schema:
        return Schema(
            [Column(ops._split(g)[0]) for g in self.group_by]
            + [Column(name) for __, __, name in self.aggregations]
        )

    def execute(self) -> Relation:
        return ops.aggregate(self.child.execute(), self.group_by, self.aggregations)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"Aggregate(by={self.group_by}, {self.aggregations})"


class Query:
    """Immutable fluent wrapper over a plan node."""

    def __init__(self, plan: PlanNode) -> None:
        self.plan = plan

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_(
        cls, source: Union[Table, Relation, "Query"], alias: Optional[str] = None
    ) -> "Query":
        if isinstance(source, Query):
            if alias is None:
                return cls(source.plan)
            # Re-qualify a subquery: materialize through a Source wrapper.
            return cls(_AliasNode(source.plan, alias))
        return cls(SourceNode(source, alias))

    # -- relational verbs ----------------------------------------------------

    def where(self, predicate: Expr) -> "Query":
        return Query(FilterNode(self.plan, predicate))

    def select(self, *columns: str) -> "Query":
        return Query(ProjectNode(self.plan, columns))

    def extend(self, name: str, expr: Expr) -> "Query":
        return Query(ExtendNode(self.plan, name, expr))

    def join(
        self,
        other: Union["Query", Table, Relation],
        on: Optional[Expr] = None,
        how: str = "inner",
        alias: Optional[str] = None,
    ) -> "Query":
        other_q = other if isinstance(other, Query) else Query.from_(other, alias)
        return Query(JoinNode(self.plan, other_q.plan, on, how))

    def left_join(self, other, on: Expr, alias: Optional[str] = None) -> "Query":
        return self.join(other, on=on, how="left", alias=alias)

    def semi_join(self, other, on: Expr, alias: Optional[str] = None) -> "Query":
        return self.join(other, on=on, how="semi", alias=alias)

    def anti_join(self, other, on: Expr, alias: Optional[str] = None) -> "Query":
        """NOT EXISTS(correlated subquery) — the workhorse of Listing 1."""
        return self.join(other, on=on, how="anti", alias=alias)

    def union_all(self, other: "Query") -> "Query":
        return Query(SetOpNode("union_all", self.plan, other.plan))

    def union(self, other: "Query") -> "Query":
        return Query(SetOpNode("union", self.plan, other.plan))

    def except_(self, other: "Query") -> "Query":
        return Query(SetOpNode("except", self.plan, other.plan))

    def except_all(self, other: "Query") -> "Query":
        return Query(SetOpNode("except_all", self.plan, other.plan))

    def intersect(self, other: "Query") -> "Query":
        return Query(SetOpNode("intersect", self.plan, other.plan))

    def distinct(self) -> "Query":
        return Query(DistinctNode(self.plan))

    def order_by(self, *keys) -> "Query":
        return Query(OrderByNode(self.plan, keys))

    def limit(self, n: int) -> "Query":
        return Query(LimitNode(self.plan, n))

    def aggregate(
        self,
        group_by: Sequence[str],
        aggregations: Sequence[tuple[str, str, str]],
    ) -> "Query":
        return Query(AggregateNode(self.plan, group_by, aggregations))

    # -- execution ------------------------------------------------------------

    def execute(self, optimize: bool = True) -> Relation:
        from repro.relalg.optimizer import optimize_plan

        plan = optimize_plan(self.plan) if optimize else self.plan
        return plan.execute()

    def explain(self, optimize: bool = True) -> str:
        from repro.relalg.optimizer import optimize_plan

        plan = optimize_plan(self.plan) if optimize else self.plan
        return plan.explain()

    def compile(self, optimize: bool = True):
        """One-time analysis into a reusable :class:`~repro.relalg.plan.
        CompiledPlan`: optimization, schema resolution, equi-key
        extraction and expression codegen all happen here, so each
        subsequent ``execute()`` only runs the physical operators
        against current table contents."""
        from repro.relalg.plan import CompiledPlan

        return CompiledPlan(self.plan, optimize=optimize)


class CTENode(PlanNode):
    """A named, shared subplan (SQL ``WITH``), preserved as one node.

    Several parents may reference the *same* CTENode object; the plan
    compiler (:mod:`repro.relalg.plan`) computes it at most once per
    execution and the optimizer keeps the shared identity intact.  The
    interpreted :meth:`execute` simply recomputes — sharing pays off on
    the compiled path, which is where it matters.
    """

    def __init__(self, child: PlanNode, name: str) -> None:
        self.child = child
        self.name = name

    def derive_schema(self, child: Schema) -> Schema:
        return child

    def execute(self) -> Relation:
        return self.child.execute()

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"CTE({self.name})"


def cte(query: "Query", name: str) -> "Query":
    """Mark a query as a shared common-table-expression (see CTENode)."""
    return Query(CTENode(query.plan, name))


class _AliasNode(PlanNode):
    """Re-qualifies a subquery's output columns with an alias."""

    def __init__(self, child: PlanNode, alias: str) -> None:
        self.child = child
        self.alias = alias

    def derive_schema(self, child: Schema) -> Schema:
        return child.qualify(self.alias)

    def execute(self) -> Relation:
        return ops.rename(self.child.execute(), self.alias)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def _describe(self) -> str:
        return f"Alias({self.alias})"
