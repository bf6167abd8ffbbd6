"""Compile-once physical plans.

The interpreted path (:meth:`Query.execute`) re-derives everything per
call: it re-runs the optimizer, re-resolves every column reference,
re-extracts equi-join keys, re-binds every expression into a closure
tree, and rebuilds every hash-join build table from raw rows.  For the
scheduler that is pure overhead — a protocol's query is *fixed*; only
the table contents change between steps.

:class:`CompiledPlan` splits the two concerns:

* **compile (once)** — optimize the logical plan, resolve all schemas
  and column positions, extract hash-join keys, compile every
  expression to a generated Python function
  (:func:`repro.relalg.expressions.compile_expr`), and pick a build
  strategy for each keyed join;
* **execute (per step)** — run the physical operators against the
  *current* contents of the base tables.

Joins additionally avoid re-hashing their build side per execution:

* when the build side is a base-table scan and the table has a matching
  :class:`~repro.relalg.table.HashIndex`, the live index buckets are
  used directly (zero build cost, always current);
* when the build side is a filter/project chain over one base table,
  the build table is **materialized once and maintained across steps**
  by replaying the table's delta journal
  (:meth:`~repro.relalg.table.Table.delta_cursor`) — exactly the
  append/prune deltas the scheduler produces each step;
* otherwise the build side is rebuilt per execution (still with
  compiled expressions).

Plans that are DAGs — shared :class:`~repro.relalg.query.CTENode`
subplans — are compiled node-for-node, and each CTE is computed at most
once per execution.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional, Sequence, Union

from repro.relalg.expressions import (
    Bound,
    ColumnRef,
    Expr,
    IsNull,
    and_,
    compile_expr,
    split_conjuncts,
)
from repro.relalg.query import (
    AggregateNode,
    CTENode,
    DistinctNode,
    ExtendNode,
    FilterNode,
    JoinNode,
    LimitNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    Query,
    SetOpNode,
    SourceNode,
    _AliasNode,
)
from repro.relalg import operators as _ops
from repro.relalg.operators import _AGGREGATES, _split
from repro.relalg.relation import Relation
from repro.relalg.schema import Column, Schema
from repro.relalg.table import Table, row_projector


class ExecContext:
    """Per-execution scratch state: memoized CTE results."""

    __slots__ = ("cte_rows",)

    def __init__(self) -> None:
        self.cte_rows: dict[int, list[tuple]] = {}


def _key_fn(positions: Sequence[int], scalar: bool) -> Callable[[tuple], Any]:
    """Fast key extractor: a bare itemgetter where possible.

    ``itemgetter(p)`` returns the scalar, ``itemgetter(p, q, ...)`` the
    tuple — single-column builds use scalar keys (cheaper to hash) and
    multi-column builds tuples; ``scalar=False`` forces 1-tuples for
    compatibility with :class:`~repro.relalg.table.HashIndex` keys.
    """
    if len(positions) == 1 and scalar:
        return operator.itemgetter(positions[0])
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return operator.itemgetter(*positions)


class PhysicalNode:
    """Base class of physical operators.

    A physical node knows its output :attr:`schema` (computed at compile
    time) and produces rows on demand; any state it keeps across
    executions (cached build tables) is synchronized lazily from table
    delta journals.
    """

    schema: Schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        raise NotImplementedError

    def children(self) -> list["PhysicalNode"]:
        return []

    def describe(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0) -> str:
        line = "  " * depth + self.describe()
        return "\n".join(
            [line] + [child.explain(depth + 1) for child in self.children()]
        )


# -- leaves -------------------------------------------------------------------


class PTableScan(PhysicalNode):
    """Read the current rows of a live base table (O(1) snapshot)."""

    def __init__(self, table: Table, alias: Optional[str]) -> None:
        self.table = table
        self.alias = alias
        self.schema = table.schema.qualify(alias) if alias else table.schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self.table.rows

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table.name}{alias})"


class PStatic(PhysicalNode):
    """A pre-computed relation (frozen at compile time)."""

    def __init__(self, relation: Relation, alias: Optional[str]) -> None:
        self.schema = (
            relation.schema.qualify(alias) if alias else relation.schema
        )
        self._rows = list(relation.rows)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self._rows

    def describe(self) -> str:
        return f"Static({len(self._rows)} rows)"


# -- unary --------------------------------------------------------------------


class PPassthrough(PhysicalNode):
    """Schema re-qualification (alias); rows flow through unchanged."""

    def __init__(self, child: PhysicalNode, schema: Schema) -> None:
        self.child = child
        self.schema = schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self.child.rows(ctx)

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return "Alias"


class PCTE(PhysicalNode):
    """Shared subplan: computed at most once per execution."""

    def __init__(self, child: PhysicalNode, name: str) -> None:
        self.child = child
        self.name = name
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        cached = ctx.cte_rows.get(id(self))
        if cached is None:
            cached = self.child.rows(ctx)
            ctx.cte_rows[id(self)] = cached
        return cached

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"CTE({self.name})"


class PFilter(PhysicalNode):
    def __init__(self, child: PhysicalNode, predicate: Expr) -> None:
        self.child = child
        self.schema = child.schema
        self.predicate = predicate
        self.test = compile_expr(predicate, child.schema, predicate=True)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        test = self.test
        return [row for row in self.child.rows(ctx) if test(row)]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


class PProject(PhysicalNode):
    def __init__(self, child: PhysicalNode, columns: Sequence[str]) -> None:
        self.child = child
        self.positions = tuple(
            child.schema.resolve(*_split(name)) for name in columns
        )
        self.schema = Schema([Column(_split(name)[0]) for name in columns])
        self.projector = row_projector(self.positions)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        projector = self.projector
        return [projector(row) for row in self.child.rows(ctx)]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Project{self.positions}"


class PExtend(PhysicalNode):
    def __init__(self, child: PhysicalNode, name: str, expr: Expr) -> None:
        self.child = child
        self.expr = expr
        self.fn = compile_expr(expr, child.schema)
        self.schema = Schema(list(child.schema.columns) + [Column(name)])

    def rows(self, ctx: ExecContext) -> list[tuple]:
        fn = self.fn
        return [row + (fn(row),) for row in self.child.rows(ctx)]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Extend({self.expr!r})"


class PDistinct(PhysicalNode):
    def __init__(self, child: PhysicalNode) -> None:
        self.child = child
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return _ops.distinct(
            Relation(self.schema, self.child.rows(ctx))
        ).rows

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"


class POrderBy(PhysicalNode):
    """Sort keys are resolved to positions once at compile time."""

    def __init__(self, child: PhysicalNode, keys: Sequence) -> None:
        self.child = child
        self.schema = child.schema
        self.keys = _ops.resolve_sort_keys(child.schema, keys)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        out = list(self.child.rows(ctx))
        for pos, descending in reversed(self.keys):
            out.sort(key=lambda row: row[pos], reverse=descending)
        return out

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"OrderBy({self.keys})"


class PLimit(PhysicalNode):
    def __init__(self, child: PhysicalNode, n: int) -> None:
        self.child = child
        self.schema = child.schema
        self.n = n

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self.child.rows(ctx)[: self.n]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.n})"


class PAggregate(PhysicalNode):
    def __init__(
        self,
        child: PhysicalNode,
        group_by: Sequence[str],
        aggregations: Sequence[tuple[str, str, str]],
    ) -> None:
        self.child = child
        self.group_pos = tuple(
            child.schema.resolve(*_split(g)) for g in group_by
        )
        specs = []
        for fn_name, input_col, output_name in aggregations:
            if fn_name not in _AGGREGATES:
                raise ValueError(f"unknown aggregate {fn_name!r}")
            if fn_name == "count" and input_col == "*":
                pos = None
            else:
                pos = child.schema.resolve(*_split(input_col))
            specs.append((fn_name, pos, output_name))
        self.agg_specs = specs
        self.schema = Schema(
            [Column(_split(g)[0]) for g in group_by]
            + [Column(name) for __, __, name in specs]
        )

    def rows(self, ctx: ExecContext) -> list[tuple]:
        group_pos, agg_specs = self.group_pos, self.agg_specs
        groups: dict[tuple, list[Any]] = {}
        for row in self.child.rows(ctx):
            key = tuple(row[p] for p in group_pos)
            accs = groups.get(key)
            if accs is None:
                accs = [_AGGREGATES[fn][0]() for fn, __, __ in agg_specs]
                groups[key] = accs
            for i, (fn_name, pos, __) in enumerate(agg_specs):
                value = row[pos] if pos is not None else 1
                accs[i] = _AGGREGATES[fn_name][1](accs[i], value)
        if not group_pos and not groups:
            groups[()] = [_AGGREGATES[fn][0]() for fn, __, __ in agg_specs]
        return [
            key
            + tuple(
                _AGGREGATES[fn][2](acc)
                for (fn, __, __), acc in zip(agg_specs, accs)
            )
            for key, accs in groups.items()
        ]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Aggregate(by={self.group_pos}, {self.agg_specs})"


# -- set operations -----------------------------------------------------------


class PSetOp(PhysicalNode):
    """Set operations delegate to the interpreted operators — one
    authoritative implementation of union/except/intersect semantics
    keeps the interpreted-vs-compiled equivalence contract by
    construction."""

    def __init__(self, kind: str, left: PhysicalNode, right: PhysicalNode) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.fn = SetOpNode._FUNCS[kind]
        if left.schema.arity != right.schema.arity:
            raise ValueError(
                f"{kind}: arity mismatch {left.schema.arity} vs "
                f"{right.schema.arity}"
            )
        self.schema = left.schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self.fn(
            Relation(self.left.schema, self.left.rows(ctx)),
            Relation(self.right.schema, self.right.rows(ctx)),
        ).rows

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"SetOp[{self.kind}]"


# -- build strategies for keyed joins ----------------------------------------


class _FreshBuild:
    """Rebuild the hash table from the build side on every execution —
    the fallback when the build side cannot be cached."""

    scalar_keys = True

    def __init__(self, source: PhysicalNode, positions: Sequence[int]) -> None:
        self.source = source
        self.key_of = _key_fn(positions, scalar=True)

    def buckets(self, ctx: ExecContext) -> dict:
        key_of = self.key_of
        buckets: dict = {}
        for row in self.source.rows(ctx):
            buckets.setdefault(key_of(row), []).append(row)
        return buckets

    def keys(self, ctx: ExecContext):
        key_of = self.key_of
        return {key_of(row) for row in self.source.rows(ctx)}

    def describe(self) -> str:
        return "build=fresh"


class _IndexBuild:
    """Reuse a base table's live :class:`HashIndex` — the index is
    maintained by the table on every mutation, so there is nothing to
    build or synchronize."""

    scalar_keys = False  # HashIndex buckets are keyed by tuples

    def __init__(self, table: Table, column_names: tuple[str, ...]) -> None:
        self.table = table
        self.column_names = column_names

    def buckets(self, ctx: ExecContext) -> dict[tuple, list[tuple]]:
        return self.table.index_on(*self.column_names).buckets

    keys = buckets  # dict membership == key set membership

    def describe(self) -> str:
        return f"build=index({self.table.name}.{','.join(self.column_names)})"


class _CachedBuild:
    """Materialized build table maintained across executions by
    replaying the base table's delta journal through the build side's
    filter/project chain.

    ``mode="buckets"`` keeps key -> [build rows] (hash/left/anti+residual
    joins); ``mode="keys"`` keeps key -> multiplicity (semi/anti joins,
    membership only).
    """

    scalar_keys = True

    def __init__(
        self,
        table: Table,
        transform: Callable[[tuple], Optional[tuple]],
        positions: Sequence[int],
        mode: str,
    ) -> None:
        self.table = table
        self.transform = transform
        self.key_of = _key_fn(positions, scalar=True)
        self.mode = mode
        self.state: Optional[dict] = None
        self.rebuilds = 0
        self.delta_rows_applied = 0
        # The cursor is also the journal-lifetime token: journaling
        # stops (and the journal is pruned) once every consumer — e.g.
        # this build, after its plan is evicted from a PlanCache — has
        # been collected.  Consuming via a cursor lets the table prune
        # the journal prefix eagerly, so it stays bounded by the
        # slowest *live* consumer instead of growing until compaction.
        self._cursor = table.delta_cursor()

    # -- synchronization --------------------------------------------------

    def _sync(self) -> dict:
        deltas = self._cursor.take()
        if deltas is None or self.state is None:
            self._rebuild()
        elif deltas:
            try:
                self._apply(deltas)
            except ValueError:  # removal of an untracked row: resync
                self._rebuild()
        return self.state

    def _rebuild(self) -> None:
        self.rebuilds += 1
        transform, key_of = self.transform, self.key_of
        state: dict = {}
        if self.mode == "buckets":
            for raw in self.table.rows:
                row = transform(raw)
                if row is not None:
                    state.setdefault(key_of(row), []).append(row)
        else:
            for raw in self.table.rows:
                row = transform(raw)
                if row is not None:
                    key = key_of(row)
                    state[key] = state.get(key, 0) + 1
        self.state = state

    def _apply(self, deltas: list[tuple[bool, tuple]]) -> None:
        transform, key_of, state = self.transform, self.key_of, self.state
        self.delta_rows_applied += len(deltas)
        for added, raw in deltas:
            row = transform(raw)
            if row is None:
                continue
            key = key_of(row)
            if self.mode == "buckets":
                if added:
                    state.setdefault(key, []).append(row)
                else:
                    bucket = state.get(key)
                    if bucket is None:
                        raise ValueError("untracked bucket")
                    bucket.remove(row)  # ValueError -> caller rebuilds
                    if not bucket:
                        del state[key]
            else:
                if added:
                    state[key] = state.get(key, 0) + 1
                else:
                    count = state.get(key, 0)
                    if count <= 1:
                        state.pop(key, None)
                    else:
                        state[key] = count - 1

    def buckets(self, ctx: ExecContext) -> dict[tuple, list[tuple]]:
        return self._sync()

    keys = buckets

    def describe(self) -> str:
        return f"build=cached[{self.mode}]({self.table.name})"


def _unwrap(node: PhysicalNode) -> PhysicalNode:
    """Skip row-preserving wrappers (alias re-qualification, CTE)."""
    while isinstance(node, (PPassthrough, PCTE)):
        node = node.child
    return node


def _delta_pipeline(
    node: PhysicalNode, allow_distinct: bool
) -> Optional[tuple[Table, Callable[[tuple], Optional[tuple]]]]:
    """If *node* is a filter/project chain over a single base-table
    scan, return ``(table, transform)`` where ``transform`` maps a raw
    table row to the chain's output row (or None when filtered out) —
    the per-delta maintenance function of a cached build.

    ``Distinct`` stages are admitted only for key-membership caches
    (``allow_distinct``): they never change the key *set*, but they do
    change bucket multiplicities.
    """
    steps: list[tuple[str, Any]] = []
    while True:
        if isinstance(node, (PPassthrough, PCTE)):
            node = node.child
        elif isinstance(node, PFilter):
            steps.append(("filter", node.test))
            node = node.child
        elif isinstance(node, PProject):
            steps.append(("project", node.positions))
            node = node.child
        elif isinstance(node, PDistinct):
            if not allow_distinct:
                return None
            node = node.child
        elif isinstance(node, PTableScan):
            break
        else:
            return None
    table = node.table
    steps.reverse()  # innermost (closest to the scan) first

    def transform(row: tuple) -> Optional[tuple]:
        for kind, arg in steps:
            if kind == "filter":
                if not arg(row):
                    return None
            else:
                row = tuple(row[p] for p in arg)
        return row

    return table, transform


def _choose_build(
    right: PhysicalNode, right_pos: Sequence[int], mode: str
) -> Union[_FreshBuild, _IndexBuild, _CachedBuild]:
    """Pick the cheapest build strategy available for a keyed join."""
    base = _unwrap(right)
    if isinstance(base, PTableScan):
        names = tuple(base.table.schema.columns[p].name for p in right_pos)
        if base.table.index_on(*names) is not None:
            return _IndexBuild(base.table, names)
    pipeline = _delta_pipeline(right, allow_distinct=(mode == "keys"))
    if pipeline is not None:
        table, transform = pipeline
        return _CachedBuild(table, transform, right_pos, mode)
    return _FreshBuild(right, right_pos)


# -- joins --------------------------------------------------------------------


class PHashJoin(PhysicalNode):
    """Inner/left-outer equi-join; build side strategy chosen at
    compile time (live index / delta-cached / fresh)."""

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
        residual: Optional[Expr],
        how: str,
    ) -> None:
        self.left = left
        self.right = right
        self.left_pos = tuple(left_pos)
        self.how = how
        self.schema = left.schema.concat(right.schema)
        self.residual = residual
        self.residual_test: Optional[Bound] = (
            compile_expr(residual, self.schema, predicate=True)
            if residual is not None
            else None
        )
        self.build = _choose_build(right, right_pos, "buckets")
        self.key_of_left = _key_fn(self.left_pos, self.build.scalar_keys)
        self.null_pad = (None,) * right.schema.arity

    def rows(self, ctx: ExecContext) -> list[tuple]:
        buckets = self.build.buckets(ctx)
        key_of_left, residual_test = self.key_of_left, self.residual_test
        out: list[tuple] = []
        outer = self.how == "left"
        empty: tuple = ()
        for lr in self.left.rows(ctx):
            matched = False
            for rr in buckets.get(key_of_left(lr), empty):
                combined = lr + rr
                if residual_test is None or residual_test(combined):
                    out.append(combined)
                    matched = True
            if outer and not matched:
                out.append(lr + self.null_pad)
        return out

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return (
            f"HashJoin[{self.how}](keys={self.left_pos}, "
            f"{self.build.describe()}, residual={self.residual!r})"
        )


class PSemiJoin(PhysicalNode):
    """Key-membership semi join (EXISTS with pure equi-correlation)."""

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
    ) -> None:
        self.left = left
        self.right = right
        self.left_pos = tuple(left_pos)
        self.schema = left.schema
        self.build = _choose_build(right, right_pos, "keys")
        self.key_of_left = _key_fn(self.left_pos, self.build.scalar_keys)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        keys = self.build.keys(ctx)
        key_of_left = self.key_of_left
        return [lr for lr in self.left.rows(ctx) if key_of_left(lr) in keys]

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"SemiJoin(keys={self.left_pos}, {self.build.describe()})"


class PAntiJoin(PhysicalNode):
    """Key-based anti join (NOT EXISTS), with optional residual."""

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
        residual: Optional[Expr],
    ) -> None:
        self.left = left
        self.right = right
        self.left_pos = tuple(left_pos)
        self.schema = left.schema
        self.residual = residual
        if residual is None:
            self.residual_test = None
            self.build = _choose_build(right, right_pos, "keys")
        else:
            self.residual_test = compile_expr(
                residual, left.schema.concat(right.schema), predicate=True
            )
            self.build = _choose_build(right, right_pos, "buckets")
        self.key_of_left = _key_fn(self.left_pos, self.build.scalar_keys)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        key_of_left = self.key_of_left
        if self.residual_test is None:
            keys = self.build.keys(ctx)
            return [
                lr for lr in self.left.rows(ctx) if key_of_left(lr) not in keys
            ]
        buckets = self.build.buckets(ctx)
        test = self.residual_test
        empty: tuple = ()
        return [
            lr
            for lr in self.left.rows(ctx)
            if not any(
                test(lr + rr)
                for rr in buckets.get(key_of_left(lr), empty)
            )
        ]

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return (
            f"AntiJoin(keys={self.left_pos}, {self.build.describe()}, "
            f"residual={self.residual!r})"
        )


class PCrossJoin(PhysicalNode):
    def __init__(self, left: PhysicalNode, right: PhysicalNode) -> None:
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        right_rows = self.right.rows(ctx)
        return [lr + rr for lr in self.left.rows(ctx) for rr in right_rows]

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return "CrossJoin"


class PNestedLoopJoin(PhysicalNode):
    """θ-join fallback when no equi-key exists."""

    def __init__(
        self, left: PhysicalNode, right: PhysicalNode, predicate: Expr
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema.concat(right.schema)
        self.test = compile_expr(predicate, self.schema, predicate=True)

    def rows(self, ctx: ExecContext) -> list[tuple]:
        test = self.test
        right_rows = self.right.rows(ctx)
        return [
            combined
            for lr in self.left.rows(ctx)
            for rr in right_rows
            if test(combined := lr + rr)
        ]

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"NestedLoopJoin({self.predicate!r})"


class PAntiNestedLoop(PhysicalNode):
    """General NOT EXISTS with arbitrary correlation predicate."""

    def __init__(
        self, left: PhysicalNode, right: PhysicalNode, predicate: Expr
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self.test = compile_expr(
            predicate, left.schema.concat(right.schema), predicate=True
        )
        self.schema = left.schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        test = self.test
        right_rows = self.right.rows(ctx)
        return [
            lr
            for lr in self.left.rows(ctx)
            if not any(test(lr + rr) for rr in right_rows)
        ]

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"AntiNestedLoop({self.predicate!r})"


class PPrefix(PhysicalNode):
    """Truncate every row to the first *width* columns (used by the
    general semi-join lowering: join, keep the left columns, distinct)."""

    def __init__(self, child: PhysicalNode, schema: Schema) -> None:
        self.child = child
        self.schema = schema
        self.width = schema.arity

    def rows(self, ctx: ExecContext) -> list[tuple]:
        width = self.width
        return [row[:width] for row in self.child.rows(ctx)]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Prefix({self.width})"


class PUncorrelatedExists(PhysicalNode):
    """(NOT) EXISTS with no correlation: all-or-nothing filter."""

    def __init__(
        self, left: PhysicalNode, right: PhysicalNode, negated: bool
    ) -> None:
        self.left = left
        self.right = right
        self.negated = negated
        self.schema = left.schema

    def rows(self, ctx: ExecContext) -> list[tuple]:
        keep = bool(self.right.rows(ctx)) != self.negated
        return self.left.rows(ctx) if keep else []

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"UncorrelatedExists(negated={self.negated})"


class PLogicalFallback(PhysicalNode):
    """Wrap an unrecognized logical node: execute it interpreted.

    Keeps the compiler total over user-defined PlanNode subclasses —
    compilation is then a per-subtree optimization, never a constraint.
    """

    def __init__(self, node: PlanNode) -> None:
        self.node = node
        self.schema = node.output_schema()

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self.node.execute().rows

    def describe(self) -> str:
        return f"Interpreted({self.node._describe()})"


# -- compile-time logical rewrites --------------------------------------------


def reduce_outer_joins(
    node: PlanNode, memo: Optional[dict[int, PlanNode]] = None
) -> PlanNode:
    """Rewrite ``δ π(left-only) σ(IS NULL(right key) ∧ rest) (A ⟕ B)``
    into ``δ π (σ(rest) A) ▷ (σ(key IS NOT NULL) B)`` — the classical
    outer-join-to-anti-join reduction.

    Listing 1's ``WLockedObjects`` uses exactly this ``LEFT JOIN ...
    IS NULL ... DISTINCT`` idiom; as an anti join it probes a cached
    key set instead of materializing |history| padded join tuples per
    step.  Applied only at plan-compile time (the interpreted path
    stays the paper's literal shape).

    Exactness conditions, all checked: the join is a pure equi left
    join; exactly one IS NULL conjunct, testing a right-side join-key
    column; every other filter conjunct and every projected column
    resolves on the left input alone; and a DISTINCT sits directly
    above the projection.  The last two handle NULL join keys — under
    hash-join semantics a NULL left key *matches* a NULL build key, so
    such a left row is kept by the original query (its matched right
    key IS NULL), possibly multiple times.  Filtering the build side
    to non-NULL keys keeps that row in the anti join too, and the
    DISTINCT collapses the multiplicity difference.
    """
    from repro.relalg.optimizer import (
        _covers,
        _rebuild_with_children,
        _resolvable,
        split_join_predicate,
    )

    if memo is None:
        memo = {}
    done = memo.get(id(node))
    if done is not None:
        return done
    original = node
    node = _rebuild_with_children(
        node, [reduce_outer_joins(c, memo) for c in node.children()]
    )

    while (
        isinstance(node, DistinctNode)
        and isinstance(node.child, ProjectNode)
        and isinstance(node.child.child, FilterNode)
        and isinstance(node.child.child.child, JoinNode)
        and node.child.child.child.how == "left"
    ):
        project = node.child
        join = project.child.child
        left_schema = join.left.output_schema()
        right_schema = join.right.output_schema()
        left_keys, right_keys, residual = split_join_predicate(
            join.predicate, left_schema, right_schema
        )
        if not left_keys or residual is not None:
            break
        key_positions = {
            right_schema.resolve(*_split(k)) for k in right_keys
        }
        null_tested: list[ColumnRef] = []
        kept: list[Expr] = []
        applicable = True
        for conjunct in split_conjuncts(project.child.predicate):
            inner = conjunct.inner if isinstance(conjunct, IsNull) else None
            if (
                isinstance(inner, ColumnRef)
                and not _resolvable(left_schema, inner)
                and _resolvable(right_schema, inner)
                and right_schema.resolve(inner.name, inner.qualifier)
                in key_positions
            ):
                null_tested.append(inner)
            elif _covers(left_schema, conjunct):
                kept.append(conjunct)
            else:
                applicable = False
                break
        if not applicable or len(null_tested) != 1:
            break
        try:
            for column in project.columns:
                left_schema.resolve(*_split(column))
        except Exception:
            break
        probe = (
            FilterNode(join.left, and_(*kept)) if kept else join.left
        )
        build = FilterNode(
            join.right,
            ~IsNull(ColumnRef(null_tested[0].name, null_tested[0].qualifier)),
        )
        node = DistinctNode(
            ProjectNode(
                JoinNode(probe, build, join.predicate, "anti"),
                project.columns,
            )
        )
        break

    memo[id(original)] = node
    return node


# -- the compiler -------------------------------------------------------------


def compile_node(
    node: PlanNode, memo: Optional[dict[int, PhysicalNode]] = None
) -> PhysicalNode:
    """Lower a logical plan (sub)tree to physical operators.

    Shared logical nodes (CTEs) compile to shared physical nodes — the
    memo is keyed by node identity, mirroring the optimizer's DAG
    preservation."""
    if memo is None:
        memo = {}
    done = memo.get(id(node))
    if done is not None:
        return done
    physical = _compile(node, memo)
    memo[id(node)] = physical
    return physical


def _compile(node: PlanNode, memo: dict[int, PhysicalNode]) -> PhysicalNode:
    if isinstance(node, SourceNode):
        if isinstance(node.source, Table):
            return PTableScan(node.source, node.alias)
        return PStatic(node.source, node.alias)
    if isinstance(node, _AliasNode):
        child = compile_node(node.child, memo)
        return PPassthrough(child, child.schema.qualify(node.alias))
    if isinstance(node, CTENode):
        return PCTE(compile_node(node.child, memo), node.name)
    if isinstance(node, FilterNode):
        return PFilter(compile_node(node.child, memo), node.predicate)
    if isinstance(node, ProjectNode):
        return PProject(compile_node(node.child, memo), node.columns)
    if isinstance(node, ExtendNode):
        return PExtend(compile_node(node.child, memo), node.name, node.expr)
    if isinstance(node, DistinctNode):
        return PDistinct(compile_node(node.child, memo))
    if isinstance(node, OrderByNode):
        return POrderBy(compile_node(node.child, memo), node.keys)
    if isinstance(node, LimitNode):
        return PLimit(compile_node(node.child, memo), node.n)
    if isinstance(node, AggregateNode):
        return PAggregate(
            compile_node(node.child, memo), node.group_by, node.aggregations
        )
    if isinstance(node, SetOpNode):
        return PSetOp(
            node.kind,
            compile_node(node.left, memo),
            compile_node(node.right, memo),
        )
    if isinstance(node, JoinNode):
        return _compile_join(node, memo)
    # SQL-frontend plan nodes (lazy import: sql.py is a heavyweight
    # optional layer above the core engine).
    from repro.relalg import sql as _sql

    if isinstance(node, _sql._UnqualifyNode):
        child = compile_node(node.child, memo)
        return PPassthrough(child, child.schema.unqualified())
    if isinstance(node, _sql._RenameColumnsNode):
        child = compile_node(node.child, memo)
        renamed = Schema(
            [
                Column(new_name) if new_name else column
                for column, new_name in zip(
                    child.schema.columns, node.renames
                )
            ]
        )
        return PPassthrough(child, renamed)
    if isinstance(node, _sql._UncorrelatedExistsNode):
        return PUncorrelatedExists(
            compile_node(node.left, memo),
            compile_node(node.right, memo),
            node.negated,
        )
    return PLogicalFallback(node)


def _compile_join(node: JoinNode, memo: dict[int, PhysicalNode]) -> PhysicalNode:
    from repro.relalg.optimizer import split_join_predicate

    left = compile_node(node.left, memo)
    right = compile_node(node.right, memo)
    left_keys, right_keys, residual = split_join_predicate(
        node.predicate, left.schema, right.schema
    )
    left_pos = [left.schema.resolve(*_split(k)) for k in left_keys]
    right_pos = [right.schema.resolve(*_split(k)) for k in right_keys]

    if node.how == "inner":
        if left_pos:
            return PHashJoin(left, right, left_pos, right_pos, residual, "inner")
        if node.predicate is None:
            return PCrossJoin(left, right)
        return PNestedLoopJoin(left, right, node.predicate)
    if node.how == "left":
        if left_pos:
            return PHashJoin(left, right, left_pos, right_pos, residual, "left")
        raise ValueError(
            "left outer join requires at least one equality conjunct "
            f"between the sides; got predicate {node.predicate!r}"
        )
    if node.how == "semi":
        if left_pos and residual is None:
            return PSemiJoin(left, right, left_pos, right_pos)
        if node.predicate is None:
            raise ValueError("semi join requires a predicate")
        joined: PhysicalNode = (
            PHashJoin(left, right, left_pos, right_pos, residual, "inner")
            if left_pos
            else PNestedLoopJoin(left, right, node.predicate)
        )
        return PDistinct(PPrefix(joined, left.schema))
    # anti
    if left_pos:
        return PAntiJoin(left, right, left_pos, right_pos, residual)
    if node.predicate is None:
        raise ValueError("anti join requires a predicate")
    return PAntiNestedLoop(left, right, node.predicate)


class CompiledPlan:
    """A query analyzed once, executable many times.

    Construction performs the full one-time work (optimization,
    lowering, schema/key resolution, expression codegen); each
    :meth:`execute` runs only the physical operators against the
    current contents of the referenced base tables.  Safe to reuse
    across scheduler steps; cached join builds re-synchronize from
    table delta journals automatically.
    """

    def __init__(self, root: PlanNode, optimize: bool = True) -> None:
        from repro.relalg.optimizer import optimize_plan

        self.logical = root
        if optimize:
            self.logical = reduce_outer_joins(optimize_plan(root))
        self.physical = compile_node(self.logical)
        self.schema = self.physical.schema
        self.executions = 0

    def execute(self) -> Relation:
        self.executions += 1
        return Relation(self.schema, self.physical.rows(ExecContext()))

    def explain(self) -> str:
        """EXPLAIN of the *physical* plan, including build strategies."""
        return self.physical.explain()


class PlanCache:
    """Per-protocol memo: (base tables) -> :class:`CompiledPlan`.

    A protocol's query shape is fixed; what varies between scheduler
    instances is which table objects it runs against.  The cache keys
    on table identity (entries hold strong references, so ids cannot
    be recycled underneath it) and evicts least-recently-used entries
    beyond *capacity* — benchmarks that churn through many short-lived
    store pairs stay bounded.
    """

    def __init__(
        self,
        builder: Callable[..., Union[Query, PlanNode]],
        capacity: int = 8,
    ) -> None:
        self._builder = builder
        self._capacity = capacity
        self._entries: dict[tuple[int, ...], tuple[tuple, CompiledPlan]] = {}

    def get(self, *tables: Table) -> CompiledPlan:
        key = tuple(id(t) for t in tables)
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._entries[key] = entry  # re-insert: most recently used
            return entry[1]
        built = self._builder(*tables)
        root = built.plan if isinstance(built, Query) else built
        plan = CompiledPlan(root)
        self._entries[key] = (tables, plan)
        while len(self._entries) > self._capacity:
            self._entries.pop(next(iter(self._entries)))
        return plan

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
