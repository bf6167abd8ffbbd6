"""Incremental (delta) plans: O(|delta|) maintenance of a query result.

:class:`~repro.relalg.plan.CompiledPlan` removed the per-step *analysis*
cost but still recomputes every operator over the full table contents on
each execution.  For the scheduler that is the remaining scaling wall:
the protocol's query is fixed, the tables are large, and each step
changes only a handful of rows (the arrived batch in, the dispatched
batch out).

:class:`DeltaPlan` closes that gap with classical incremental view
maintenance over bag (multiset) semantics:

* every operator keeps **materialized per-node state** (join index maps,
  aggregate accumulators, distinct counters) sized by its *input*, and
  exposes a maintenance method that maps an input delta to an output
  delta;
* deltas are signed multisets ``{row: count}`` — inserts positive,
  retracts negative — pulled from the base tables' delta journals via
  O(1) :class:`~repro.relalg.table.DeltaCursor` consumers;
* a refresh propagates the source deltas through the operator DAG in
  topological order, so a step's cost is proportional to the rows that
  changed, not the rows that exist.

Binary operators follow the sequential delta rule — for a join,
``Δ(L ⋈ R) = ΔL ⋈ R_old  ∪  L_new ⋈ ΔR`` — applying the left delta
against the *old* right state, folding it in, then applying the right
delta against the *new* left state.  This is exact for self-joins
(ΔL and ΔR may come from the same table in the same step).  Operators
that are linear in their left input and gate its rows by the right
side (semi, anti and left joins) take the mirror order — right delta
against the old left state, then left delta against the new right
state — so a rebuild, whose left and right deltas are the whole
tables, never emits a left row only to retract it in the same call.

Lowering is total over the same plan shapes the physical compiler
accepts, with two deliberate refusals (:class:`DeltaLoweringError`):
``LIMIT`` (order-dependent, meaningless over unordered deltas) and
outer/anti joins with no equality conjunct and no predicate.  Unknown
logical nodes — the compiled path's interpreted-fallback cases — are
refused rather than silently recomputed, so a ``DeltaPlan`` is
incremental end-to-end or it does not exist.

If maintenance ever observes an impossible transition (a retraction of
a row the state does not hold — e.g. after a journal truncation raced a
laggard consumer), it raises :class:`DeltaStateError` and the plan
falls back to a full rebuild from the base tables, exactly like a cold
start.  Correctness never depends on the journal's retention policy.
"""

from __future__ import annotations

import operator
from collections import Counter
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.relalg.expressions import compile_expr
from repro.relalg.operators import _AGGREGATES, _split, resolve_sort_keys
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
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.relalg.table import Table, row_projector

#: A signed multiset of rows: +n inserts, -n retracts.  Zero-count
#: entries are never stored.
Delta = dict


class DeltaLoweringError(ValueError):
    """The logical plan has no incremental lowering (e.g. LIMIT).

    Every raise site names the analyzer rule it stands for (D101–D105,
    see ``docs/analysis.md``), and the lowering walk records the
    root-to-operator path of the refusing node in
    :attr:`operator_path`, so backend refusals and ``repro analyze``
    diagnostics cite *which* operator cannot be maintained, and why.
    """

    #: ``_describe()`` strings from the plan root down to the refusing
    #: operator; ``None`` when raised outside a lowering walk.
    operator_path: "tuple[str, ...] | None" = None

    def __init__(self, message: str, rule: str) -> None:
        super().__init__(message)
        self.rule = rule

    def __str__(self) -> str:
        if self.operator_path is None:
            return self.args[0]
        return f"{self.args[0]} [at {' > '.join(self.operator_path)}]"


class LoweringRefusal(NamedTuple):
    """Why one trial lowering failed, as rule / subject / message / path.

    The single conversion from "whatever the real lowering raised" to
    the analyzer's vocabulary: a :class:`DeltaLoweringError` keeps the
    rule its raise site named; any other exception out of plan
    building, optimization or reference resolution is D106 and is
    cited by type.
    """

    rule: str
    subject: str
    message: str
    #: ``a > b > c`` operator path; empty when the failure happened
    #: outside the lowering walk (plan building, optimization).
    path: str

    @classmethod
    def of(cls, error: Exception, subject: str) -> "LoweringRefusal":
        path = " > ".join(getattr(error, "operator_path", None) or ())
        if isinstance(error, DeltaLoweringError):
            return cls(error.rule, subject, error.args[0], path)
        return cls(
            "D106", subject, f"{type(error).__name__}: {error}", path
        )

    def __str__(self) -> str:
        where = f" [at {self.path}]" if self.path else ""
        return f"{self.subject}: {self.message}{where} ({self.rule})"


class DeltaStateError(RuntimeError):
    """Maintenance observed an impossible transition; rebuild needed."""


def _merge(target: Delta, row: tuple, count: int) -> None:
    n = target.get(row, 0) + count
    if n:
        target[row] = n
    else:
        target.pop(row, None)


def _bump(counts: dict, row: tuple, count: int) -> tuple[int, int]:
    """Apply a signed count to a non-negative multiset; (old, new)."""
    old = counts.get(row, 0)
    new = old + count
    if new < 0:
        raise DeltaStateError(f"negative multiplicity for {row!r}")
    if new:
        counts[row] = new
    else:
        counts.pop(row, None)
    return old, new


def _bucket_bump(
    index: dict, key: Any, row: tuple, count: int
) -> tuple[int, int]:
    """Like :func:`_bump` on ``index[key]``, dropping empty buckets."""
    bucket = index.get(key)
    if bucket is None:
        bucket = index[key] = {}
    old = bucket.get(row, 0)
    new = old + count
    if new < 0:
        raise DeltaStateError(f"negative multiplicity for {row!r}")
    if new:
        bucket[row] = new
    else:
        del bucket[row]
        if not bucket:
            del index[key]
    return old, new


def _compact_bump(index: dict, key: Any, row: tuple, count: int) -> None:
    """:func:`_bucket_bump` for an index read only when its key's gate
    flips: a key holding one distinct row maps to ``(row, count)``
    rather than a one-entry dict, and a second distinct row turns the
    entry into a dict bucket (which turns back at one row)."""
    held = index.get(key)
    if held is None:
        if count < 0:
            raise DeltaStateError(f"negative multiplicity for {row!r}")
        index[key] = (row, count)
        return
    if held.__class__ is tuple:
        if held[0] == row:
            n = held[1] + count
            if n > 0:
                index[key] = (held[0], n)
            elif n == 0:
                del index[key]
            else:
                raise DeltaStateError(f"negative multiplicity for {row!r}")
            return
        if count < 0:
            raise DeltaStateError(f"negative multiplicity for {row!r}")
        index[key] = {held[0]: held[1], row: count}
        return
    n = held.get(row, 0) + count
    if n < 0:
        raise DeltaStateError(f"negative multiplicity for {row!r}")
    if n:
        held[row] = n
    else:
        del held[row]
        if len(held) == 1:
            index[key] = next(iter(held.items()))


def _compact_items(held: Any) -> Any:
    """The ``(row, count)`` pairs of a :func:`_compact_bump` entry."""
    return (held,) if held.__class__ is tuple else held.items()


def _key_of(positions: Sequence[int]) -> Callable[[tuple], Any]:
    """Join-key extractor (scalar for one column, () for cross joins)."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        return operator.itemgetter(positions[0])
    return operator.itemgetter(*positions)


# -- operator nodes -----------------------------------------------------------


class DeltaNode:
    """Base class of delta operators.

    A node declares its input :attr:`arity` (set when it is wired into
    the DAG), its output :attr:`schema`, and three hooks: :meth:`reset`
    clears materialized state for a rebuild, :meth:`seed` emits state
    that exists over *empty* input (only global aggregates), and
    :meth:`apply` maps per-port input deltas to an output delta.
    """

    schema: Schema
    arity: int = 1
    label = "node"

    def reset(self) -> None:
        pass

    def seed(self) -> Optional[Delta]:
        return None

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        raise NotImplementedError


class DSource(DeltaNode):
    """A live base table; deltas come from its journal cursor."""

    label = "source"
    arity = 0

    def __init__(self, table: Table) -> None:
        self.table = table
        self.schema = table.schema
        self.cursor = table.delta_cursor()


class DStatic(DeltaNode):
    """A frozen relation: full content at rebuild, no deltas after."""

    label = "static"
    arity = 0

    def __init__(self, relation: Relation, schema: Schema) -> None:
        self.schema = schema
        self._content: Delta = Counter(relation.rows)

    def content_delta(self) -> Delta:
        return dict(self._content)


class DIdentity(DeltaNode):
    """Schema-only change (alias, validated sort, identity projection)."""

    label = "identity"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        return slots[0] or {}


class DFilter(DeltaNode):
    label = "filter"

    def __init__(self, schema: Schema, test: Callable[[tuple], bool]) -> None:
        self.schema = schema
        self.test = test

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        test = self.test
        return {row: c for row, c in (slots[0] or {}).items() if test(row)}


class DProject(DeltaNode):
    label = "project"

    def __init__(self, schema: Schema, positions: Sequence[int]) -> None:
        self.schema = schema
        self.projector = row_projector(positions)

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        projector = self.projector
        out: Delta = {}
        get = out.get
        for row, c in (slots[0] or {}).items():
            # _merge, inlined: this and the join are the innermost loops.
            projected = projector(row)
            n = get(projected, 0) + c
            if n:
                out[projected] = n
            else:
                del out[projected]
        return out


class DExtend(DeltaNode):
    label = "extend"

    def __init__(self, schema: Schema, fn: Callable[[tuple], Any]) -> None:
        self.schema = schema
        self.fn = fn

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        fn = self.fn
        out: Delta = {}
        for row, c in (slots[0] or {}).items():
            _merge(out, row + (fn(row),), c)
        return out


class DPrefix(DeltaNode):
    """Truncate rows to the first *width* columns (semi-join lowering)."""

    label = "prefix"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.width = schema.arity

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        width = self.width
        out: Delta = {}
        for row, c in (slots[0] or {}).items():
            _merge(out, row[:width], c)
        return out


class DDistinct(DeltaNode):
    """Multiplicity counter: emit on 0→positive / positive→0 edges."""

    label = "distinct"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.counts: dict = {}

    def reset(self) -> None:
        self.counts = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        out: Delta = {}
        counts = self.counts
        for row, c in (slots[0] or {}).items():
            old, new = _bump(counts, row, c)
            if old == 0 and new > 0:
                _merge(out, row, 1)
            elif old > 0 and new == 0:
                _merge(out, row, -1)
        return out


def _bulk_step(fn_name: str, acc: Any, value: Any, n: int) -> Any:
    """Multiplicity-aware aggregate step (n identical inputs at once)."""
    if fn_name == "count":
        return acc + n
    if fn_name == "sum":
        return acc + value * n
    if fn_name == "avg":
        return (acc[0] + value * n, acc[1] + n)
    # min/max: multiplicity is irrelevant
    return _AGGREGATES[fn_name][1](acc, value)


class DAggregate(DeltaNode):
    """Group-recompute aggregation.

    State is the full input multiset per group plus the group's current
    output row.  A delta marks its groups dirty; each dirty group is
    re-finalized from its (small) input multiset, retracting the old
    output row and emitting the new one.  Exact for all aggregates
    including ``min``/``max`` (which are not differentiable under
    retraction without keeping the inputs anyway).
    """

    label = "aggregate"

    def __init__(
        self,
        schema: Schema,
        group_pos: Sequence[int],
        agg_specs: Sequence[tuple[str, Optional[int], str]],
    ) -> None:
        self.schema = schema
        self.group_pos = tuple(group_pos)
        self.agg_specs = list(agg_specs)
        self.is_global = not self.group_pos
        self.groups: dict[tuple, dict] = {}
        self.out_rows: dict[tuple, tuple] = {}

    def reset(self) -> None:
        self.groups = {}
        self.out_rows = {}

    def seed(self) -> Optional[Delta]:
        if not self.is_global:
            return None
        # SQL: a global aggregate over an empty input is one row.
        row = self._finalize((), {})
        self.out_rows[()] = row
        return {row: 1}

    def _finalize(self, key: tuple, bucket: dict) -> tuple:
        accs = [_AGGREGATES[fn][0]() for fn, __, __ in self.agg_specs]
        for row, n in bucket.items():
            for i, (fn_name, pos, __) in enumerate(self.agg_specs):
                value = row[pos] if pos is not None else 1
                accs[i] = _bulk_step(fn_name, accs[i], value, n)
        return key + tuple(
            _AGGREGATES[fn][2](acc)
            for (fn, __, __), acc in zip(self.agg_specs, accs)
        )

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        group_pos, groups = self.group_pos, self.groups
        dirty: set[tuple] = set()
        for row, c in (slots[0] or {}).items():
            key = tuple(row[p] for p in group_pos)
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = {}
            _bump(bucket, row, c)
            dirty.add(key)
        out: Delta = {}
        for key in dirty:
            bucket = groups.get(key)
            previous = self.out_rows.pop(key, None)
            if previous is not None:
                _merge(out, previous, -1)
            if not bucket:
                groups.pop(key, None)
                if not self.is_global:
                    continue
                bucket = {}
            new_row = self._finalize(key, bucket)
            self.out_rows[key] = new_row
            _merge(out, new_row, 1)
        return out


class DSetOp(DeltaNode):
    """Set operations as per-row multiplicity functions of the two
    sides' counts — transliterating the interpreted operators'
    semantics (``except``/``union``/``intersect`` are SET-valued,
    ``union_all``/``except_all`` bag-valued).

    ``union_all`` is linear in both sides (Δout = Δleft + Δright), so
    it is a stateless merge and keeps no counts; the others are not
    and keep one count per row per side.
    """

    _FUNCS: dict[str, Callable[[int, int], int]] = {
        "union": lambda l, r: 1 if (l or r) else 0,
        "except": lambda l, r: 1 if (l and not r) else 0,
        "except_all": lambda l, r: l - r if l > r else 0,
        "intersect": lambda l, r: 1 if (l and r) else 0,
    }

    label = "setop"
    arity = 2

    def __init__(self, schema: Schema, kind: str) -> None:
        self.schema = schema
        self.kind = kind
        self.fn = None if kind == "union_all" else self._FUNCS[kind]
        self.left_counts: dict = {}
        self.right_counts: dict = {}

    def reset(self) -> None:
        self.left_counts = {}
        self.right_counts = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        dl, dr = slots
        fn = self.fn
        if fn is None:
            if not dr:
                return dl or {}
            if not dl:
                return dr
            out = dict(dl)
            for row, c in dr.items():
                _merge(out, row, c)
            return out
        left, right = self.left_counts, self.right_counts
        rows: set = set()
        if dl:
            rows.update(dl)
        if dr:
            rows.update(dr)
        out = {}
        for row in rows:
            lo = left.get(row, 0)
            ro = right.get(row, 0)
            old = fn(lo, ro)
            if dl and row in dl:
                __, ln = _bump(left, row, dl[row])
            else:
                ln = lo
            if dr and row in dr:
                __, rn = _bump(right, row, dr[row])
            else:
                rn = ro
            new = fn(ln, rn)
            if new != old:
                _merge(out, row, new - old)
        return out


class DInnerJoin(DeltaNode):
    """Inner equi/θ/cross join; both sides indexed by join key (the
    empty key for keyless joins, with the full predicate as residual)."""

    label = "join"
    arity = 2

    def __init__(
        self,
        schema: Schema,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
        residual_test: Optional[Callable[[tuple], bool]],
    ) -> None:
        self.schema = schema
        self.left_key = _key_of(left_pos)
        self.right_key = _key_of(right_pos)
        self.test = residual_test
        self.left_index: dict = {}
        self.right_index: dict = {}

    def reset(self) -> None:
        self.left_index = {}
        self.right_index = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        dl, dr = slots
        test = self.test
        out: Delta = {}
        get = out.get
        if dl:
            left_key = self.left_key
            for lr, cl in dl.items():
                bucket = self.right_index.get(left_key(lr))
                if bucket:
                    for rr, cr in bucket.items():
                        combined = lr + rr
                        if test is None or test(combined):
                            # _merge, inlined (innermost loop).
                            n = get(combined, 0) + cl * cr
                            if n:
                                out[combined] = n
                            else:
                                del out[combined]
            for lr, cl in dl.items():
                _bucket_bump(self.left_index, left_key(lr), lr, cl)
        if dr:
            right_key = self.right_key
            for rr, cr in dr.items():
                bucket = self.left_index.get(right_key(rr))
                if bucket:
                    for lr, cl in bucket.items():
                        combined = lr + rr
                        if test is None or test(combined):
                            n = get(combined, 0) + cl * cr
                            if n:
                                out[combined] = n
                            else:
                                del out[combined]
            for rr, cr in dr.items():
                _bucket_bump(self.right_index, right_key(rr), rr, cr)
        return out


class DLeftJoin(DeltaNode):
    """Left outer equi-join: the inner join plus a per-left-row count
    of residual-passing matches driving null-pad insert/retract edges."""

    label = "leftjoin"
    arity = 2

    def __init__(
        self,
        schema: Schema,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
        residual_test: Optional[Callable[[tuple], bool]],
        pad_width: int,
    ) -> None:
        self.schema = schema
        self.left_key = _key_of(left_pos)
        self.right_key = _key_of(right_pos)
        self.test = residual_test
        self.pad = (None,) * pad_width
        self.left_index: dict = {}
        self.right_index: dict = {}
        self.match: dict[tuple, int] = {}

    def reset(self) -> None:
        self.left_index = {}
        self.right_index = {}
        self.match = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        # Right side first (see DSemiJoin.apply): a rebuild pads only
        # the left rows that stay unmatched.
        dl, dr = slots
        test, pad = self.test, self.pad
        match = self.match
        out: Delta = {}
        if dr:
            right_key = self.right_key
            for rr, cr in dr.items():
                key = right_key(rr)
                bucket = self.left_index.get(key)
                if bucket:
                    for lr, cl in bucket.items():
                        combined = lr + rr
                        if test is None or test(combined):
                            _merge(out, combined, cl * cr)
                            m_old = match.get(lr, 0)
                            m_new = m_old + cr
                            if m_new < 0:
                                raise DeltaStateError("match underflow")
                            match[lr] = m_new
                            if m_old == 0 and m_new > 0:
                                _merge(out, lr + pad, -cl)
                            elif m_old > 0 and m_new == 0:
                                _merge(out, lr + pad, cl)
                _bucket_bump(self.right_index, key, rr, cr)
        if dl:
            left_key = self.left_key
            for lr, cl in dl.items():
                key = left_key(lr)
                matches = 0
                bucket = self.right_index.get(key)
                if bucket:
                    for rr, cr in bucket.items():
                        combined = lr + rr
                        if test is None or test(combined):
                            _merge(out, combined, cl * cr)
                            matches += cr
                __, new = _bucket_bump(self.left_index, key, lr, cl)
                if new:
                    match[lr] = matches
                else:
                    match.pop(lr, None)
                if matches == 0:
                    _merge(out, lr + pad, cl)
        return out


class DSemiJoin(DeltaNode):
    """Key-membership semi join (EXISTS with pure equi-correlation).

    ``left_index`` is read only when a key's right count crosses zero,
    so it is a :func:`_compact_bump` index."""

    label = "semijoin"
    arity = 2

    def __init__(
        self,
        schema: Schema,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
    ) -> None:
        self.schema = schema
        self.left_key = _key_of(left_pos)
        self.right_key = _key_of(right_pos)
        self.left_index: dict = {}
        self.right_keys: dict = {}

    def reset(self) -> None:
        self.left_index = {}
        self.right_keys = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        # Right side first: the output is linear in the left input, so
        # (L+ΔL)⋉(R+ΔR) − L⋉R = (L⋉R′ − L⋉R) + ΔL⋉R′ — ΔR against the
        # old left state, then ΔL against the new right state.  A
        # rebuild then never emits a left row only to retract it.
        dl, dr = slots
        right_keys, left_index = self.right_keys, self.left_index
        out: Delta = {}
        if dr:
            right_key = self.right_key
            for rr, cr in dr.items():
                key = right_key(rr)
                old, new = _bump(right_keys, key, cr)
                if (old > 0) != (new > 0):
                    held = left_index.get(key)
                    if held is not None:
                        sign = 1 if new > 0 else -1
                        for lr, cl in _compact_items(held):
                            _merge(out, lr, sign * cl)
        if dl:
            left_key = self.left_key
            for lr, cl in dl.items():
                key = left_key(lr)
                if key in right_keys:
                    _merge(out, lr, cl)
                _compact_bump(left_index, key, lr, cl)
        return out


class DAntiKeyJoin(DeltaNode):
    """Key-based anti join (NOT EXISTS, no residual); ``left_index`` is
    a :func:`_compact_bump` index, like :class:`DSemiJoin`'s."""

    label = "antijoin"
    arity = 2

    def __init__(
        self,
        schema: Schema,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
    ) -> None:
        self.schema = schema
        self.left_key = _key_of(left_pos)
        self.right_key = _key_of(right_pos)
        self.left_index: dict = {}
        self.right_keys: dict = {}

    def reset(self) -> None:
        self.left_index = {}
        self.right_keys = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        # Right side first, as in DSemiJoin.apply.
        dl, dr = slots
        right_keys, left_index = self.right_keys, self.left_index
        out: Delta = {}
        if dr:
            right_key = self.right_key
            for rr, cr in dr.items():
                key = right_key(rr)
                old, new = _bump(right_keys, key, cr)
                if (old > 0) != (new > 0):
                    held = left_index.get(key)
                    if held is not None:
                        sign = -1 if new > 0 else 1
                        for lr, cl in _compact_items(held):
                            _merge(out, lr, sign * cl)
        if dl:
            left_key = self.left_key
            for lr, cl in dl.items():
                key = left_key(lr)
                if key not in right_keys:
                    _merge(out, lr, cl)
                _compact_bump(left_index, key, lr, cl)
        return out


class DAntiResidualJoin(DeltaNode):
    """Anti join with a residual (or keyless θ) predicate: per-left-row
    counts of predicate-passing matches; a left row is emitted while its
    count is zero."""

    label = "antijoin"
    arity = 2

    def __init__(
        self,
        schema: Schema,
        left_pos: Sequence[int],
        right_pos: Sequence[int],
        test: Callable[[tuple], bool],
    ) -> None:
        self.schema = schema
        self.left_key = _key_of(left_pos)
        self.right_key = _key_of(right_pos)
        self.test = test
        self.left_index: dict = {}
        self.right_index: dict = {}
        self.match: dict[tuple, int] = {}

    def reset(self) -> None:
        self.left_index = {}
        self.right_index = {}
        self.match = {}

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        # Right side first, as in DSemiJoin.apply.
        dl, dr = slots
        test, match = self.test, self.match
        out: Delta = {}
        if dr:
            right_key = self.right_key
            for rr, cr in dr.items():
                key = right_key(rr)
                bucket = self.left_index.get(key)
                if bucket:
                    for lr, cl in bucket.items():
                        if test(lr + rr):
                            m_old = match.get(lr, 0)
                            m_new = m_old + cr
                            if m_new < 0:
                                raise DeltaStateError("match underflow")
                            match[lr] = m_new
                            if m_old == 0 and m_new > 0:
                                _merge(out, lr, -cl)
                            elif m_old > 0 and m_new == 0:
                                _merge(out, lr, cl)
                _bucket_bump(self.right_index, key, rr, cr)
        if dl:
            left_key = self.left_key
            for lr, cl in dl.items():
                key = left_key(lr)
                matches = 0
                bucket = self.right_index.get(key)
                if bucket:
                    for rr, cr in bucket.items():
                        if test(lr + rr):
                            matches += cr
                __, new = _bucket_bump(self.left_index, key, lr, cl)
                if new:
                    match[lr] = matches
                else:
                    match.pop(lr, None)
                if matches == 0:
                    _merge(out, lr, cl)
        return out


class DUncorrelatedExists(DeltaNode):
    """(NOT) EXISTS with no correlation: all-or-nothing gate on the
    left side, keyed by whether the right side is non-empty."""

    label = "exists"
    arity = 2

    def __init__(self, schema: Schema, negated: bool) -> None:
        self.schema = schema
        self.negated = negated
        self.left_counts: dict = {}
        self.right_total = 0

    def reset(self) -> None:
        self.left_counts = {}
        self.right_total = 0

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        dl, dr = slots
        out: Delta = {}
        emitting = (self.right_total > 0) != self.negated
        if dl:
            if emitting:
                for row, c in dl.items():
                    _merge(out, row, c)
            for row, c in dl.items():
                _bump(self.left_counts, row, c)
        if dr:
            self.right_total += sum(dr.values())
            if self.right_total < 0:
                raise DeltaStateError("negative right-side cardinality")
            emitting_now = (self.right_total > 0) != self.negated
            if emitting_now != emitting:
                sign = 1 if emitting_now else -1
                for row, c in self.left_counts.items():
                    _merge(out, row, sign * c)
        return out


class DMaterialize(DeltaNode):
    """The plan root: accumulates the maintained result multiset.

    With a :attr:`decode` callable attached (:meth:`DeltaPlan.decode_with`)
    :meth:`decoded_rows` serves the result as decoded objects.  A row is
    decoded the first time it is read after entering the result, and
    ``decoded`` forgets it the moment its multiplicity returns to zero,
    so a consumer that turns result rows into objects every step pays
    per *changed* row, like every other operator, and a row that left
    and came back is decoded afresh.

    ``decoded`` has ``out``'s keys in ``out``'s order; a row's slot is
    ``None`` from entering the result until the next read, which
    decodes the rows in ``entered`` and, while the result is a set,
    hands out ``decoded``'s values as they stand.
    """

    label = "materialize"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.out: dict = {}
        self.decode: Optional[Callable[[tuple], Any]] = None
        self.decoded: dict = {}
        #: Rows that entered the result since the last read.
        self.entered: list[tuple] = []
        #: Sum of ``out``'s multiplicities.
        self.size = 0

    def reset(self) -> None:
        self.out = {}
        self.decoded = {}
        self.entered = []
        self.size = 0

    def apply(self, slots: list[Optional[Delta]]) -> Delta:
        out, decoded = self.out, self.decoded
        for row, c in (slots[0] or {}).items():
            old, new = _bump(out, row, c)
            self.size += c
            if not new:
                del decoded[row]
            elif not old:
                decoded[row] = None
                self.entered.append(row)
        return {}

    def rows(self) -> list[tuple]:
        if self.size == len(self.out):
            return list(self.out)
        rows: list[tuple] = []
        for row, count in self.out.items():
            rows.extend([row] * count)
        return rows

    def decoded_rows(self) -> list:
        decoded = self.decoded
        for row in self.entered:
            # Not a row that left again, or entered twice.
            if decoded.get(row, row) is None:
                decoded[row] = self.decode(row)
        self.entered.clear()
        if self.size == len(decoded):
            return list(decoded.values())
        objects: list = []
        for obj, count in zip(decoded.values(), self.out.values()):
            objects.extend([obj] * count)
        return objects


# -- lowering -----------------------------------------------------------------


class _Lowering:
    """Single pass from a logical plan to a wired delta-operator DAG.

    Mirrors :func:`repro.relalg.plan._compile` node for node; shared
    logical subtrees (CTEs, optimizer DAGs) lower to shared delta nodes,
    and every scan of the same base table shares one :class:`DSource`
    (and thus one journal cursor).  Output schemas come from each
    node's own :meth:`~repro.relalg.query.PlanNode.derive_schema`.

    This walk is also the lowerability analysis: a refusal names its
    rule at the raise site and :meth:`lower` records where it happened,
    so ``repro analyze`` asks this code rather than a copy of it."""

    def __init__(self) -> None:
        self.memo: dict[int, tuple[DeltaNode, Schema]] = {}
        self.table_sources: dict[int, DSource] = {}
        self.order: list[DeltaNode] = []
        self.parents: dict[int, list[tuple[DeltaNode, int]]] = {}
        self._path: list[str] = []

    def wire(self, node: DeltaNode, children: Sequence[DeltaNode]) -> DeltaNode:
        for port, child in enumerate(children):
            self.parents.setdefault(id(child), []).append((node, port))
        self.order.append(node)
        return node

    def lower(self, node: PlanNode) -> tuple[DeltaNode, Schema]:
        done = self.memo.get(id(node))
        if done is not None:
            return done
        self._path.append(node._describe())
        try:
            lowered = self._lower(node)
        except Exception as error:
            # Record the root-to-operator path once (the innermost frame
            # sees the full stack) on whatever was raised — a refusal or
            # a failed column resolution alike — so the backend's
            # rejection message names the offending operator in place.
            if getattr(error, "operator_path", None) is None:
                error.operator_path = tuple(self._path)
            raise
        finally:
            self._path.pop()
        self.memo[id(node)] = lowered
        return lowered

    def _lower(self, node: PlanNode) -> tuple[DeltaNode, Schema]:
        if isinstance(node, SourceNode):
            schema = node.derive_schema()
            if isinstance(node.source, Table):
                source = self.table_sources.get(id(node.source))
                if source is None:
                    source = DSource(node.source)
                    self.table_sources[id(node.source)] = source
                    self.order.append(source)
                return source, schema
            static = DStatic(node.source, schema)
            self.order.append(static)
            return static, schema
        if isinstance(node, _AliasNode):
            child, schema = self.lower(node.child)
            out = node.derive_schema(schema)
            return self.wire(DIdentity(out), [child]), out
        if isinstance(node, CTENode):
            # Transparent: sharing is structural (memoized children).
            return self.lower(node.child)
        if isinstance(node, FilterNode):
            child, schema = self.lower(node.child)
            test = compile_expr(node.predicate, schema, predicate=True)
            return self.wire(DFilter(schema, test), [child]), schema
        if isinstance(node, ProjectNode):
            child, schema = self.lower(node.child)
            positions = [schema.resolve(*_split(c)) for c in node.columns]
            out = node.derive_schema(schema)
            if positions == list(range(schema.arity)):
                # Keeps every column in place: the rows pass through.
                return self.wire(DIdentity(out), [child]), out
            return self.wire(DProject(out, positions), [child]), out
        if isinstance(node, ExtendNode):
            child, schema = self.lower(node.child)
            fn = compile_expr(node.expr, schema)
            out = node.derive_schema(schema)
            return self.wire(DExtend(out, fn), [child]), out
        if isinstance(node, DistinctNode):
            child, schema = self.lower(node.child)
            return self.wire(DDistinct(schema), [child]), schema
        if isinstance(node, OrderByNode):
            # The maintained result is an unordered multiset; ordering
            # is applied by consumers (the scheduler sorts dispatch
            # batches itself).  Keys are still resolved so invalid
            # queries are rejected exactly like the compiled path.
            child, schema = self.lower(node.child)
            resolve_sort_keys(schema, node.keys)
            return self.wire(DIdentity(schema), [child]), schema
        if isinstance(node, LimitNode):
            raise DeltaLoweringError(
                "LIMIT is order-dependent and has no delta lowering", "D101"
            )
        if isinstance(node, AggregateNode):
            child, schema = self.lower(node.child)
            group_pos = [schema.resolve(*_split(g)) for g in node.group_by]
            specs: list[tuple[str, Optional[int], str]] = []
            for fn_name, input_col, output_name in node.aggregations:
                if fn_name not in _AGGREGATES:
                    raise DeltaLoweringError(
                        f"unknown aggregate {fn_name!r}", "D104"
                    )
                if fn_name == "count" and input_col == "*":
                    pos: Optional[int] = None
                else:
                    pos = schema.resolve(*_split(input_col))
                specs.append((fn_name, pos, output_name))
            out = node.derive_schema(schema)
            return (
                self.wire(DAggregate(out, group_pos, specs), [child]),
                out,
            )
        if isinstance(node, SetOpNode):
            left, left_schema = self.lower(node.left)
            right, right_schema = self.lower(node.right)
            if left_schema.arity != right_schema.arity:
                raise DeltaLoweringError(
                    f"{node.kind}: arity mismatch {left_schema.arity} vs "
                    f"{right_schema.arity}",
                    "D105",
                )
            return (
                self.wire(DSetOp(left_schema, node.kind), [left, right]),
                left_schema,
            )
        if isinstance(node, JoinNode):
            return self._lower_join(node)
        from repro.relalg import sql as _sql

        if isinstance(node, _sql._UncorrelatedExistsNode):
            left, left_schema = self.lower(node.left)
            right, __ = self.lower(node.right)
            return (
                self.wire(
                    DUncorrelatedExists(left_schema, node.negated),
                    [left, right],
                ),
                left_schema,
            )
        raise DeltaLoweringError(
            f"no delta lowering for {type(node).__name__}", "D103"
        )

    def _lower_join(self, node: JoinNode) -> tuple[DeltaNode, Schema]:
        from repro.relalg.optimizer import split_join_predicate

        left, left_schema = self.lower(node.left)
        right, right_schema = self.lower(node.right)
        left_keys, right_keys, residual = split_join_predicate(
            node.predicate, left_schema, right_schema
        )
        left_pos = [left_schema.resolve(*_split(k)) for k in left_keys]
        right_pos = [right_schema.resolve(*_split(k)) for k in right_keys]
        # Predicates see both sides whatever the join kind; what the join
        # *emits* is the node's own business.
        combined = left_schema.concat(right_schema)
        out = node.derive_schema(left_schema, right_schema)
        residual_test = (
            compile_expr(residual, combined, predicate=True)
            if residual is not None
            else None
        )

        if node.how == "inner":
            if not left_pos and node.predicate is not None:
                residual_test = compile_expr(
                    node.predicate, combined, predicate=True
                )
            join = DInnerJoin(out, left_pos, right_pos, residual_test)
            return self.wire(join, [left, right]), out
        if node.how == "left":
            if not left_pos:
                raise DeltaLoweringError(
                    "left outer join requires at least one equality "
                    f"conjunct; got predicate {node.predicate!r}",
                    "D102",
                )
            join = DLeftJoin(
                out, left_pos, right_pos, residual_test, right_schema.arity
            )
            return self.wire(join, [left, right]), out
        if node.how == "semi":
            if left_pos and residual is None:
                semi = DSemiJoin(out, left_pos, right_pos)
                return self.wire(semi, [left, right]), out
            if node.predicate is None:
                raise DeltaLoweringError(
                    "semi join requires a predicate", "D102"
                )
            test = residual_test
            if not left_pos:
                test = compile_expr(node.predicate, combined, predicate=True)
            inner = self.wire(
                DInnerJoin(combined, left_pos, right_pos, test),
                [left, right],
            )
            prefix = self.wire(DPrefix(out), [inner])
            return self.wire(DDistinct(out), [prefix]), out
        # anti
        if left_pos and residual is None:
            anti: DeltaNode = DAntiKeyJoin(out, left_pos, right_pos)
            return self.wire(anti, [left, right]), out
        if left_pos:
            anti = DAntiResidualJoin(out, left_pos, right_pos, residual_test)
            return self.wire(anti, [left, right]), out
        if node.predicate is None:
            raise DeltaLoweringError(
                "anti join requires a predicate", "D102"
            )
        test = compile_expr(node.predicate, combined, predicate=True)
        anti = DAntiResidualJoin(out, [], [], test)
        return self.wire(anti, [left, right]), out


# -- the maintained plan ------------------------------------------------------


class DeltaPlan:
    """A query lowered once to delta operators, maintained many times.

    :meth:`refresh` pulls each base table's journal delta and propagates
    it through the operator DAG in topological order — O(|delta|) per
    step; it returns nothing, the maintained result is read with
    :meth:`rows` / :meth:`decoded_rows`.  The first
    refresh (and any refresh after a journal truncation or an
    impossible state transition) falls back to a full rebuild: every
    node's state is reset and the tables' current contents are replayed
    as one big insert delta — counted by ``Counter`` in C, then one
    ordinary propagate, the same operator code a step runs.
    """

    def __init__(self, root: PlanNode, optimize: bool = True) -> None:
        from repro.relalg.optimizer import optimize_plan
        from repro.relalg.plan import reduce_outer_joins

        self.logical = root
        if optimize:
            self.logical = reduce_outer_joins(optimize_plan(root))
        lowering = _Lowering()
        top, schema = lowering.lower(self.logical)
        self.schema = schema
        self.materialized = DMaterialize(schema)
        lowering.wire(self.materialized, [top])
        self.order = lowering.order
        self.parents = lowering.parents
        self.sources = [n for n in self.order if isinstance(n, DSource)]
        self.statics = [n for n in self.order if isinstance(n, DStatic)]
        self.node_count = len(self.order)
        self._initialized = False
        self.stats: dict[str, Any] = {
            "refreshes": 0,
            "rebuilds": 0,
            "inserts": 0,
            "retracts": 0,
            "maintain_s": 0.0,
            "operator_s": {},
        }
        self.last: dict[str, Any] = {}

    # -- maintenance ------------------------------------------------------

    def refresh(self) -> None:
        started = perf_counter()
        last: dict[str, Any] = {
            "inserts": 0,
            "retracts": 0,
            "rebuild": False,
        }
        step_ops: dict[str, float] = {}
        rebuild = not self._initialized
        pulled: list[tuple[DSource, list[tuple[bool, tuple]]]] = []
        for source in self.sources:
            entries = source.cursor.take()
            if entries is None:
                rebuild = True
            else:
                pulled.append((source, entries))
        if rebuild:
            self._rebuild(step_ops)
            last["rebuild"] = True
        else:
            initial: dict[int, Delta] = {}
            inserts = retracts = 0
            for source, entries in pulled:
                if not entries:
                    continue
                delta: Delta = {}
                for added, row in entries:
                    if added:
                        inserts += 1
                        _merge(delta, row, 1)
                    else:
                        retracts += 1
                        _merge(delta, row, -1)
                if delta:
                    initial[id(source)] = delta
            last["inserts"] = inserts
            last["retracts"] = retracts
            if initial:
                try:
                    self._propagate(initial, seed=False, op_s=step_ops)
                except DeltaStateError:
                    self._rebuild(step_ops)
                    last["rebuild"] = True
        elapsed = perf_counter() - started
        stats = self.stats
        stats["refreshes"] += 1
        stats["inserts"] += last["inserts"]
        stats["retracts"] += last["retracts"]
        stats["maintain_s"] += elapsed
        cumulative = stats["operator_s"]
        for label, seconds in step_ops.items():
            cumulative[label] = cumulative.get(label, 0.0) + seconds
        last["maintain_s"] = elapsed
        last["operator_s"] = step_ops
        self.last = last

    def _rebuild(self, op_s: Optional[dict[str, float]] = None) -> None:
        self.stats["rebuilds"] += 1
        for node in self.order:
            node.reset()
        initial: dict[int, Delta] = {}
        for source in self.sources:
            if source.table.rows:
                initial[id(source)] = Counter(source.table.rows)
        for static in self.statics:
            content = static.content_delta()
            if content:
                initial[id(static)] = content
        self._propagate(
            initial, seed=True, op_s=op_s if op_s is not None else {}
        )
        self._initialized = True

    def _propagate(
        self, initial: dict[int, Delta], seed: bool, op_s: dict[str, float]
    ) -> None:
        pending: dict[int, list[Optional[Delta]]] = {}
        parents = self.parents
        operator_s = op_s

        def route(node: DeltaNode, delta: Delta) -> None:
            for parent, port in parents.get(id(node), ()):
                slots = pending.get(id(parent))
                if slots is None:
                    slots = pending[id(parent)] = [None] * max(
                        parent.arity, 1
                    )
                slot = slots[port]
                if slot is None:
                    # No operator mutates its inputs, so every parent
                    # port may hold the same dict; only a second delta
                    # for one port (a seed, then the output) copies.
                    slots[port] = delta
                else:
                    slot = slots[port] = dict(slot)
                    for row, c in delta.items():
                        _merge(slot, row, c)

        for node in self.order:
            if isinstance(node, (DSource, DStatic)):
                delta = initial.get(id(node))
                if delta:
                    route(node, delta)
                continue
            if seed:
                seeded = node.seed()
                if seeded:
                    route(node, seeded)
            slots = pending.pop(id(node), None)
            if slots is None:
                continue
            t0 = perf_counter()
            out = node.apply(slots)
            label = node.label
            operator_s[label] = (
                operator_s.get(label, 0.0) + perf_counter() - t0
            )
            if out:
                route(node, out)

    # -- reading ----------------------------------------------------------

    def rows(self) -> list[tuple]:
        return self.materialized.rows()

    def decode_with(self, decode: Callable[[tuple], Any]) -> None:
        """Attach the row decoder behind :meth:`decoded_rows`.

        Each decoded object is shared by every caller until its row
        leaves the result, so *decode* must build values that are safe
        to share (immutable) and never ``None``.
        """
        root = self.materialized
        root.decode = decode
        root.decoded = dict.fromkeys(root.out)
        root.entered = list(root.out)

    def decoded_rows(self) -> list:
        """The maintained result as decoded objects, in :meth:`rows`
        order: a fresh list of the shared objects."""
        return self.materialized.decoded_rows()

    def explain(self) -> str:
        lines = []
        for node in self.order:
            fanout = len(self.parents.get(id(node), ()))
            lines.append(f"{node.label}({node.schema.arity}) -> {fanout}")
        return "\n".join(lines)


def lower_delta_plan(
    root: "PlanNode | Query", optimize: bool = True
) -> DeltaPlan:
    """Lower a logical plan (or :class:`Query`) to a :class:`DeltaPlan`.

    Raises :class:`DeltaLoweringError` when any node has no incremental
    lowering — callers use this to *refuse* rather than silently fall
    back to recomputation."""
    if isinstance(root, Query):
        root = root.plan
    return DeltaPlan(root, optimize=optimize)
