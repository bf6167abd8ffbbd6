"""Heuristic plan optimization.

Two rewrites, both classical and both directly motivated by the paper's
claim that "optimization techniques from declarative query processing can
be used to improve scheduler performance without affecting the scheduler
specification" (Section 1):

* **Predicate pushdown** — filters sink below joins to whichever side
  covers their columns, shrinking hash-join inputs.
* **Equi-key extraction** — at join execution, equality conjuncts whose
  two sides resolve on opposite inputs become hash keys; the remainder
  evaluates as a residual filter.  This turns Listing 1's self-joins into
  linear-time hash joins instead of quadratic nested loops.
"""

from __future__ import annotations

from typing import Optional

from repro.relalg.expressions import (
    And,
    ColumnRef,
    Compare,
    Expr,
    and_,
    split_conjuncts,
)
from repro.relalg.query import (
    FilterNode,
    JoinNode,
    PlanNode,
)
from repro.relalg.schema import Schema


def _covers(schema: Schema, expr: Expr) -> bool:
    """True when every column the expression references resolves
    unambiguously in *schema*."""
    refs = expr.referenced_columns()
    if not refs:
        return True
    return all(schema.has(name, qualifier) for qualifier, name in refs)


def split_join_predicate(
    predicate: Optional[Expr],
    left_schema: Schema,
    right_schema: Schema,
) -> tuple[list[str], list[str], Optional[Expr]]:
    """Split a join predicate into hash keys plus residual.

    Returns ``(left_keys, right_keys, residual)`` where keys are
    qualified column names usable by the hash-join operators.  An
    equality conjunct ``a = b`` qualifies when one side's columns resolve
    only on the left input and the other side's only on the right.
    """
    if predicate is None:
        return [], [], None
    left_keys: list[str] = []
    right_keys: list[str] = []
    residual: list[Expr] = []
    for conjunct in split_conjuncts(predicate):
        pair = _equi_pair(conjunct, left_schema, right_schema)
        if pair is not None:
            left_keys.append(pair[0])
            right_keys.append(pair[1])
        else:
            residual.append(conjunct)
    residual_expr = and_(*residual) if residual else None
    return left_keys, right_keys, residual_expr


def _equi_pair(
    conjunct: Expr, left_schema: Schema, right_schema: Schema
) -> Optional[tuple[str, str]]:
    if not isinstance(conjunct, Compare) or conjunct.symbol != "=":
        return None
    lhs, rhs = conjunct.left, conjunct.right
    if not isinstance(lhs, ColumnRef) or not isinstance(rhs, ColumnRef):
        return None
    lhs_name = _qualified(lhs)
    rhs_name = _qualified(rhs)
    lhs_on_left = _resolves_only(left_schema, right_schema, lhs)
    rhs_on_left = _resolves_only(left_schema, right_schema, rhs)
    if lhs_on_left is True and rhs_on_left is False:
        return lhs_name, rhs_name
    if lhs_on_left is False and rhs_on_left is True:
        return rhs_name, lhs_name
    return None


def _qualified(ref: ColumnRef) -> str:
    return f"{ref.qualifier}.{ref.name}" if ref.qualifier else ref.name


def _resolves_only(
    left_schema: Schema, right_schema: Schema, ref: ColumnRef
) -> Optional[bool]:
    """True if ref resolves only on the left, False if only on the right,
    None if ambiguous/unresolvable."""
    on_left = _resolvable(left_schema, ref)
    on_right = _resolvable(right_schema, ref)
    if on_left and not on_right:
        return True
    if on_right and not on_left:
        return False
    return None


def _resolvable(schema: Schema, ref: ColumnRef) -> bool:
    return schema.has(ref.name, ref.qualifier)


def optimize_plan(plan: PlanNode) -> PlanNode:
    """Apply pushdown rewrites bottom-up.  The plan is treated as
    immutable; rewritten nodes are fresh objects.

    The traversal memoizes by node identity, so plans that are DAGs —
    a :class:`~repro.relalg.query.CTENode` referenced from several
    parents — keep the shared node shared in the rewritten plan (the
    compiled execution path relies on that identity to compute each CTE
    once per step)."""
    return _push_filters(plan, {})


def _push_filters(node: PlanNode, memo: dict[int, PlanNode]) -> PlanNode:
    done = memo.get(id(node))
    if done is not None:
        return done
    original = node
    # Recurse first so child subtrees are already optimized.
    node = _rebuild_with_children(
        node, [_push_filters(c, memo) for c in node.children()]
    )

    if isinstance(node, FilterNode) and isinstance(node.child, JoinNode):
        join = node.child
        if join.how in ("inner",):
            left_schema = join.left.output_schema()
            right_schema = join.right.output_schema()
            to_left: list[Expr] = []
            to_right: list[Expr] = []
            spanning: list[Expr] = []
            for conjunct in split_conjuncts(node.predicate):
                if _covers(left_schema, conjunct):
                    to_left.append(conjunct)
                elif _covers(right_schema, conjunct):
                    to_right.append(conjunct)
                else:
                    spanning.append(conjunct)
            if to_left or to_right or spanning:
                new_left = (
                    FilterNode(join.left, and_(*to_left)) if to_left else join.left
                )
                new_right = (
                    FilterNode(join.right, and_(*to_right)) if to_right else join.right
                )
                # Conjuncts spanning both sides merge into the join
                # predicate — this is what turns SQL's comma-join +
                # WHERE (a cross product under a filter) into a hash
                # join at execution time.
                merged = (
                    and_(join.predicate, *spanning)
                    if join.predicate is not None
                    else and_(*spanning)
                    if spanning
                    else None
                )
                node = JoinNode(new_left, new_right, merged, join.how)
                memo[id(original)] = node
                return node
    if isinstance(node, FilterNode) and isinstance(node.child, FilterNode):
        # Merge stacked filters into one conjunction.
        inner = node.child
        node = FilterNode(inner.child, and_(node.predicate, inner.predicate))
    memo[id(original)] = node
    return node


def _rebuild_with_children(node: PlanNode, new_children: list[PlanNode]) -> PlanNode:
    """Return a copy of *node* with children replaced (shallow rebuild)."""
    old_children = node.children()
    if not old_children or all(a is b for a, b in zip(old_children, new_children)):
        return node
    clone = object.__new__(type(node))
    clone.__dict__.update(getattr(node, "__dict__", {}))
    clone.__dict__.pop("_schema", None)  # derived from the old children
    # Nodes keep children in well-known attribute names.
    if hasattr(node, "child"):
        clone.child = new_children[0]
    if hasattr(node, "left"):
        clone.left = new_children[0]
        clone.right = new_children[1]
    return clone
