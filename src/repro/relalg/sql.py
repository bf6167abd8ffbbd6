"""A SQL frontend for the relational-algebra engine.

Answers the paper's research question 1 — "To what extent can existing
query languages be used to capture typical constraints on request
schedules?" — operationally: the paper's Listing 1 SQL text parses and
executes *on this repository's own engine* (the ``sqlfront`` backend,
:mod:`repro.backends.sqlfront`), cross-checked against sqlite3.

Supported subset (everything Listing 1 and typical scheduling rules
need)::

    statement   := [WITH name AS (select) {, name AS (select)}] set_expr
                   [ORDER BY order_item {, order_item}]
    set_expr    := term {(UNION [ALL] | EXCEPT | INTERSECT) term}
    term        := select_core | "(" set_expr ")"
    select_core := SELECT [DISTINCT] select_item {, select_item}
                   FROM from_item {, from_item}
                   {LEFT [OUTER] JOIN from_item ON predicate}
                   [WHERE predicate]
    select_item := * | alias.* | expr [AS name]
    from_item   := table_name [AS] [alias] | "(" set_expr ")" [AS] alias
    predicate   := disjunctions/conjunctions of comparisons,
                   [NOT] EXISTS (select), expr IS [NOT] NULL, parentheses

Notable planning choices:

* ``NOT EXISTS`` subqueries are **decorrelated**: a top-level OR inside
  the subquery's WHERE splits into multiple anti-joins
  (``NOT EXISTS(P1 OR P2) = NOT EXISTS(P1) AND NOT EXISTS(P2)``), and
  each anti-join's equality conjuncts become hash keys — so Listing 1's
  ``RLockedObjects`` runs in linear, not quadratic, time.
* Comma-separated FROM items become cross joins whose predicates the
  optimizer then pushes down / converts to hash joins.

Identifiers are case-insensitive for keywords; table/column names keep
their case.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, Union

from repro.relalg.expressions import (
    And,
    ColumnRef,
    Expr,
    IsNull,
    Literal,
    Not,
    Or,
    and_,
    col,
    lit,
    or_,
    split_conjuncts,
)
from repro.relalg.query import (
    CTENode,
    DistinctNode,
    FilterNode,
    JoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    Query,
    SetOpNode,
    SourceNode,
    _AliasNode,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import Column, Schema
from repro.relalg.table import Table


class SqlError(Exception):
    """Raised for syntax errors and unsupported constructs."""


# -- lexer ---------------------------------------------------------------------

_KEYWORDS = {
    "select", "distinct", "from", "where", "with", "as", "and", "or",
    "not", "exists", "left", "outer", "join", "on", "union", "all",
    "except", "intersect", "is", "null", "order", "by", "asc", "desc",
    "in",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>--[^\n]*)
  | (?P<NUMBER>\d+\.\d+|\d+)
  | (?P<STRING>'(?:[^']|'')*')
  | (?P<OP><>|!=|<=|>=|=|<|>)
  | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<COMMA>,) | (?P<DOT>\.) | (?P<STAR>\*) | (?P<SEMI>;)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise SqlError(f"unexpected character {source[pos]!r} at {pos}")
        kind = match.lastgroup or ""
        text = match.group()
        if kind == "IDENT" and text.lower() in _KEYWORDS:
            tokens.append(_Token("KW", text.lower(), pos))
        elif kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, text, pos))
        pos = match.end()
    tokens.append(_Token("EOF", "", pos))
    return tokens


# -- AST -----------------------------------------------------------------------


class _SelectItem:
    """* | alias.* | expr [AS name]"""

    __slots__ = ("star_qualifier", "is_star", "expr", "alias")

    def __init__(self, is_star=False, star_qualifier=None, expr=None, alias=None):
        self.is_star = is_star
        self.star_qualifier = star_qualifier
        self.expr = expr
        self.alias = alias


class _FromItem:
    __slots__ = ("table", "subquery", "alias")

    def __init__(self, table=None, subquery=None, alias=None):
        self.table = table
        self.subquery = subquery
        self.alias = alias


class _Exists(Expr):
    """EXISTS/NOT EXISTS marker inside a predicate tree.

    Only valid as a top-level WHERE conjunct; the planner rejects other
    positions.  ``bind`` is never called (the planner removes these
    before any binding happens).
    """

    def __init__(self, subquery: "_SelectCore", negated: bool) -> None:
        self.subquery = subquery
        self.negated = negated

    def bind(self, schema):  # pragma: no cover - planner removes these
        raise SqlError("EXISTS is only supported as a top-level conjunct")

    def referenced_columns(self):
        return set()


class _SelectCore:
    __slots__ = (
        "distinct", "items", "from_items", "left_joins", "where",
    )

    def __init__(self):
        self.distinct = False
        self.items: list[_SelectItem] = []
        self.from_items: list[_FromItem] = []
        self.left_joins: list[tuple[_FromItem, Expr]] = []
        self.where: Optional[Expr] = None


class _SetExpr:
    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        self.left = left
        self.op = op  # "union" | "union_all" | "except" | "intersect"
        self.right = right


class _Statement:
    __slots__ = ("ctes", "body", "order_by")

    def __init__(self):
        self.ctes: list[tuple[str, object]] = []
        self.body = None
        self.order_by: list[tuple[str, bool]] = []


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str) -> None:
        self._tokens = _tokenize(source)
        self._pos = 0

    @property
    def _cur(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._cur
        self._pos += 1
        return token

    def _accept_kw(self, *words: str) -> Optional[str]:
        if self._cur.kind == "KW" and self._cur.text in words:
            return self._advance().text
        return None

    def _expect_kw(self, word: str) -> None:
        if not self._accept_kw(word):
            raise SqlError(f"expected {word.upper()}, found {self._cur.text!r}")

    def _expect(self, kind: str) -> _Token:
        if self._cur.kind != kind:
            raise SqlError(f"expected {kind}, found {self._cur.text!r}")
        return self._advance()

    # statement := [WITH ...] set_expr [ORDER BY ...]
    def statement(self) -> _Statement:
        stmt = _Statement()
        if self._accept_kw("with"):
            while True:
                name = self._expect("IDENT").text
                self._expect_kw("as")
                self._expect("LPAREN")
                stmt.ctes.append((name, self.set_expr()))
                self._expect("RPAREN")
                if self._cur.kind != "COMMA":
                    break
                self._advance()
        stmt.body = self.set_expr()
        if self._accept_kw("order"):
            self._expect_kw("by")
            while True:
                name = self._column_name()
                descending = False
                if self._accept_kw("desc"):
                    descending = True
                else:
                    self._accept_kw("asc")
                stmt.order_by.append((name, descending))
                if self._cur.kind != "COMMA":
                    break
                self._advance()
        if self._cur.kind == "SEMI":
            self._advance()
        if self._cur.kind != "EOF":
            raise SqlError(f"unexpected trailing input {self._cur.text!r}")
        return stmt

    def _column_name(self) -> str:
        name = self._expect("IDENT").text
        if self._cur.kind == "DOT":
            self._advance()
            name = f"{name}.{self._expect('IDENT').text}"
        return name

    # set_expr := term {(UNION [ALL]|EXCEPT|INTERSECT) term}
    def set_expr(self):
        left = self.term()
        while True:
            if self._accept_kw("union"):
                op = "union_all" if self._accept_kw("all") else "union"
            elif self._accept_kw("except"):
                op = "except"
            elif self._accept_kw("intersect"):
                op = "intersect"
            else:
                return left
            left = _SetExpr(left, op, self.term())

    def term(self):
        if self._cur.kind == "LPAREN":
            self._advance()
            inner = self.set_expr()
            self._expect("RPAREN")
            return inner
        return self.select_core()

    def select_core(self) -> _SelectCore:
        core = _SelectCore()
        self._expect_kw("select")
        core.distinct = bool(self._accept_kw("distinct"))
        core.items.append(self.select_item())
        while self._cur.kind == "COMMA":
            self._advance()
            core.items.append(self.select_item())
        self._expect_kw("from")
        core.from_items.append(self.from_item())
        while True:
            if self._cur.kind == "COMMA":
                self._advance()
                core.from_items.append(self.from_item())
            elif self._accept_kw("left"):
                self._accept_kw("outer")
                self._expect_kw("join")
                item = self.from_item()
                self._expect_kw("on")
                core.left_joins.append((item, self.predicate()))
            else:
                break
        if self._accept_kw("where"):
            core.where = self.predicate()
        return core

    def select_item(self) -> _SelectItem:
        if self._cur.kind == "STAR":
            self._advance()
            return _SelectItem(is_star=True)
        # alias.* needs two-token lookahead.
        if (
            self._cur.kind == "IDENT"
            and self._tokens[self._pos + 1].kind == "DOT"
            and self._tokens[self._pos + 2].kind == "STAR"
        ):
            qualifier = self._advance().text
            self._advance()  # DOT
            self._advance()  # STAR
            return _SelectItem(is_star=True, star_qualifier=qualifier)
        expr = self.expression()
        alias = None
        if self._accept_kw("as"):
            alias = self._expect("IDENT").text
        elif self._cur.kind == "IDENT":
            alias = self._advance().text
        return _SelectItem(expr=expr, alias=alias)

    def from_item(self) -> _FromItem:
        if self._cur.kind == "LPAREN":
            self._advance()
            subquery = self.set_expr()
            self._expect("RPAREN")
            self._accept_kw("as")
            alias = self._expect("IDENT").text
            return _FromItem(subquery=subquery, alias=alias)
        table = self._expect("IDENT").text
        alias = None
        if self._accept_kw("as"):
            alias = self._expect("IDENT").text
        elif self._cur.kind == "IDENT":
            alias = self._advance().text
        return _FromItem(table=table, alias=alias)

    # predicate grammar: or_expr
    def predicate(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        parts = [self._and_expr()]
        while self._accept_kw("or"):
            parts.append(self._and_expr())
        return or_(*parts)

    def _and_expr(self) -> Expr:
        parts = [self._not_expr()]
        while self._accept_kw("and"):
            parts.append(self._not_expr())
        return and_(*parts)

    def _not_expr(self) -> Expr:
        if self._accept_kw("not"):
            if self._accept_kw("exists"):
                return self._exists(negated=True)
            return Not(self._not_expr())
        if self._accept_kw("exists"):
            return self._exists(negated=False)
        return self._comparison()

    def _exists(self, negated: bool) -> Expr:
        self._expect("LPAREN")
        subquery = self.set_expr()
        self._expect("RPAREN")
        if not isinstance(subquery, _SelectCore):
            raise SqlError("EXISTS subquery must be a simple SELECT")
        return _Exists(subquery, negated)

    def _comparison(self) -> Expr:
        if self._cur.kind == "LPAREN":
            # Could be a parenthesized predicate; parse and return.
            self._advance()
            inner = self.predicate()
            self._expect("RPAREN")
            return inner
        left = self.expression()
        if self._accept_kw("is"):
            negated = bool(self._accept_kw("not"))
            self._expect_kw("null")
            check: Expr = IsNull(left)
            return Not(check) if negated else check
        if self._cur.kind != "OP":
            raise SqlError(
                f"expected a comparison operator, found {self._cur.text!r}"
            )
        op = self._advance().text
        right = self.expression()
        mapping = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        return mapping[op](left, right)

    def expression(self) -> Expr:
        token = self._cur
        if token.kind == "NUMBER":
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return lit(value)
        if token.kind == "STRING":
            self._advance()
            return lit(token.text[1:-1].replace("''", "'"))
        if token.kind == "IDENT":
            return col(self._column_name())
        raise SqlError(f"expected an expression, found {token.text!r}")


# -- planner --------------------------------------------------------------------


class SqlPlanner:
    """Plans parsed SQL against a catalog of tables/relations."""

    def __init__(self, catalog: dict[str, Union[Table, Relation]]) -> None:
        self._catalog = dict(catalog)

    def plan(self, source: str, defer_ctes: bool = False) -> PlanNode:
        """Parse and plan *source*.

        With ``defer_ctes=False`` (default) CTEs are materialized
        eagerly — they are referenced several times in Listing 1, and
        for one-shot interpreted execution sharing beats re-planning.
        With ``defer_ctes=True`` each CTE becomes a shared
        :class:`CTENode` instead, yielding a fully deferred plan that
        reads the catalog's *live* tables — the form
        :class:`~repro.relalg.plan.CompiledPlan` caches across
        scheduler steps (the compiled path computes each shared CTE
        once per execution).
        """
        from repro.relalg.optimizer import optimize_plan

        statement = _Parser(source).statement()
        scope = dict(self._catalog)
        for name, body in statement.ctes:
            if defer_ctes:
                scope[name] = CTENode(
                    _UnqualifyNode(self._plan_set_expr(body, scope)), name
                )
                continue
            cte_plan = optimize_plan(self._plan_set_expr(body, scope))
            relation = cte_plan.execute()
            scope[name] = Relation(relation.schema.unqualified(), relation.rows)
        order_by = statement.order_by
        if order_by and isinstance(statement.body, _SelectCore):
            # SQL permits ordering by source columns dropped from the
            # SELECT list; sort before the projection in that case.
            plan = self._plan_select(
                statement.body, scope, order_by=order_by
            )
            return plan
        plan = self._plan_set_expr(statement.body, scope)
        if order_by:
            plan = OrderByNode(plan, order_by)
        return plan

    def execute(self, source: str, optimize: bool = True) -> Relation:
        from repro.relalg.optimizer import optimize_plan

        plan = self.plan(source)
        if optimize:
            plan = optimize_plan(plan)
        return plan.execute()

    # -- internals ---------------------------------------------------------

    def _plan_set_expr(self, node, scope) -> PlanNode:
        if isinstance(node, _SetExpr):
            return SetOpNode(
                node.op,
                self._plan_set_expr(node.left, scope),
                self._plan_set_expr(node.right, scope),
            )
        if isinstance(node, _SelectCore):
            return self._plan_select(node, scope)
        raise SqlError(f"cannot plan {node!r}")  # pragma: no cover

    def _source(self, item: _FromItem, scope) -> PlanNode:
        if item.subquery is not None:
            inner = self._plan_set_expr(item.subquery, scope)
            return _AliasNode(_UnqualifyNode(inner), item.alias)
        try:
            source = scope[item.table]
        except KeyError:
            raise SqlError(f"unknown table {item.table!r}") from None
        if isinstance(source, PlanNode):  # deferred CTE reference
            return _AliasNode(source, item.alias) if item.alias else source
        return SourceNode(source, item.alias)

    def _plan_select(
        self,
        core: _SelectCore,
        scope,
        order_by: Optional[list[tuple[str, bool]]] = None,
    ) -> PlanNode:
        plan = self._source(core.from_items[0], scope)
        for item in core.from_items[1:]:
            plan = JoinNode(plan, self._source(item, scope), None, "inner")
        for item, on_predicate in core.left_joins:
            plan = JoinNode(
                plan, self._source(item, scope), on_predicate, "left"
            )

        if core.where is not None:
            plain: list[Expr] = []
            exists_items: list[_Exists] = []
            for conjunct in split_conjuncts(core.where):
                if isinstance(conjunct, _Exists):
                    exists_items.append(conjunct)
                elif _contains_exists(conjunct):
                    raise SqlError(
                        "EXISTS is only supported as a top-level conjunct"
                    )
                else:
                    plain.append(conjunct)
            if plain:
                plan = FilterNode(plan, and_(*plain))
            for exists in exists_items:
                plan = self._plan_exists(plan, exists, scope)

        if order_by:
            # Sorting before the projection keeps dropped source columns
            # available as sort keys; projection preserves row order.
            plan = OrderByNode(plan, order_by)
        plan = self._plan_projection(plan, core)
        if core.distinct:
            plan = DistinctNode(plan)
        return plan

    def _plan_exists(self, plan: PlanNode, exists: _Exists, scope) -> PlanNode:
        sub = exists.subquery
        if sub.left_joins or len(sub.from_items) != 1:
            raise SqlError(
                "EXISTS subqueries must have a single FROM item"
            )
        right = self._source(sub.from_items[0], scope)
        right_schema = right.output_schema()
        predicate = sub.where if sub.where is not None else Literal(True)
        if _contains_exists(predicate):
            raise SqlError("nested EXISTS is not supported")

        how = "anti" if exists.negated else "semi"
        if exists.negated and isinstance(predicate, Or):
            # NOT EXISTS(P1 OR P2) == NOT EXISTS(P1) AND NOT EXISTS(P2):
            # each disjunct becomes its own (hash-friendly) anti-join.
            for disjunct in predicate.parts:
                plan = self._one_exists_join(
                    plan, right, right_schema, disjunct, "anti"
                )
            return plan
        return self._one_exists_join(plan, right, right_schema, predicate, how)

    def _one_exists_join(
        self, plan, right, right_schema, predicate, how
    ) -> PlanNode:
        from repro.relalg.optimizer import _covers

        right_only: list[Expr] = []
        joined: list[Expr] = []
        for conjunct in split_conjuncts(predicate):
            if _covers(right_schema, conjunct):
                right_only.append(conjunct)
            else:
                joined.append(conjunct)
        right_plan = (
            FilterNode(right, and_(*right_only)) if right_only else right
        )
        join_predicate = and_(*joined) if joined else Literal(True)
        if not joined:
            # Uncorrelated EXISTS: degenerate but legal — keep left rows
            # iff the (filtered) right side is non-empty.
            return _UncorrelatedExistsNode(
                plan, right_plan, negated=(how == "anti")
            )
        return JoinNode(plan, right_plan, join_predicate, how)

    def _plan_projection(self, plan: PlanNode, core: _SelectCore) -> PlanNode:
        schema = plan.output_schema()
        columns: list[str] = []
        renames: list[Optional[str]] = []
        for item in core.items:
            if item.is_star:
                for column in schema:
                    if (
                        item.star_qualifier is None
                        or column.qualifier == item.star_qualifier
                    ):
                        columns.append(column.qualified_name)
                        renames.append(None)
                continue
            if not isinstance(item.expr, ColumnRef):
                raise SqlError(
                    "only column references are supported in SELECT lists"
                )
            ref = item.expr
            name = f"{ref.qualifier}.{ref.name}" if ref.qualifier else ref.name
            columns.append(name)
            renames.append(item.alias)
        project = ProjectNode(plan, columns)
        if any(renames):
            return _RenameColumnsNode(project, renames)
        return project


def _contains_exists(expr: Expr) -> bool:
    if isinstance(expr, _Exists):
        return True
    for attr in ("parts",):
        for child in getattr(expr, attr, ()):
            if _contains_exists(child):
                return True
    for attr in ("inner", "left", "right"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr) and _contains_exists(child):
            return True
    return False


class _UnqualifyNode(PlanNode):
    """Strips qualifiers so a subquery can be re-aliased cleanly."""

    def __init__(self, child: PlanNode) -> None:
        self.child = child

    def derive_schema(self, child: Schema) -> Schema:
        return child.unqualified()

    def execute(self) -> Relation:
        relation = self.child.execute()
        return Relation(self.derive_schema(relation.schema), relation.rows)

    def children(self):
        return [self.child]


class _RenameColumnsNode(PlanNode):
    """Applies SELECT-list aliases (``expr AS name``)."""

    def __init__(self, child: PlanNode, renames: Sequence[Optional[str]]) -> None:
        self.child = child
        self.renames = list(renames)

    def derive_schema(self, child: Schema) -> Schema:
        return Schema(
            [
                Column(new_name) if new_name else column
                for column, new_name in zip(child.columns, self.renames)
            ]
        )

    def execute(self) -> Relation:
        relation = self.child.execute()
        return Relation(self.derive_schema(relation.schema), relation.rows)

    def children(self):
        return [self.child]


class _UncorrelatedExistsNode(PlanNode):
    """(NOT) EXISTS with no correlation: all-or-nothing filter."""

    def __init__(self, left: PlanNode, right: PlanNode, negated: bool) -> None:
        self.left = left
        self.right = right
        self.negated = negated

    def derive_schema(self, left: Schema, right: Schema) -> Schema:
        return left

    def execute(self) -> Relation:
        left = self.left.execute()
        right_nonempty = bool(self.right.execute().rows)
        keep = right_nonempty != self.negated
        return left if keep else Relation.empty(left.schema)

    def children(self):
        return [self.left, self.right]


def execute_sql(
    source: str, tables: dict[str, Union[Table, Relation]]
) -> Relation:
    """One-shot convenience: parse, plan and execute *source*."""
    return SqlPlanner(tables).execute(source)
