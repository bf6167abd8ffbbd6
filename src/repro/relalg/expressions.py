"""Scalar expression language for selections, projections and joins.

Expressions form a small tree (column references, literals, comparisons,
boolean connectives, arithmetic) that *binds* against a schema once and
then evaluates per row as a plain closure — binding resolves column names
to tuple positions ahead of time, so the per-row cost is a few indexed
loads, which matters because the declarative-overhead experiment times
query evaluation.

SQL's three-valued NULL logic is simplified to Python's two-valued logic
with ``None`` propagation in comparisons: any comparison against ``None``
is False (matching how the paper's Listing 1 uses ``IS NULL`` explicitly
where NULL handling matters — we provide :func:`is_null` for that).

Two evaluation strategies share one tree:

* :meth:`Expr.bind` — the interpreted path: each node closes over its
  children's bound functions, so evaluation walks a closure tree per row.
* :func:`compile_expr` — the compiled path: the tree is rendered once to
  Python source (a single function body with no per-node calls) and
  ``compile()``d, so the per-row cost is one function call.  Plan
  compilation (:mod:`repro.relalg.plan`) uses this for every hot
  predicate.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Optional, Sequence

from repro.relalg.schema import Schema

#: A bound expression: a function from row-tuple to value.
Bound = Callable[[tuple], Any]


class _CannotCompile(Exception):
    """Internal: node has no source form; fall back to bind()."""


class _Emitter:
    """Codegen context: schema for column resolution, an environment of
    hoisted constants/functions, and a counter for fresh names."""

    __slots__ = ("schema", "env", "_counter")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.env: dict[str, Any] = {}
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def const(self, value: Any) -> str:
        """Hoist a value into the compiled function's globals; inline
        literals with a safe, round-trippable repr."""
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return repr(value)
        name = self.fresh("c")
        self.env[name] = value
        return name


class Expr:
    """Base class of expression nodes.

    Subclasses implement :meth:`bind`; Python operators are overloaded to
    build comparison/arithmetic/boolean nodes so protocol code reads close
    to SQL: ``col("r.ta") != col("wlo.ta")``.
    """

    def bind(self, schema: Schema) -> Bound:
        raise NotImplementedError

    def emit(self, ctx: _Emitter) -> str:
        """Python source fragment computing this node's *value* over a
        row named ``_row`` — see :func:`compile_expr`.  Nodes without a
        source form raise :class:`_CannotCompile` (the compiler then
        falls back to :meth:`bind`)."""
        raise _CannotCompile(type(self).__name__)

    def emit_truth(self, ctx: _Emitter) -> str:
        """Like :meth:`emit` but only the fragment's *truthiness* is
        observed (filter position) — lets AND/OR skip bool() wrapping."""
        return self.emit(ctx)

    def referenced_columns(self) -> set[tuple[Optional[str], str]]:
        """Set of (qualifier, name) pairs referenced by the expression —
        used by the optimizer for predicate pushdown."""
        return set()

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return Compare(operator.eq, "=", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Compare(operator.ne, "<>", self, _wrap(other))

    def __lt__(self, other):
        return Compare(operator.lt, "<", self, _wrap(other))

    def __le__(self, other):
        return Compare(operator.le, "<=", self, _wrap(other))

    def __gt__(self, other):
        return Compare(operator.gt, ">", self, _wrap(other))

    def __ge__(self, other):
        return Compare(operator.ge, ">=", self, _wrap(other))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return Arith(operator.add, "+", self, _wrap(other))

    def __sub__(self, other):
        return Arith(operator.sub, "-", self, _wrap(other))

    def __mul__(self, other):
        return Arith(operator.mul, "*", self, _wrap(other))

    # -- boolean ----------------------------------------------------------

    def __and__(self, other):
        return And([self, _wrap(other)])

    def __or__(self, other):
        return Or([self, _wrap(other)])

    def __invert__(self):
        return Not(self)

    def __hash__(self) -> int:
        return id(self)

    def in_(self, values: Sequence[Any]) -> "Expr":
        return InSet(self, frozenset(values))


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Literal(value)


#: operator-module callables with a Python infix spelling (codegen).
_PY_INFIX: dict[Callable, str] = {
    operator.eq: "==",
    operator.ne: "!=",
    operator.lt: "<",
    operator.le: "<=",
    operator.gt: ">",
    operator.ge: ">=",
    operator.add: "+",
    operator.sub: "-",
    operator.mul: "*",
}


def _null_guarded(expr: Expr, ctx: _Emitter) -> tuple[str, Optional[str]]:
    """Emit *expr* as ``(value_src, guard_src)``.

    ``guard_src`` is a fragment that is truthy iff the operand is
    non-None; it must be evaluated before ``value_src`` is referenced
    (walrus temporaries make complex operands single-evaluation).  A
    guard of ``None`` means the operand is statically non-None.
    """
    if isinstance(expr, Literal):
        if expr.value is None:
            return "None", "False"
        return ctx.const(expr.value), None
    src = expr.emit(ctx)
    if isinstance(expr, ColumnRef):
        return src, f"{src} is not None"
    temp = ctx.fresh("t")
    return temp, f"({temp} := {src}) is not None"


class ColumnRef(Expr):
    """Reference to a column, optionally qualified: ``col("r.ta")``."""

    __slots__ = ("qualifier", "name")

    def __init__(self, name: str, qualifier: Optional[str] = None) -> None:
        if qualifier is None and "." in name:
            qualifier, name = name.split(".", 1)
        self.qualifier = qualifier
        self.name = name

    def bind(self, schema: Schema) -> Bound:
        pos = schema.resolve(self.name, self.qualifier)
        return operator.itemgetter(pos)

    def emit(self, ctx: _Emitter) -> str:
        pos = ctx.schema.resolve(self.name, self.qualifier)
        return f"_row[{pos}]"

    def referenced_columns(self) -> set[tuple[Optional[str], str]]:
        return {(self.qualifier, self.name)}

    def __repr__(self) -> str:
        if self.qualifier:
            return f"col({self.qualifier}.{self.name})"
        return f"col({self.name})"


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, schema: Schema) -> Bound:
        value = self.value
        return lambda row: value

    def emit(self, ctx: _Emitter) -> str:
        return ctx.const(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Compare(Expr):
    """Binary comparison with None propagation (NULL-safe: any comparison
    involving None is False, as in SQL's UNKNOWN treated as not-satisfied)."""

    __slots__ = ("op", "symbol", "left", "right")

    def __init__(self, op: Callable, symbol: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.symbol = symbol
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> Bound:
        lf, rf, op = self.left.bind(schema), self.right.bind(schema), self.op

        def run(row: tuple) -> bool:
            lv, rv = lf(row), rf(row)
            if lv is None or rv is None:
                return False
            return op(lv, rv)

        return run

    def emit(self, ctx: _Emitter) -> str:
        infix = _PY_INFIX.get(self.op)
        if infix is None:
            raise _CannotCompile(f"comparison op {self.op!r}")
        lval, lguard = _null_guarded(self.left, ctx)
        rval, rguard = _null_guarded(self.right, ctx)
        parts = [g for g in (lguard, rguard) if g is not None]
        parts.append(f"{lval} {infix} {rval}")
        return "(" + " and ".join(parts) + ")"

    def referenced_columns(self):
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Arith(Expr):
    __slots__ = ("op", "symbol", "left", "right")

    def __init__(self, op: Callable, symbol: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.symbol = symbol
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> Bound:
        lf, rf, op = self.left.bind(schema), self.right.bind(schema), self.op

        def run(row: tuple) -> Any:
            lv, rv = lf(row), rf(row)
            if lv is None or rv is None:
                return None
            return op(lv, rv)

        return run

    def emit(self, ctx: _Emitter) -> str:
        infix = _PY_INFIX.get(self.op)
        if infix is None:
            raise _CannotCompile(f"arithmetic op {self.op!r}")
        lval, lguard = _null_guarded(self.left, ctx)
        rval, rguard = _null_guarded(self.right, ctx)
        guards = [g for g in (lguard, rguard) if g is not None]
        value = f"{lval} {infix} {rval}"
        if not guards:
            return f"({value})"
        return f"({value} if {' and '.join(guards)} else None)"

    def referenced_columns(self):
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class And(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Expr]) -> None:
        # Flatten nested ANDs so the optimizer sees one conjunct list.
        flat: list[Expr] = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts = flat

    def bind(self, schema: Schema) -> Bound:
        bound = [p.bind(schema) for p in self.parts]

        def run(row: tuple) -> bool:
            return all(f(row) for f in bound)

        return run

    def emit(self, ctx: _Emitter) -> str:
        # bind() evaluates via all() and returns a bool; keep that.
        return f"bool{self.emit_truth(ctx)}"

    def emit_truth(self, ctx: _Emitter) -> str:
        if not self.parts:
            return "(True)"
        return "(" + " and ".join(p.emit_truth(ctx) for p in self.parts) + ")"

    def referenced_columns(self):
        out: set = set()
        for part in self.parts:
            out |= part.referenced_columns()
        return out

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(p) for p in self.parts) + ")"


class Or(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Expr]) -> None:
        flat: list[Expr] = []
        for part in parts:
            if isinstance(part, Or):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts = flat

    def bind(self, schema: Schema) -> Bound:
        bound = [p.bind(schema) for p in self.parts]

        def run(row: tuple) -> bool:
            return any(f(row) for f in bound)

        return run

    def emit(self, ctx: _Emitter) -> str:
        return f"bool{self.emit_truth(ctx)}"

    def emit_truth(self, ctx: _Emitter) -> str:
        if not self.parts:
            return "(False)"
        return "(" + " or ".join(p.emit_truth(ctx) for p in self.parts) + ")"

    def referenced_columns(self):
        out: set = set()
        for part in self.parts:
            out |= part.referenced_columns()
        return out

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(p) for p in self.parts) + ")"


class Not(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def bind(self, schema: Schema) -> Bound:
        f = self.inner.bind(schema)
        return lambda row: not f(row)

    def emit(self, ctx: _Emitter) -> str:
        return f"(not {self.inner.emit_truth(ctx)})"

    def referenced_columns(self):
        return self.inner.referenced_columns()

    def __repr__(self) -> str:
        return f"NOT {self.inner!r}"


class IsNull(Expr):
    """SQL ``expr IS NULL`` — needed by Listing 1's outer-join filter."""

    __slots__ = ("inner",)

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def bind(self, schema: Schema) -> Bound:
        f = self.inner.bind(schema)
        return lambda row: f(row) is None

    def emit(self, ctx: _Emitter) -> str:
        return f"({self.inner.emit(ctx)} is None)"

    def referenced_columns(self):
        return self.inner.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.inner!r} IS NULL)"


class InSet(Expr):
    """``expr IN (v1, v2, ...)`` against a constant set."""

    __slots__ = ("inner", "values")

    def __init__(self, inner: Expr, values: frozenset) -> None:
        self.inner = inner
        self.values = values

    def bind(self, schema: Schema) -> Bound:
        f, values = self.inner.bind(schema), self.values
        return lambda row: f(row) in values

    def emit(self, ctx: _Emitter) -> str:
        return f"({self.inner.emit(ctx)} in {ctx.const(self.values)})"

    def referenced_columns(self):
        return self.inner.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.inner!r} IN {sorted(self.values, key=repr)})"


class Func(Expr):
    """Escape hatch: arbitrary Python function over named column values.

    Kept for application-specific consistency rules that go beyond the
    comparison/arithmetic core (Section 2's "application specific
    consistency models").
    """

    __slots__ = ("fn", "columns", "label")

    def __init__(self, fn: Callable[..., Any], columns: Sequence[str], label: str = "") -> None:
        self.fn = fn
        self.columns = [ColumnRef(c) for c in columns]
        self.label = label or getattr(fn, "__name__", "func")

    def bind(self, schema: Schema) -> Bound:
        getters = [c.bind(schema) for c in self.columns]
        fn = self.fn
        return lambda row: fn(*[g(row) for g in getters])

    def emit(self, ctx: _Emitter) -> str:
        name = ctx.fresh("f")
        ctx.env[name] = self.fn
        args = ", ".join(c.emit(ctx) for c in self.columns)
        return f"{name}({args})"

    def referenced_columns(self):
        out: set = set()
        for c in self.columns:
            out |= c.referenced_columns()
        return out

    def __repr__(self) -> str:
        return f"{self.label}({', '.join(repr(c) for c in self.columns)})"


# -- public constructors -------------------------------------------------


def col(name: str, qualifier: Optional[str] = None) -> ColumnRef:
    """Column reference; accepts ``"name"`` or ``"alias.name"``."""
    return ColumnRef(name, qualifier)


def lit(value: Any) -> Literal:
    """Literal constant."""
    return Literal(value)


def and_(*parts: Expr) -> Expr:
    """N-ary conjunction (empty conjunction is TRUE)."""
    if not parts:
        return Literal(True)
    if len(parts) == 1:
        return parts[0]
    return And(list(parts))


def or_(*parts: Expr) -> Expr:
    """N-ary disjunction (empty disjunction is FALSE)."""
    if not parts:
        return Literal(False)
    if len(parts) == 1:
        return parts[0]
    return Or(list(parts))


def not_(part: Expr) -> Expr:
    return Not(part)


def is_null(part: Expr) -> Expr:
    return IsNull(part)


def func(fn: Callable[..., Any], *columns: str, label: str = "") -> Func:
    return Func(fn, columns, label=label)


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten an expression into its top-level AND-ed conjuncts."""
    if isinstance(expr, And):
        return list(expr.parts)
    return [expr]


# -- compilation ---------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _code_of(source: str):
    """*source* compiled once per process: every plan built for a rule
    (one per pair of stores) renders the same expressions again."""
    return compile(source, "<relalg:compiled-expr>", "exec")


def compile_expr(expr: Expr, schema: Schema, predicate: bool = False) -> Bound:
    """Compile *expr* against *schema* into a single Python function.

    The expression tree is rendered once to source (column references
    become tuple indexing, constants are inlined or hoisted) and then
    ``compile()``d — per-row evaluation is one call with no tree walk,
    which is what the plan compiler uses in `select`/join inner loops.

    With ``predicate=True`` only the result's truthiness is promised
    (AND/OR skip their bool() normalization).  Nodes with no source form
    (exotic subclasses) fall back to the interpreted :meth:`Expr.bind`,
    so compilation never changes semantics, only speed.  The generated
    source is attached as ``fn.__relalg_source__`` for EXPLAIN output.
    """
    ctx = _Emitter(schema)
    try:
        fragment = expr.emit_truth(ctx) if predicate else expr.emit(ctx)
    except _CannotCompile:
        return expr.bind(schema)
    source = f"def _compiled(_row):\n    return {fragment}\n"
    namespace = dict(ctx.env)
    exec(_code_of(source), namespace)
    fn = namespace["_compiled"]
    fn.__relalg_source__ = source
    return fn
