"""Legacy SS2PL protocol classes — the pre-`repro.api` construction
surface, kept behavior-identical.

Each class here is the historical name for a ``build_protocol(spec,
backend)`` pairing (``SS2PLDatalogProtocol()`` ≡
``build_protocol("ss2pl-listing1", "datalog")``) plus whatever compat
accessors its era exposed (``_plans``, ``explain_denial``, ``resync``,
the maintained-view properties).  New code should construct through
:mod:`repro.api` instead::

    import repro.api as api
    protocol = api.make_protocol("ss2pl-listing1", "datalog")

This module itself imports warning-free — the package ``__init__`` and
the class-name re-exports in :mod:`repro` go through it, so merely
importing ``repro`` never warns.
"""

from __future__ import annotations

from repro.backends import SpecProtocol
from repro.protocols.base import register_protocol
from repro.protocols.library import (  # noqa: F401  (re-exported API)
    LISTING1_SPEC,
    LISTING1_SQL,
    SS2PL_DATALOG_RULES,
    SS2PL_SPEC,
    gate_program_order,
    listing1_pipeline,
    listing1_query,
)
from repro.relalg.table import Table


class _Listing1Backed(SpecProtocol):
    """Listing 1 on the relalg engine with a switchable evaluation
    strategy: ``compiled=True`` (default) binds the compile-once
    backend, ``compiled=False`` the eager interpreted pipeline
    (benchmarks measure one against the other; tests assert
    byte-identical batches)."""

    spec_name = "ss2pl-listing1"

    def __init__(self, compiled: bool = True) -> None:
        from repro.protocols.spec import get_spec

        self.compiled = compiled
        super().__init__(
            get_spec(self.spec_name),
            backend="compiled" if compiled else "interpreted",
            name=type(self).name,
            description=type(self).description,
        )
        # In interpreted mode the evaluator holds no plans; EXPLAIN and
        # the historical ``_plans`` accessor still work through a
        # lazily built compiled view of the same spec.
        self._compat_plans = None

    @property
    def _plans(self):
        """The compiled plan cache for this protocol's query (compat
        accessor; available in both evaluation modes, as before the
        spec/backend split)."""
        plans = getattr(self._evaluator, "plans", None)
        if plans is not None:
            return plans
        if self._compat_plans is None:
            from repro.relalg.plan import PlanCache

            self._compat_plans = PlanCache(self.spec.relalg)
        return self._compat_plans

    def reset(self) -> None:
        super().reset()
        if self._compat_plans is not None:
            self._compat_plans.clear()

    def explain(self, requests: Table, history: Table) -> str:
        """Physical EXPLAIN of the cached plan for this table pair."""
        return self._plans.get(requests, history).explain()


class PaperListing1Protocol(_Listing1Backed):
    """Listing 1 exactly as published.

    Published semantics are kept untouched, including the naive aspects
    the paper acknowledges (Section 5 calls this approach "naive"): no
    program-order gating — a request can qualify before earlier
    statements of its own transaction have executed.  Termination
    requests (object ``-1``, operation ``c``/``a``) always qualify: they
    collide with no data object and the intra-batch rule requires a
    write on at least one side.
    """

    name = "ss2pl-listing1"
    description = "SS2PL via the paper's Listing 1 query, relalg backend"
    spec_name = "ss2pl-listing1"


class SS2PLRelalgProtocol(_Listing1Backed):
    """Listing 1 plus program-order and termination gating (the spec's
    ``post_process`` policy) — the variant the live middleware runs."""

    name = "ss2pl"
    description = "SS2PL (Listing 1 + program order), relalg backend"
    spec_name = "ss2pl"


class SS2PLDatalogProtocol(SpecProtocol):
    """SS2PL via the Datalog rule set.

    Result-equivalent to :class:`PaperListing1Protocol` on every
    pending/history instance (asserted by the cross-backend matrix
    test), while the specification is roughly a quarter of the SQL's
    size — the paper's succinctness hypothesis, made measurable
    (benchmark E9).
    """

    name = "ss2pl-datalog"
    description = "SS2PL as 12 Datalog rules"

    def __init__(self) -> None:
        from repro.protocols.spec import get_spec

        super().__init__(
            get_spec("ss2pl-listing1"),
            backend="datalog",
            name=type(self).name,
            description=type(self).description,
        )

    @property
    def _program(self):
        return self._evaluator.program

    def explain_denial(self, request_id: int) -> str:
        """Why-provenance for the last batch's denial of *request_id*.

        Returns a formatted derivation tree (see
        :mod:`repro.datalog.explain`); raises when the request was not
        denied in the most recent :meth:`schedule` call.
        """
        return self._evaluator.explain_denial(request_id)


class SS2PLIncrementalProtocol(SpecProtocol):
    """Listing 1 semantics with incrementally maintained lock views.

    Because the maintained state lives in the evaluator, it must
    observe *every* history change.  Driving it through
    :class:`~repro.core.scheduler.DeclarativeScheduler` guarantees
    that; for standalone use, call :meth:`resync` after loading history
    out-of-band.
    """

    name = "ss2pl-incremental"
    description = "SS2PL with incrementally maintained lock footprint"

    def __init__(self) -> None:
        from repro.protocols.spec import get_spec

        super().__init__(
            get_spec("ss2pl-listing1"),
            backend="incremental",
            name=type(self).name,
            description=type(self).description,
        )

    def resync(self, history: Table) -> None:
        """Rebuild the incremental state from a history table (for
        standalone use where history was loaded out-of-band)."""
        self._evaluator.resync(history)

    # -- compat accessors for the maintained views ------------------------

    @property
    def _write_locks(self):
        return self._evaluator._write_locks

    @property
    def _read_locks(self):
        return self._evaluator._read_locks

    @property
    def _reads_of(self):
        return self._evaluator._reads_of

    @property
    def _writes_of(self):
        return self._evaluator._writes_of

    @property
    def _finished(self):
        return self._evaluator._finished


class SS2PLSqlProtocol(SpecProtocol):
    """The paper's Listing 1 executed by sqlite3 (cross-validation and
    the SQL data point in the language ablation; each evaluation loads
    fresh snapshot tables by design — see the backend docstring)."""

    name = "ss2pl-sql"
    description = "SS2PL via Listing 1 on sqlite3"

    def __init__(self) -> None:
        from repro.protocols.spec import get_spec

        super().__init__(
            get_spec("ss2pl-listing1"),
            backend="sqlite",
            name=type(self).name,
            description=type(self).description,
        )


class SqlFrontendSS2PLProtocol(SpecProtocol):
    """Listing 1 parsed and planned by :class:`repro.relalg.sql.SqlPlanner`.

    The SQL text is parsed, planned and compiled **once** per
    (requests, history) table pair — each scheduler step only executes
    the cached physical plan; ``compiled=False`` re-parses and
    re-plans per step (the original behaviour, kept for the E8
    interpreted-vs-compiled ablation).
    """

    name = "ss2pl-sqlfront"
    description = "SS2PL: the paper's SQL text on our SQL frontend"

    def __init__(self, compiled: bool = True) -> None:
        from repro.protocols.spec import get_spec

        self.compiled = compiled
        super().__init__(
            get_spec("ss2pl-listing1"),
            backend="sqlfront",
            name=type(self).name,
            description=type(self).description,
            compiled=compiled,
        )

    @property
    def _plans(self):
        return self._evaluator.plans


@register_protocol
def _make_listing1() -> PaperListing1Protocol:
    return PaperListing1Protocol()


@register_protocol
def _make_ss2pl() -> SS2PLRelalgProtocol:
    return SS2PLRelalgProtocol()


@register_protocol
def _make_ss2pl_datalog() -> SS2PLDatalogProtocol:
    return SS2PLDatalogProtocol()


@register_protocol
def _make_ss2pl_incremental() -> SS2PLIncrementalProtocol:
    return SS2PLIncrementalProtocol()


@register_protocol
def _make_ss2pl_sql() -> SS2PLSqlProtocol:
    return SS2PLSqlProtocol()


@register_protocol
def _make_ss2pl_sqlfront() -> SqlFrontendSS2PLProtocol:
    return SqlFrontendSS2PLProtocol()
