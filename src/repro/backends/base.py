"""Execution backends: pluggable evaluators for protocol specs.

A :class:`ProtocolSpec` says *what* qualifies; an
:class:`ExecutionBackend` says *how* that rule is evaluated each
scheduler step.  Backends register themselves in
:data:`BACKEND_REGISTRY` (mirroring the driver-adapter pattern of
multi-database query mappers: one spec, many adapters), and
:class:`SpecProtocol` pairs a spec with a backend behind the ordinary
:class:`~repro.protocols.base.Protocol` interface, so the scheduler
core never learns which engine runs underneath it.
"""

from __future__ import annotations

import abc
import operator
from typing import Callable, Dict, Optional, Sequence

from repro.model.request import Request
from repro.protocols.base import Protocol, ProtocolDecision
from repro.protocols.spec import ProtocolSpec
from repro.relalg.query import PlanNode, Query
from repro.relalg.sql import SqlPlanner
from repro.relalg.table import Table

_BY_ID = operator.attrgetter("id")


class BackendError(Exception):
    """Raised when a backend cannot lower the given spec."""


def plan_dialect(spec: ProtocolSpec) -> Optional[str]:
    """The dialect the relalg engines plan *spec* from: its logical-plan
    builder when it ships one, else its SQL text; None with neither."""
    if spec.relalg is not None:
        return "relalg"
    return "sql" if spec.sql is not None else None


def spec_plan(
    spec: ProtocolSpec,
    requests: Table,
    history: Table,
    dialect: Optional[str] = None,
) -> PlanNode:
    """*spec*'s logical plan over these two tables.

    Built from *dialect* (``"relalg"`` or ``"sql"``; default
    :func:`plan_dialect`).  SQL text is planned with its CTEs deferred,
    so shared ``WITH`` subplans stay shared nodes for the compilers.
    """
    dialect = dialect or plan_dialect(spec)
    if dialect == "relalg":
        built = spec.relalg(requests, history)
        return built.plan if isinstance(built, Query) else built
    if dialect == "sql":
        planner = SqlPlanner({"requests": requests, "history": history})
        return planner.plan(spec.sql, defer_ctes=True)
    raise BackendError(
        f"spec {spec.name!r} carries neither a relalg nor a sql dialect"
    )


class SpecEvaluator(abc.ABC):
    """One spec lowered by one backend, ready to evaluate per step.

    Subclasses hold whatever lowered artifact the backend produces
    (cached physical plan, parsed Datalog program, sqlite connection,
    maintained lock views) and evaluate it against the current table
    contents.
    """

    #: The declarative text this evaluator consumes, when the dialect is
    #: textual (SQL/Datalog); surfaced as the protocol's
    #: ``declarative_source`` so productivity accounting (E9) reflects
    #: the formulation actually running.
    source: Optional[str] = None

    @abc.abstractmethod
    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        """Qualified requests (any order; the adapter sorts by id)."""

    def reset(self) -> None:
        """Drop lowered state that caches table identity/content."""

    # Stateful evaluators (incremental view maintenance) override these.
    def observe_executed(self, batch: Sequence[Request]) -> None:
        pass

    def observe_pruned(self, transactions: set[int]) -> None:
        pass


class ExecutionBackend(abc.ABC):
    """A strategy for lowering and evaluating protocol specs."""

    #: Machine name used by registries, CLIs, and benches.
    name: str = "abstract"
    description: str = ""
    #: Dialects this backend can lower, in preference order.
    consumes: tuple[str, ...] = ()

    def supports(self, spec: ProtocolSpec) -> bool:
        """True when *spec* carries a dialect this backend can lower."""
        return bool(set(self.consumes) & spec.dialects())

    @abc.abstractmethod
    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        """Lower *spec*; raise :class:`BackendError` when unsupported."""

    def _reject(self, spec: ProtocolSpec) -> BackendError:
        return BackendError(
            f"backend {self.name!r} cannot run spec {spec.name!r}: "
            f"needs one of {list(self.consumes)}, spec provides "
            f"{sorted(spec.dialects())}"
        )


#: name -> backend factory; populated by :func:`register_backend`.
BACKEND_REGISTRY: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(
    factory: Callable[[], ExecutionBackend],
) -> Callable[[], ExecutionBackend]:
    """Register a zero-argument backend factory under its product's name."""
    instance = factory()
    BACKEND_REGISTRY[instance.name] = factory
    return factory


def backend_names() -> list[str]:
    return sorted(BACKEND_REGISTRY)


def resolve_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Name -> instance; raises with the valid choices on a bad name."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = BACKEND_REGISTRY[backend]
    except KeyError:
        raise BackendError(
            f"unknown backend {backend!r}; "
            f"valid backends: {', '.join(backend_names())}"
        ) from None
    return factory()


def supported_backends(spec: ProtocolSpec) -> list[str]:
    """Names of registered backends that declare support for *spec*."""
    return [
        name
        for name in backend_names()
        if BACKEND_REGISTRY[name]().supports(spec)
    ]


class SpecProtocol(Protocol):
    """A :class:`ProtocolSpec` bound to an :class:`ExecutionBackend`.

    This is the only bridge between the declarative layer and the
    scheduler: the backend's evaluator produces the candidate set, the
    adapter normalizes it to arrival (id) order, and the spec's
    ``post_process`` policy — if any — runs identically regardless of
    backend.

    ``evaluator`` is the backend's lowered artefact for this spec; what
    a backend offers beyond ``evaluate`` (``plans``/``explain`` on the
    plan-caching engines, ``explain_denial`` on ``datalog``, ``resync``
    and the maintained lock views on ``incremental``) is reached
    through it.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        backend: "str | ExecutionBackend | None" = None,
        **backend_options,
    ) -> None:
        self.spec = spec
        self.backend = resolve_backend(
            backend if backend is not None else spec.default_backend
        )
        if not self.backend.supports(spec):
            raise self.backend._reject(spec)
        self.evaluator = self.backend.evaluator(spec, **backend_options)
        if self.backend.name == spec.default_backend:
            self.name = spec.name
        else:
            self.name = f"{spec.name}@{self.backend.name}"
        self.description = (
            spec.description or f"{spec.name} on {self.backend.name}"
        )
        self.capabilities = spec.capabilities
        self.declarative_source = (
            self.evaluator.source
            if self.evaluator.source is not None
            else spec.declarative_source
        )

    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        decision = self.evaluator.evaluate(requests, history)
        decision.qualified.sort(key=_BY_ID)
        if self.spec.post_process is not None:
            decision = self.spec.post_process(decision, requests, history)
        return decision

    def reset(self) -> None:
        self.evaluator.reset()

    def maintenance_stats(self) -> Optional[dict]:
        """Delta/cache maintenance counters, when the backend keeps
        incrementally maintained state (None otherwise).  Surfaced in
        scenario reports and the perf ledger."""
        stats = getattr(self.evaluator, "maintenance_stats", None)
        return stats() if callable(stats) else None

    def observe_executed(self, batch: Sequence[Request]) -> None:
        self.evaluator.observe_executed(batch)

    def observe_pruned(self, transactions: set[int]) -> None:
        self.evaluator.observe_pruned(transactions)
