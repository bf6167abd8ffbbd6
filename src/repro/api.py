"""The one public construction surface of the reproduction.

Every in-repo caller — the CLI, the scenario runner, benchmarks,
examples — builds protocols, triggers, schedulers, and services through
the helpers here, and external code should too::

    import repro.api as api

    scheduler = api.make_scheduler("ss2pl-listing1", backend="compiled-delta")

    async with api.open_service("ss2pl-listing1",
                                backend="compiled-delta",
                                trigger="hybrid:0.005,32") as service:
        async with service.pool.session() as session:
            ticket = await session.request("w", 7)
            await service.await_grant(ticket)
            service.release(ticket)

The string mini-languages accepted everywhere (CLI flags use the same
spellings):

* **protocol** — a spec name from the registry (``ss2pl-listing1``,
  ``2pl-conservative``, …), a wrapper prefix ``sla:<spec>`` /
  ``adaptive:<strict>,<relaxed>``, a
  :class:`~repro.protocols.spec.ProtocolSpec` instance, or a live
  :class:`~repro.protocols.base.Protocol` instance passed through.
* **trigger** — ``fill:<threshold>``, ``time:<interval>``,
  ``hybrid:<interval>,<threshold>``, a
  :class:`~repro.scenarios.spec.TriggerSpec`, or a live
  :class:`~repro.core.triggers.TriggerPolicy` instance.

Pairing validation is fail-fast: :func:`validate_pairing` (used by
every CLI entry point) raises the backend's own declared skip reason
when a spec cannot run on the chosen engine, instead of silently
falling back.

This module must stay import-light: it may import leaf modules, but
never :mod:`repro.scenarios` at top level (the scenario runner imports
*us*).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.backends import (
    BackendError,
    backend_names,
    build_protocol,
    resolve_backend,
    supported_backends,
)
from repro.core.scheduler import (
    DeclarativeScheduler,
    SchedulerConfig,
    SchedulerCostModel,
)
from repro.core.triggers import (
    FillLevelTrigger,
    HybridTrigger,
    TimeLapseTrigger,
    TriggerPolicy,
)
from repro.faults.admission import AdmissionPolicy
from repro.faults.recovery import RecoveryPolicy
from repro.metrics.collector import MetricsCollector
from repro.protocols.base import Protocol
from repro.protocols.spec import ProtocolSpec, spec_names
from repro.serve.service import SchedulerService
from repro.shard.scheduler import CrossShardPolicy, ShardedScheduler

__all__ = [
    "AdmissionPolicy",
    "BackendError",
    "CrossShardPolicy",
    "DeclarativeScheduler",
    "MetricsCollector",
    "RecoveryPolicy",
    "SchedulerConfig",
    "SchedulerCostModel",
    "SchedulerService",
    "ShardedScheduler",
    "analyze",
    "backend_names",
    "build_protocol",
    "make_protocol",
    "make_scheduler",
    "make_trigger",
    "open_service",
    "spec_names",
    "supported_backends",
    "validate_pairing",
]


# -- protocols -------------------------------------------------------------


def make_protocol(
    protocol: Union[str, Protocol, ProtocolSpec],
    backend: Optional[str] = None,
    *,
    clients: int = 8,
    **backend_options,
) -> Protocol:
    """Resolve a protocol string into a live :class:`Protocol`.

    Accepts a plain spec name, the ``sla:<spec>`` and
    ``adaptive:<strict>,<relaxed>`` wrapper prefixes (``clients`` sizes
    the adaptive protocol's load watermarks), an unregistered
    :class:`~repro.protocols.spec.ProtocolSpec` instance (bound to
    *backend* like a name), or an already-built Protocol instance
    (returned unchanged — composed protocols pass through the same code
    paths as names).
    """
    if isinstance(protocol, Protocol):
        return protocol
    if isinstance(protocol, ProtocolSpec):
        return build_protocol(protocol, backend, **backend_options)
    name = protocol
    if name.startswith("sla:"):
        from repro.protocols.sla import SLAOrderingProtocol

        return SLAOrderingProtocol(build_protocol(name[4:], backend))
    if name.startswith("adaptive:"):
        from repro.protocols.adaptive import AdaptiveConsistencyProtocol

        strict_name, _, relaxed_name = name[len("adaptive:"):].partition(",")
        if not relaxed_name:
            raise ValueError(
                "adaptive protocol needs 'adaptive:<strict>,<relaxed>', "
                f"got {name!r}"
            )
        return AdaptiveConsistencyProtocol(
            strict=build_protocol(strict_name, backend),
            relaxed=build_protocol(relaxed_name, backend),
            high_watermark=max(2, clients),
            low_watermark=max(1, clients // 4),
        )
    return build_protocol(name, backend, **backend_options)


def validate_pairing(
    protocol: Union[str, Protocol, ProtocolSpec, None], backend: Optional[str]
) -> None:
    """Fail fast on a spec×backend pairing the backend declares it
    cannot run, raising :class:`BackendError` with the backend's own
    skip reason (instead of letting a caller fall back silently), and
    on a malformed wrapper spelling (:class:`ValueError`).

    Live Protocol instances and ``None`` protocols validate trivially
    (the backend name itself is still checked against the registry).
    """
    if backend is not None:
        resolve_backend(backend)  # unknown names raise, listing choices
    if protocol is not None:
        # Building binds spec to backend, so the prefix mini-language
        # and the pairing check live in make_protocol alone.  The
        # throwaway instance is cheap (all backends lower lazily or at
        # trial speed).
        make_protocol(protocol, backend)


# -- triggers --------------------------------------------------------------


def make_trigger(trigger: Union[str, TriggerPolicy, None]) -> Optional[TriggerPolicy]:
    """Resolve a trigger description into a live policy.

    ``None`` passes through (the scheduler's default applies);
    instances pass through; strings use the CLI spelling —
    ``fill:20``, ``time:0.02``, ``hybrid:0.02,20`` — and
    :class:`~repro.scenarios.spec.TriggerSpec` objects build
    themselves.
    """
    if trigger is None or isinstance(trigger, TriggerPolicy):
        return trigger
    build = getattr(trigger, "build", None)
    if callable(build):  # a scenarios.spec.TriggerSpec (duck-typed: no
        return build()  # top-level scenarios import allowed here)
    kind, _, arg = str(trigger).partition(":")
    try:
        if kind == "fill":
            return FillLevelTrigger(int(arg))
        if kind == "time":
            return TimeLapseTrigger(float(arg))
        if kind == "hybrid":
            interval, _, threshold = arg.partition(",")
            return HybridTrigger(float(interval), int(threshold))
    except ValueError as error:
        raise ValueError(f"bad trigger {trigger!r}: {error}") from None
    raise ValueError(
        f"unknown trigger {trigger!r}: expected 'fill:<threshold>', "
        "'time:<interval>' or 'hybrid:<interval>,<threshold>'"
    )


# -- schedulers & services -------------------------------------------------


def make_scheduler(
    protocol: Union[str, Protocol, ProtocolSpec],
    backend: Optional[str] = None,
    *,
    trigger: Union[str, TriggerPolicy, None] = None,
    config: SchedulerConfig = SchedulerConfig(),
    metrics: Optional[MetricsCollector] = None,
    recovery: Optional[RecoveryPolicy] = None,
    admission: Optional[AdmissionPolicy] = None,
    clients: int = 8,
    clock=None,
    shards: Optional[int] = None,
    shard_route: str = "two-phase",
    cross_shard: Optional[CrossShardPolicy] = None,
    **backend_options,
) -> Union[DeclarativeScheduler, ShardedScheduler]:
    """Build a scheduler from names — the one construction path.  All
    arguments accept the string spellings documented in the module
    docstring.

    ``shards=None`` (default) returns a plain
    :class:`DeclarativeScheduler`.  ``shards=N`` returns a
    :class:`~repro.shard.scheduler.ShardedScheduler` over N independent
    schedulers — each with its own freshly built protocol and trigger —
    partitioned by object-id hash; multi-object transactions take the
    two-phase reserve/commit path, whose timeout and backoff
    ``cross_shard`` sets.  ``shard_route`` accepts only ``"two-phase"``,
    the one route, for callers that spell it.  Protocol and trigger
    *instances* cannot be sharded (shards must not share mutable policy
    state); pass registry names / string spellings instead.
    """
    if shard_route != "two-phase":
        raise ValueError(
            f"shard_route {shard_route!r} was removed: 'two-phase' "
            "reserve/commit is the one cross-shard route"
        )

    def build_one() -> DeclarativeScheduler:
        return DeclarativeScheduler(
            make_protocol(protocol, backend, clients=clients, **backend_options),
            trigger=make_trigger(trigger),
            config=config,
            metrics=metrics,
            recovery=recovery,
            admission=admission,
            clock=clock,
        )

    if shards is None:
        return build_one()
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > 1 and isinstance(protocol, Protocol):
        raise ValueError(
            "cannot shard a live Protocol instance; pass a registry name "
            "so each shard builds its own"
        )
    if shards > 1 and isinstance(trigger, TriggerPolicy):
        raise ValueError(
            "cannot share one TriggerPolicy instance across shards; pass "
            "a trigger spec string so each shard builds its own"
        )
    shard_schedulers = [build_one() for __ in range(shards)]
    return ShardedScheduler(
        shard_schedulers,
        cross_shard=cross_shard,
        metrics=metrics,
        clock=clock,
    )


def open_service(
    protocol: Union[str, Protocol, ProtocolSpec],
    backend: Optional[str] = None,
    *,
    trigger: Union[str, TriggerPolicy, None] = None,
    recovery: Optional[RecoveryPolicy] = None,
    admission: Optional[AdmissionPolicy] = None,
    max_sessions: int = 8,
    max_pipeline: int = 8,
    max_linger: float = 0.05,
    config: SchedulerConfig = SchedulerConfig(),
    metrics: Optional[MetricsCollector] = None,
    check_invariants: bool = False,
    shards: Optional[int] = None,
    cross_shard: Optional[CrossShardPolicy] = None,
    **backend_options,
) -> SchedulerService:
    """Build an (unstarted) :class:`SchedulerService` over a freshly
    constructed scheduler.  Use as an async context manager::

        async with api.open_service("ss2pl-listing1", "compiled-delta") as svc:
            ...

    or call :meth:`~repro.serve.service.SchedulerService.start` /
    ``stop`` explicitly.  ``recovery`` defaults to a
    :class:`RecoveryPolicy` — a service without timeout aborts and
    orphan reaping would wedge on the first crashed client — pass one
    explicitly to tune it.

    ``shards=N`` serves from a
    :class:`~repro.shard.scheduler.ShardedScheduler` instead: pooled
    sessions route transparently, ``--check-invariants`` keeps working
    globally (per-shard monitors plus the cross-shard grant-union
    check).  See :func:`make_scheduler` for ``cross_shard``.
    """
    if recovery is None:
        recovery = RecoveryPolicy()
    scheduler = make_scheduler(
        protocol,
        backend,
        trigger=trigger,
        config=config,
        metrics=metrics,
        recovery=recovery,
        admission=admission,
        clients=max_sessions,
        shards=shards,
        cross_shard=cross_shard,
        **backend_options,
    )
    return SchedulerService(
        scheduler,
        max_sessions=max_sessions,
        max_pipeline=max_pipeline,
        max_linger=max_linger,
        check_invariants=check_invariants,
    )


# -- static analysis --------------------------------------------------------


def analyze(specs: bool = True, repo: bool = True):
    """Run the static analyzer and return its
    :class:`~repro.analysis.AnalysisReport` (the spec/plan verifier,
    the spec × backend support matrix, and the repo determinism lint —
    what ``repro analyze`` prints).

    Imported lazily: the analysis package walks the planner and backend
    registries, which this import-light module must not pull in at top
    level.
    """
    from repro.analysis import run_analysis

    return run_analysis(specs=specs, repo=repo)
