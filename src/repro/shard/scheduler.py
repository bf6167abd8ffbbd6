"""``ShardedScheduler``: N independent declarative schedulers behind
the one-scheduler interface.

One pending table cannot hold millions of users (ROADMAP item 3).  The
PR 2 spec/backend split makes scale-out a pure orchestration problem:
each shard is an ordinary :class:`~repro.core.scheduler.DeclarativeScheduler`
with its own compiled plans, trigger, recovery, and admission policy,
and this facade owns only the routing.  Requests are partitioned by
object-id hash (:mod:`repro.shard.partition`), so every conflict on an
object is still decided by exactly one shard's declarative protocol.

Transactions that touch objects owned by several shards take one
cross-shard path, reserve-then-commit.  Submitted statements queue in
a global FIFO and are routed at the start of the next step, so a
burst-submitted transaction is classified knowing its full shard span
before the first statement is forwarded.  Each data statement is then
forwarded to its owning shard (the *reserve*: the shard's protocol
grants it a lock under its ordinary rules, with the statement
renumbered to a dense per-shard ``intrata`` so program-order gates keep
working).  A first incarnation forwards its reserves as they arrive; a
retried one acquires them one at a time in global object order.
Grants are held by the facade and released to the caller strictly in
original program order; the termination request is broadcast to every
owning shard only once *all* data statements are granted — the
*commit* — so no shard releases the transaction's locks while another
shard is still reserving.

A coordinated transaction that holds a granted reserve and makes no
progress past ``reserve_timeout`` is treated as a cross-shard lock
cycle, which no single shard can see.  If nothing of it has been
reported to the caller, the whole reservation is aborted on every
owning shard, parked under exponential backoff, and resubmitted as a
fresh *incarnation* (new transaction number, new request ids — shard
monitors see a well-formed new transaction, the caller's original ids
never reach a terminal state twice).  Once a grant has been reported
the caller may have executed it, so the transaction is given up
instead and surfaced as a ``timeouts`` abort, as a shard's own timeout
would be.  Transactions holding no granted reserve are never swept:
they block nobody, so they cannot be part of a deadlock cycle.

Invariant checking stays global: assigning ``monitor`` installs a
per-shard :class:`~repro.faults.invariants.InvariantMonitor` on every
shard (shard-local conflicting-grants / lifecycle checks over the
renumbered requests) while the facade-level monitor checks the
*original* request stream plus the cross-shard grant-union — the
no-conflicting-grants sweep evaluated over the union of all shard
histories (:class:`_UnionHistory`).  An object's rows all live in one
shard, so a conflict in that union can only come from the routing.

The facade implements the scheduler surface
:class:`~repro.serve.service.SchedulerService` drives (``submit`` /
``should_run`` / ``step`` / ``clock`` / ``step_hooks`` / ``monitor`` /
``incoming`` / ``pending`` / ``trigger`` / ``next_recovery_due`` /
``note_client_crashed`` / ...), so pooled sessions route transparently
through ``repro.api.open_service(..., shards=N)``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import InitVar, dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

from repro.core.scheduler import (
    DeclarativeScheduler,
    RecoveryActions,
    SchedulerStalledError,
    SchedulerStepResult,
)
from repro.faults.invariants import InvariantMonitor
from repro.model.request import Operation, Request
from repro.shard.partition import HashPartitioner

__all__ = ["CrossShardPolicy", "ShardedScheduler"]

#: Sentinel statement index marking a forwarded termination request.
_TERM = -1

#: Multiplier on ``reserve_timeout`` for a retried transaction.  It
#: acquires in global object order, and ordered acquirers cannot
#: deadlock among themselves, so its stall almost always means a busy
#: lock queue, not a cycle.
ORDERED_PATIENCE = 10.0
#: Park delay growth per prior retry, and the cap on its exponent.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_EXPONENT = 6
#: Retries before the facade gives a transaction up for good.
MAX_RETRIES = 10


def _zero_clock() -> float:
    return 0.0


@dataclass(frozen=True)
class CrossShardPolicy:
    """Timeouts of the two-phase reserve/commit path."""

    #: Seconds a coordinated transaction holding a granted reserve may
    #: make no progress before the facade treats it as a cross-shard
    #: deadlock.
    reserve_timeout: float = 0.05
    #: Base park delay before resubmitting a retried reservation.
    retry_backoff: float = 0.01
    #: The one reserve protocol's name, accepted for callers that spell it.
    reserve_mode: InitVar[str] = "escalate"

    def __post_init__(self, reserve_mode: str) -> None:
        if self.reserve_timeout <= 0:
            raise ValueError("reserve_timeout must be positive")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if reserve_mode != "escalate":
            raise ValueError(
                f"reserve_mode {reserve_mode!r} was removed: 'escalate' "
                "(reserve as statements arrive, in object order after a "
                "retry) is the one cross-shard reserve protocol"
            )


@dataclass
class _TaState:
    """Facade-side bookkeeping for one client transaction."""

    ta: int
    #: Transaction number the shards currently see (== ``ta`` for the
    #: first attempt; a fresh negative number per retry).
    incarnation: int
    statements: list[Request] = field(default_factory=list)
    termination: Optional[Request] = None
    #: True once the transaction spans more than one shard (two-phase
    #: coordination engaged; sticky across retries).
    coordinated: bool = False
    owners: set[int] = field(default_factory=set)
    #: Per-shard count of forwarded requests == next dense intrata.
    shard_counts: dict[int, int] = field(default_factory=dict)
    #: Statements forwarded in the current incarnation.
    forwarded: int = 0
    #: Statement indices granted in the current incarnation.
    granted: set[int] = field(default_factory=set)
    #: Statement indices already reported to the caller (empty whenever
    #: the transaction parks: a reported grant is never retried).
    reported: set[int] = field(default_factory=set)
    #: Statement indices awaiting their turn under ordered reserves.
    queued: list[int] = field(default_factory=list)
    #: Statement indices already handed to the routing machinery (the
    #: step-time route drain and a parked resubmit would otherwise both
    #: route the same statement).
    routed: set[int] = field(default_factory=set)
    #: Forwarded request id -> statement index, current incarnation.
    alias_ids: dict[int, int] = field(default_factory=dict)
    term_forwarded: bool = False
    term_id: Optional[int] = None
    term_owners: set[int] = field(default_factory=set)
    term_granted: set[int] = field(default_factory=set)
    reserve_since: Optional[float] = None
    retries: int = 0
    parked_until: Optional[float] = None
    orphaned: bool = False


class _UnionTable:
    """Read-only union of the shards' history tables (monitor shape)."""

    def __init__(self, shards: Sequence[DeclarativeScheduler]) -> None:
        self._shards = shards
        self.schema = shards[0].history.table.schema

    @property
    def rows(self) -> Iterator[tuple]:
        return itertools.chain.from_iterable(
            shard.history.table.rows for shard in self._shards
        )


class _UnionHistory:
    """Union view of all shard histories, duck-typed like
    :class:`~repro.core.stores.HistoryStore` as far as
    :meth:`InvariantMonitor._check_conflicting_grants` reads it.  An
    object's rows all live in one shard, so a conflict in this union
    can only come from the routing layer itself — this is the
    cross-shard grant-union check."""

    def __init__(self, shards: Sequence[DeclarativeScheduler]) -> None:
        self._shards = shards

    @property
    def active_transactions(self) -> set[int]:
        active: set[int] = set()
        for shard in self._shards:
            active |= shard.history.active_transactions
        return active

    @property
    def table(self) -> _UnionTable:
        return _UnionTable(self._shards)

    def __len__(self) -> int:
        return sum(len(shard.history) for shard in self._shards)


class _UnionTrigger:
    """Earliest next-check deadline across the shards' triggers."""

    def __init__(self, shards: Sequence[DeclarativeScheduler]) -> None:
        self._shards = shards

    def next_check(self, now: float) -> Optional[float]:
        deadlines = [
            deadline
            for shard in self._shards
            if (deadline := shard.trigger.next_check(now)) is not None
        ]
        return min(deadlines) if deadlines else None

    def notify_fired(self, now: float) -> None:  # pragma: no cover - shape
        pass


class _IncomingView:
    """Facade ``incoming``: shard queues plus requests the facade is
    holding itself (parked retries, not-yet-broadcast terminations)."""

    def __init__(self, owner: "ShardedScheduler") -> None:
        self._owner = owner

    def _held(self) -> Iterator[Request]:
        for state in self._owner._states.values():
            if state.parked_until is not None:
                yield from state.statements
                if state.termination is not None:
                    yield state.termination
            else:
                for idx in state.queued:
                    yield state.statements[idx]
                if state.termination is not None and not state.term_forwarded:
                    yield state.termination
        for state, idx, __ in self._owner._route_queue:
            if (
                self._owner._states.get(state.ta) is not state
                or state.parked_until is not None
                or idx == _TERM
                or idx in state.routed
                or idx in state.queued
            ):
                continue  # already yielded (or moot) above
            yield state.statements[idx]

    def __len__(self) -> int:
        return sum(len(shard.incoming) for shard in self._owner.shards) + sum(
            1 for __ in self._held()
        )

    def __iter__(self) -> Iterator[Request]:
        for shard in self._owner.shards:
            yield from shard.incoming
        yield from self._held()


class _PendingView:
    def __init__(self, owner: "ShardedScheduler") -> None:
        self._owner = owner

    def __len__(self) -> int:
        return sum(len(shard.pending) for shard in self._owner.shards)


class ShardedScheduler:
    """N declarative schedulers behind the one-scheduler surface.

    Build through :func:`repro.api.make_scheduler` (``shards=N``) or
    directly from a list of :class:`DeclarativeScheduler` instances.
    All shards should run the same protocol; the facade never evaluates
    scheduling rules itself.
    """

    def __init__(
        self,
        shards: Sequence[DeclarativeScheduler],
        *,
        cross_shard: Optional[CrossShardPolicy] = None,
        metrics=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self.cross_shard = cross_shard if cross_shard is not None else CrossShardPolicy()
        self.partitioner = HashPartitioner(len(self.shards))
        self.metrics = metrics
        self.steps_run = 0
        self.step_hooks: list[Callable[[SchedulerStepResult], None]] = []
        self._monitor: Optional[InvariantMonitor] = None
        self._states: dict[int, _TaState] = {}
        self._by_incarnation: dict[int, _TaState] = {}
        #: Forwarded request id -> (state, statement index | _TERM).
        self._requests: dict[int, tuple[_TaState, int]] = {}
        #: Submitted-but-unrouted requests, global FIFO: routing is
        #: deferred to the next step so a burst-submitted transaction
        #: is routed knowing its full shard span (coordination is
        #: decided before the first statement is forwarded, not
        #: discovered midway).
        self._route_queue: list[tuple[_TaState, int, float]] = []
        #: Transaction numbers for retry incarnations: negative and far
        #: below the shards' own synthesized-abort ids.
        self._incarnation_ids = itertools.count(-1_000_000, -1)
        #: Request ids for retried statements: a disjoint negative range
        #: so they collide with neither client ids nor shard abort ids.
        self._retry_request_ids = itertools.count(-1_000_000_000, -1)
        #: Ids of facade-synthesized abort requests (never submitted to
        #: a shard; only surfaced through recovery actions).
        self._facade_abort_ids = itertools.count(-2_000_000_000, -1)
        self.incoming = _IncomingView(self)
        self.pending = _PendingView(self)
        self.trigger = _UnionTrigger(self.shards)
        #: Per-shard wall seconds of the most recent ``shard.step()``
        #: call (index == shard index) — the protocol query plus the
        #: shard's own batch assembly, trigger, and recovery scans.
        #: The facade pays the *sum*; the ledger reads the breakdown
        #: for ``shard.shard_step_s_max`` and ``shard.imbalance``.
        self.shard_step_seconds: list[float] = [0.0] * len(self.shards)
        self.clock = clock if clock is not None else _zero_clock

    # -- pass-through configuration surface ---------------------------------

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    @clock.setter
    def clock(self, fn: Callable[[], float]) -> None:
        self._clock = fn
        for shard in self.shards:
            shard.clock = fn

    @property
    def monitor(self) -> Optional[InvariantMonitor]:
        return self._monitor

    @monitor.setter
    def monitor(self, value: Optional[InvariantMonitor]) -> None:
        self._monitor = value
        if value is not None:
            for shard in self.shards:
                if shard.monitor is None:
                    shard.monitor = InvariantMonitor(
                        value.lock_model,
                        conflict_interval=value.conflict_interval,
                    )

    @property
    def protocol(self):
        return self.shards[0].protocol

    @property
    def config(self):
        return self.shards[0].config

    @property
    def recovery(self):
        return self.shards[0].recovery

    @property
    def admission(self):
        return self.shards[0].admission

    @property
    def history(self) -> _UnionHistory:
        return _UnionHistory(self.shards)

    # -- client-facing -------------------------------------------------------

    def submit(self, request: Request, now: Optional[float] = None) -> None:
        """Route one request toward its owning shard(s)."""
        if now is None:
            now = self.clock()
        if self._monitor is not None:
            self._monitor.note_submitted(request, now)
        state = self._states.get(request.ta)
        if state is None:
            state = _TaState(ta=request.ta, incarnation=request.ta)
            self._states[request.ta] = state
            self._by_incarnation[request.ta] = state
        if request.operation.is_termination:
            state.termination = request
            self._route_queue.append((state, _TERM, now))
        else:
            state.statements.append(request)
            self._route_queue.append((state, len(state.statements) - 1, now))

    def should_run(self, now: Optional[float] = None) -> bool:
        if now is None:
            now = self.clock()
        if self._route_queue:
            return True
        for state in self._states.values():
            due = self._timer_due(state)
            if due is not None and now >= due:
                return True
        return any(shard.should_run(now) for shard in self.shards)

    def next_recovery_due(self, now: Optional[float] = None) -> Optional[float]:
        if now is None:
            now = self.clock()
        deadlines: list[float] = []
        for shard in self.shards:
            due = shard.next_recovery_due(now)
            if due is not None:
                deadlines.append(due)
        for state in self._states.values():
            due = self._timer_due(state)
            if due is not None:
                deadlines.append(due)
        return min(deadlines) if deadlines else None

    def note_client_crashed(self, client_id: int, now: float) -> None:
        """Broadcast a client crash; the facade also marks its parked
        transactions (invisible to the shards) for orphan reaping."""
        for shard in self.shards:
            shard.note_client_crashed(client_id, now)
        for state in self._states.values():
            if state.parked_until is None:
                continue
            requests = state.statements or (
                [state.termination] if state.termination else []
            )
            if requests and requests[0].attrs.client_id == client_id:
                state.orphaned = True

    def note_client_recovered(self, client_id: int) -> None:
        for shard in self.shards:
            shard.note_client_recovered(client_id)

    # -- the scheduler step --------------------------------------------------

    def step(self, now: Optional[float] = None) -> SchedulerStepResult:
        """Step every shard once, merge the results, and run the
        cross-shard reserve-timeout sweep."""
        if now is None:
            now = self.clock()
        recovery = RecoveryActions()
        # Resume parked retries whose backoff expired (orphaned parked
        # transactions are reaped instead — no shard knows about them).
        for state in list(self._states.values()):
            if state.parked_until is None or now < state.parked_until:
                continue
            if state.orphaned:
                self._give_up(state, recovery, now, kind="orphans")
            else:
                self._resubmit(state, now)
        self._drain_route_queue()
        qualified: list[Request] = []
        denials: dict[int, str] = {}
        drained = pending_before = history_rows = 0
        query_seconds = 0.0
        handled: set[int] = set()
        forwarded = self._requests
        for source, shard in enumerate(self.shards):
            shard_started = time.perf_counter()
            result = shard.step(now)
            self.shard_step_seconds[source] = (
                time.perf_counter() - shard_started
            )
            drained += result.drained
            pending_before += result.pending_before
            history_rows += result.history_rows
            query_seconds += result.query_seconds
            # Denials are keyed by the client's own request ids.
            for rid, reason in result.denials.items():
                entry = forwarded.get(rid)
                if entry is not None:
                    state, idx = entry
                    if idx != _TERM:
                        rid = state.statements[idx].id
                    elif state.termination:
                        rid = state.termination.id
                denials[rid] = reason
            for request in result.qualified:
                self._process_grant(source, request, qualified, now)
            for kind, entries in (
                ("timeouts", result.recovery.timeouts),
                ("orphans", result.recovery.orphans),
                ("sheds", result.recovery.sheds),
            ):
                for shard_ta, abort in entries:
                    self._translate_recovery(
                        kind, source, shard_ta, abort, recovery, handled, now
                    )
        self._reserve_sweep(now, recovery)
        merged = SchedulerStepResult(
            now=now,
            drained=drained,
            pending_before=pending_before,
            pending_after=sum(len(shard.pending) for shard in self.shards),
            history_rows=history_rows,
            qualified=qualified,
            query_seconds=query_seconds,
            denials=denials,
            recovery=recovery,
        )
        self.steps_run += 1
        if self._monitor is not None:
            self._monitor.after_step(self, merged, now)
        for hook in self.step_hooks:
            hook(merged)
        return merged

    def run_until_drained(
        self,
        max_steps: int = 10_000,
        on_batch: Optional[Callable[[SchedulerStepResult], None]] = None,
        time_step: float = 1.0,
    ) -> list[SchedulerStepResult]:
        """Step until no shard nor the facade holds live work.

        Time advances ``time_step`` per step so reserve timeouts and
        retry backoffs fire; with the default 1.0 and the default
        sub-second :class:`CrossShardPolicy` knobs, one idle step is
        enough to trip the cross-shard deadlock timeout."""
        results: list[SchedulerStepResult] = []
        for __ in range(max_steps):
            if not self._work_remains():
                return results
            result = self.step(now=float(len(results)) * time_step)
            results.append(result)
            if on_batch is not None:
                on_batch(result)
            if (
                result.batch_size == 0
                and result.drained == 0
                and not result.recovery
                and not self._timers_armed()
            ):
                raise SchedulerStalledError(
                    f"sharded scheduler stalled with {len(self.pending)} "
                    f"pending requests; denials: "
                    f"{result.denials or 'unattributed'}",
                    pending_snapshot=self._pending_snapshot(),
                    denials=dict(result.denials),
                    steps_run=self.steps_run,
                )
        raise SchedulerStalledError(
            f"not drained after {max_steps} steps",
            pending_snapshot=self._pending_snapshot(),
            denials=dict(results[-1].denials) if results else {},
            steps_run=self.steps_run,
        )

    # -- routing internals ---------------------------------------------------

    def _owner_of(self, state: _TaState, request: Request) -> int:
        """The shard a statement is forwarded to.  ``state`` is unused
        here; the test suite's deliberately unsound router overrides
        this to place by transaction."""
        return self.partitioner.shard_of(request.obj)

    def _drain_route_queue(self) -> None:
        """Route everything submitted since the last step, in global
        submission order.  Routing is deferred to step time so a
        burst-submitted transaction is classified (single-shard vs
        coordinated) knowing every statement of the burst instead of
        discovering the shard span after the first eager forward."""
        queue, self._route_queue = self._route_queue, []
        for state, idx, submitted_at in queue:
            if self._states.get(state.ta) is not state:
                continue  # transaction already finished or aborted
            if idx == _TERM:
                self._maybe_forward_termination(state, submitted_at)
                continue
            if state.parked_until is not None or idx in state.routed:
                continue  # a parked resubmit re-routes everything itself
            state.routed.add(idx)
            self._route_data(state, idx, submitted_at)

    def _route_data(self, state: _TaState, idx: int, now: float) -> None:
        """Dispatch one data statement: eager forward, or (a retried
        coordinated transaction) enqueue for its turn in object order."""
        request = state.statements[idx]
        owner = self._owner_of(state, request)
        if not state.coordinated:
            span = {self._owner_of(state, s) for s in state.statements}
            span |= state.owners
            if len(span) > 1:
                state.coordinated = True
                if self.metrics is not None:
                    self.metrics.incr("scheduler.xshard.coordinated")
        if state.coordinated and state.retries > 0:
            state.queued.append(idx)
            self._pump(state, now)
        else:
            self._forward_to(state, idx, owner, now)

    def _pump(self, state: _TaState, now: float) -> None:
        """Ordered sequential reserve: once every forwarded data
        statement is granted, forward the queued statement with the
        smallest object number (the global lock-acquisition order)."""
        if (
            not state.queued
            or state.parked_until is not None
            or len(state.granted) < state.forwarded
        ):
            return
        state.queued.sort(key=lambda i: (state.statements[i].obj, i))
        idx = state.queued.pop(0)
        owner = self._owner_of(state, state.statements[idx])
        self._forward_to(state, idx, owner, now)

    def _forward_to(
        self, state: _TaState, idx: int, owner: int, now: float
    ) -> None:
        request = state.statements[idx]
        local = state.shard_counts.get(owner, 0)
        if state.incarnation == state.ta and local == request.intrata:
            forwarded = request
        else:
            forwarded = replace(
                request,
                id=request.id
                if state.incarnation == state.ta
                else next(self._retry_request_ids),
                ta=state.incarnation,
                intrata=local,
            )
        state.shard_counts[owner] = local + 1
        state.owners.add(owner)
        state.forwarded += 1
        state.alias_ids[forwarded.id] = idx
        self._requests[forwarded.id] = (state, idx)
        self.shards[owner].submit(forwarded, now)
        if state.coordinated:
            # Progress-based stall timer: any forward restarts it, so
            # the reserve timeout measures time *stuck*, not the total
            # span of a (possibly long, merely queued) reservation.
            state.reserve_since = now

    def _maybe_forward_termination(self, state: _TaState, now: float) -> None:
        if (
            state.termination is None
            or state.term_forwarded
            or state.parked_until is not None
        ):
            return
        if state.coordinated:
            # Two-phase commit point: broadcast c/a only once every
            # data statement has been reserved (granted) everywhere, so
            # no shard releases locks while another is still reserving.
            if len(state.granted) < len(state.statements):
                return
        request = state.termination
        owners = set(state.owners)
        if not owners:
            owners = {self.partitioner.fallback_for(state.ta)}
        if state.incarnation == state.ta:
            term_id = request.id
        else:
            term_id = next(self._retry_request_ids)
        for owner in sorted(owners):
            local = state.shard_counts.get(owner, 0)
            if (
                state.incarnation == state.ta
                and local == request.intrata
                and len(owners) == 1
            ):
                forwarded = request
            else:
                forwarded = replace(
                    request, id=term_id, ta=state.incarnation, intrata=local
                )
            state.shard_counts[owner] = local + 1
            self.shards[owner].submit(forwarded, now)
        state.owners |= owners
        state.term_forwarded = True
        state.term_id = term_id
        state.term_owners = owners
        self._requests[term_id] = (state, _TERM)
        if self.metrics is not None and len(owners) > 1:
            self.metrics.incr("scheduler.xshard.broadcasts")

    def _process_grant(
        self,
        source: int,
        request: Request,
        qualified: list[Request],
        now: float,
    ) -> None:
        entry = self._requests.get(request.id)
        if entry is None:
            # A grant from an aborted incarnation that was still in a
            # shard queue, or a shard-synthesized row: nothing to route.
            if self.metrics is not None:
                self.metrics.incr("scheduler.xshard.stale_grants")
            return
        state, idx = entry
        if idx == _TERM:
            state.term_granted.add(source)
            if state.term_granted >= state.term_owners:
                qualified.append(state.termination)
                self._finish(state)
            return
        state.granted.add(idx)
        if not state.coordinated:
            state.reported.add(idx)
            qualified.append(state.statements[idx])
        else:
            # Release grants to the caller strictly in program order.
            for position in range(len(state.statements)):
                if position in state.reported:
                    continue
                if position in state.granted:
                    state.reported.add(position)
                    qualified.append(state.statements[position])
                else:
                    break
            # A grant is progress: restart the stall timer, or stop it
            # once every statement is reserved.
            if len(state.granted) == len(state.statements):
                state.reserve_since = None
            else:
                state.reserve_since = now
            self._pump(state, now)
        self._maybe_forward_termination(state, now)

    # -- cross-shard recovery ------------------------------------------------

    def _stall_deadline(self, state: _TaState) -> Optional[float]:
        """When the reserve sweep takes this transaction, or ``None``
        while it cannot stall: only a coordinated, unparked lock
        *holder* can be part of a cross-shard deadlock cycle (one
        holding no granted reserve blocks nobody, and aborting it would
        be pure churn).  A retried transaction acquires in object order
        and gets :data:`ORDERED_PATIENCE` times the timeout."""
        if (
            not state.coordinated
            or not state.granted
            or state.parked_until is not None
            or state.reserve_since is None
        ):
            return None
        timeout = self.cross_shard.reserve_timeout
        if state.retries > 0:
            timeout *= ORDERED_PATIENCE
        return state.reserve_since + timeout

    def _timer_due(self, state: _TaState) -> Optional[float]:
        """This transaction's next facade timer: its park expiry, else
        its stall deadline."""
        if state.parked_until is not None:
            return state.parked_until
        return self._stall_deadline(state)

    def _reserve_sweep(self, now: float, recovery: RecoveryActions) -> None:
        for state in list(self._states.values()):
            due = self._stall_deadline(state)
            if due is None or now < due:
                continue
            # A reported grant may already have been executed by the
            # caller, so only a reservation with nothing reported can be
            # retried invisibly.
            if state.reported or state.retries >= MAX_RETRIES:
                self._give_up(state, recovery, now, kind="timeouts")
            else:
                self._park(state, now)

    def _abort_incarnation(self, state: _TaState, now: float, reason: str) -> None:
        for owner in sorted(state.owners):
            self.shards[owner].abort_transaction(
                state.incarnation, now, reason=reason
            )
        for fid in list(state.alias_ids):
            self._requests.pop(fid, None)
        state.alias_ids.clear()
        if state.term_id is not None:
            self._requests.pop(state.term_id, None)
        self._by_incarnation.pop(state.incarnation, None)
        state.owners = set()
        state.shard_counts = {}
        state.forwarded = 0
        state.granted = set()
        state.queued = []
        state.term_forwarded = False
        state.term_id = None
        state.term_owners = set()
        state.term_granted = set()
        state.reserve_since = None

    def _park(self, state: _TaState, now: float) -> None:
        self._abort_incarnation(state, now, reason="xshard-retry")
        state.retries += 1
        exponent = min(state.retries - 1, MAX_BACKOFF_EXPONENT)
        state.parked_until = now + self.cross_shard.retry_backoff * (
            BACKOFF_FACTOR**exponent
        )
        state.incarnation = next(self._incarnation_ids)
        self._by_incarnation[state.incarnation] = state
        if self.metrics is not None:
            self.metrics.incr("scheduler.xshard.retries")

    def _resubmit(self, state: _TaState, now: float) -> None:
        """Re-route a parked (so coordinated, retried) transaction: its
        reserves queue for acquisition in global object order."""
        state.parked_until = None
        state.routed = set(range(len(state.statements)))
        state.queued = list(range(len(state.statements)))
        self._pump(state, now)
        self._maybe_forward_termination(state, now)

    def _give_up(
        self,
        state: _TaState,
        recovery: RecoveryActions,
        now: float,
        kind: str,
    ) -> None:
        self._abort_incarnation(state, now, reason=f"xshard-{kind}")
        abort = Request(
            id=next(self._facade_abort_ids),
            ta=state.ta,
            intrata=0,
            operation=Operation.ABORT,
        )
        self._surface_abort(state, abort, recovery, kind, now)
        if self.metrics is not None:
            self.metrics.incr("scheduler.xshard.giveups")

    def _translate_recovery(
        self,
        kind: str,
        source: int,
        shard_ta: int,
        abort: Request,
        recovery: RecoveryActions,
        handled: set[int],
        now: float,
    ) -> None:
        """A shard's recovery machinery aborted one of our incarnations
        (deadlock timeout, orphan lease, admission shed): mirror the
        abort to the other owning shards and surface it once, keyed by
        the client's original transaction number."""
        state = self._by_incarnation.get(shard_ta)
        if state is None:
            getattr(recovery, kind).append((shard_ta, abort))
            return
        if state.ta in handled:
            return
        handled.add(state.ta)
        terminal = "shed" if kind == "sheds" else "aborted"
        for owner in sorted(state.owners):
            if owner != source:
                self.shards[owner].abort_transaction(
                    state.incarnation, now, reason=f"xshard-{kind}", kind=terminal
                )
        for fid in list(state.alias_ids):
            self._requests.pop(fid, None)
        if state.term_id is not None:
            self._requests.pop(state.term_id, None)
        original = abort if abort.ta == state.ta else replace(abort, ta=state.ta)
        self._surface_abort(state, original, recovery, kind, now)

    def _surface_abort(
        self,
        state: _TaState,
        abort: Request,
        recovery: RecoveryActions,
        kind: str,
        now: float,
    ) -> None:
        terminal = "shed" if kind == "sheds" else "aborted"
        unreported = [
            state.statements[i].id
            for i in range(len(state.statements))
            if i not in state.reported
        ]
        if state.termination is not None:
            unreported.append(state.termination.id)
        if self._monitor is not None:
            if unreported:
                self._monitor.note_terminal(unreported, terminal, now)
            self._monitor.note_dispatch(now, abort)
        getattr(recovery, kind).append((state.ta, abort))
        self._finish(state)

    def _finish(self, state: _TaState) -> None:
        for fid in list(state.alias_ids):
            self._requests.pop(fid, None)
        if state.term_id is not None:
            self._requests.pop(state.term_id, None)
        self._states.pop(state.ta, None)
        self._by_incarnation.pop(state.incarnation, None)
        self._by_incarnation.pop(state.ta, None)

    # -- introspection -------------------------------------------------------

    def _work_remains(self) -> bool:
        if self._route_queue:
            return True
        if any(
            len(shard.incoming) or len(shard.pending) for shard in self.shards
        ):
            return True
        return any(
            state.parked_until is not None for state in self._states.values()
        )

    def _timers_armed(self) -> bool:
        return any(
            self._timer_due(state) is not None
            for state in self._states.values()
        )

    def _pending_snapshot(self) -> list[Request]:
        return [
            request
            for shard in self.shards
            for request in shard._pending_snapshot()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedScheduler(shards={len(self.shards)}, "
            f"protocol={self.protocol.name})"
        )
