"""The declarative scheduler component.

:class:`DeclarativeScheduler` wires together the pieces of the paper's
Figure 1: incoming queue → pending/history stores → protocol query →
batch dispatch.  It is synchronous and time-agnostic — callers supply
``now`` — so the same object serves unit tests (manual stepping), the
virtual-time middleware simulation, and wall-clock measurement of the
declarative overhead (E5).

Robustness extensions (all opt-in; a scheduler built without them
behaves exactly as before):

* ``recovery`` (:class:`~repro.faults.recovery.RecoveryPolicy`) makes
  abort-and-retry first-class: per-transaction pending timeouts with
  exponential backoff, and orphan reaping for crashed clients (their
  granted-but-never-released requests are aborted after a lease).
* ``admission`` (:class:`~repro.faults.admission.AdmissionPolicy`)
  bounds the pending table, shedding whole transactions on overload.
* ``fault_hook`` is called at the very top of :meth:`step` (before any
  state changes) — the injection point for forced step exceptions.
* ``monitor`` (:class:`~repro.faults.invariants.InvariantMonitor`)
  observes submissions, terminal states, and every step.

Two seams let the *same* engine serve both the virtual-time simulator
and the wall-clock serving layer (:mod:`repro.serve`):

* ``clock`` — a zero-argument callable supplying ``now`` whenever a
  caller does not pass one.  The default clock pins ``now`` to 0.0,
  preserving the historical time-agnostic behaviour; the simulator
  keeps passing virtual times explicitly, and the serving layer
  installs a monotonic wall clock.
* ``step_hooks`` — callables invoked with every
  :class:`SchedulerStepResult` at the end of :meth:`step`, after
  recovery ran.  The serving layer uses one to resolve grant futures;
  drivers can attach trace writers the same way.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.queue import IncomingQueue
from repro.core.stores import HistoryStore, PendingStore
from repro.core.triggers import FillLevelTrigger, TriggerPolicy
from repro.faults.admission import AdmissionPolicy
from repro.faults.invariants import InvariantMonitor
from repro.faults.recovery import RecoveryPolicy
from repro.metrics.collector import MetricsCollector
from repro.model.request import NO_OBJECT, Operation, Request
from repro.protocols.base import Protocol, ProtocolDecision


@dataclass(frozen=True, slots=True)
class SchedulerCostModel:
    """Virtual-time model of one scheduler step's own cost.

    Fitted to wall-clock measurements of the relalg backend (the E5
    bench measures the real thing; these constants let the virtual-time
    middleware simulation charge a deterministic, host-independent cost):
    a fixed dispatch overhead plus a per-row term over the scanned
    pending+history rows.
    """

    fixed_cost: float = 2.0e-3
    per_row_cost: float = 8.0e-6

    def step_cost(self, pending_rows: int, history_rows: int) -> float:
        return self.fixed_cost + self.per_row_cost * (pending_rows + history_rows)


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """Knobs of the scheduler component.

    ``prune_history`` keeps only requests of active transactions in the
    history store (the paper stores "all *relevant* prior executed
    requests"); disabling it is the history-pruning ablation.
    """

    prune_history: bool = True
    max_batch: Optional[int] = None


@dataclass
class RecoveryActions:
    """What the recovery/admission machinery did during one step.

    Each entry pairs the affected transaction with the abort request
    synthesized into history on its behalf (drivers record these into
    traces and restart the owning clients)."""

    timeouts: list[tuple[int, Request]] = field(default_factory=list)
    orphans: list[tuple[int, Request]] = field(default_factory=list)
    sheds: list[tuple[int, Request]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.timeouts or self.orphans or self.sheds)


@dataclass
class SchedulerStepResult:
    """Telemetry of one scheduler step."""

    now: float
    drained: int
    pending_before: int
    pending_after: int
    history_rows: int
    qualified: list[Request] = field(default_factory=list)
    query_seconds: float = 0.0
    denials: dict[int, str] = field(default_factory=dict)
    recovery: RecoveryActions = field(default_factory=RecoveryActions)

    @property
    def batch_size(self) -> int:
        return len(self.qualified)


class SchedulerStalledError(RuntimeError):
    """The scheduler can make no further progress while requests remain.

    Carries a snapshot of the pending table and the protocol's
    per-request denial reasons, so a stall is diagnosable instead of a
    bare message: which requests are stuck, and why the protocol keeps
    refusing each of them.
    """

    def __init__(
        self,
        message: str,
        pending_snapshot: list[Request],
        denials: dict[int, str],
        steps_run: int = 0,
    ) -> None:
        super().__init__(message)
        self.pending_snapshot = pending_snapshot
        self.denials = denials
        self.steps_run = steps_run

    def describe(self) -> str:
        """Multi-line report: every stuck request and its denial reason."""
        lines = [str(self), f"after {self.steps_run} steps, stuck requests:"]
        for request in self.pending_snapshot:
            reason = self.denials.get(request.id, "no reason attributed")
            lines.append(f"  {request} (id={request.id}): {reason}")
        return "\n".join(lines)


def _ZERO_CLOCK() -> float:
    """Default clock: callers that never pass ``now`` see 0.0, exactly
    as before the clock seam existed."""
    return 0.0


class DeclarativeScheduler:
    """The middleware scheduler of Figure 1 (see module docstring).

    Parameters
    ----------
    protocol:
        The declarative rule set to evaluate each step.
    trigger:
        Trigger policy; defaults to a fill level of 1 (every request
        arrival makes the scheduler eligible to run).
    config, metrics:
        Optional behaviour knobs and instrumentation sink.
    recovery, admission:
        Optional abort/retry recovery and admission-control policies
        (see module docstring).
    """

    def __init__(
        self,
        protocol: Protocol,
        trigger: Optional[TriggerPolicy] = None,
        config: SchedulerConfig = SchedulerConfig(),
        metrics: Optional[MetricsCollector] = None,
        recovery: Optional[RecoveryPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.protocol = protocol
        self.trigger = trigger if trigger is not None else FillLevelTrigger(1)
        self.config = config
        self.metrics = metrics
        self.recovery = recovery
        self.admission = admission
        #: Supplies ``now`` when a caller passes none; defaults to a
        #: constant 0.0 (the historical time-agnostic behaviour).
        self.clock: Callable[[], float] = clock if clock is not None else _ZERO_CLOCK
        #: Called with each step's result at the very end of :meth:`step`.
        self.step_hooks: list[Callable[[SchedulerStepResult], None]] = []
        self.incoming = IncomingQueue()
        self.pending = PendingStore()
        self.history = HistoryStore()
        self.steps_run = 0
        self.total_query_seconds = 0.0
        #: Injection point for forced step exceptions: called with the
        #: step index before the step touches any state; may raise.
        self.fault_hook: Optional[Callable[[int], None]] = None
        #: Optional runtime invariant monitor.
        self.monitor: Optional[InvariantMonitor] = None
        # Recovery/admission bookkeeping (only maintained when a policy
        # needs it; the fault-free fast path skips all of it).
        self._abort_ids = itertools.count(-1, -1)
        self._pending_since: dict[int, float] = {}
        #: A lower bound on the oldest value in ``_pending_since`` (see
        #: :meth:`_recover`): lowered by every arming, recomputed only
        #: when a timeout sweep runs.
        self._pending_since_floor = math.inf
        #: Request id -> drain order of each pending row, so the
        #: transactions a step arms enter ``_pending_since`` in pending
        #: table order without walking the table.
        self._drain_seq: dict[int, int] = {}
        self._drain_seqs = itertools.count()
        self._client_of_ta: dict[int, int] = {}
        self._priority_of_ta: dict[int, int] = {}
        self._arrival_of_ta: dict[int, float] = {}
        self._retries_of_client: dict[int, int] = {}
        self._crashed_clients: dict[int, float] = {}
        self._orphaned_at: dict[int, float] = {}

    @property
    def _tracking(self) -> bool:
        """True when per-transaction bookkeeping must be maintained."""
        return self.recovery is not None or self.admission is not None

    # -- client-facing ----------------------------------------------------------

    def submit(self, request: Request, now: Optional[float] = None) -> None:
        """Buffer one request in the incoming queue (client worker path)."""
        if now is None:
            now = self.clock()
        self.incoming.enqueue(request, now)
        if self.monitor is not None:
            self.monitor.note_submitted(request, now)
        if self.metrics is not None:
            self.metrics.incr("scheduler.submitted")

    def should_run(self, now: Optional[float] = None) -> bool:
        """Evaluate the trigger condition."""
        if now is None:
            now = self.clock()
        if len(self.incoming) == 0 and len(self.pending) == 0:
            # The empty fast path must not starve recovery: an orphaned
            # transaction whose lease has expired still holds logical
            # locks in history, and only a step's recovery sweep can
            # reap it.  (Timeout aborts need no such check — their
            # clocks are armed by rows sitting in pending.)
            return self._orphan_reap_due(now)
        if self.trigger.should_fire(self.incoming, now):
            return True
        if len(self.pending) > 0:
            # Blocked requests sit in pending; a step can still free them
            # once history changes, but the re-check is paced by the
            # trigger's own clock (``next_check``), not unconditional —
            # purely fill-driven triggers stay enqueue-driven.
            next_check = self.trigger.next_check(now)
            return next_check is not None and now >= next_check
        return False

    def _orphan_reap_due(self, now: float) -> bool:
        """True when some orphan's lease has expired and a recovery
        sweep would abort it right now."""
        if self.recovery is None or not self._orphaned_at:
            return False
        lease = self.recovery.orphan_lease
        return any(
            ta in self._client_of_ta and now - orphaned_at >= lease
            for ta, orphaned_at in self._orphaned_at.items()
        )

    def next_recovery_due(self, now: Optional[float] = None) -> Optional[float]:
        """Earliest future time at which the recovery policy would act
        (a pending-age timeout expiring or an orphan lease running out),
        or None when no recovery work is armed.

        The serving layer's pacing loop uses this to schedule a wake-up:
        recovery only runs inside :meth:`step`, so a driver that stops
        submitting must still step the scheduler at these deadlines.
        """
        if self.recovery is None:
            return None
        deadlines: list[float] = []
        for ta, since in self._pending_since.items():
            client = self._client_of_ta.get(ta, 0)
            retries = self._retries_of_client.get(client, 0)
            deadlines.append(since + self.recovery.timeout_for(retries))
        for ta, orphaned_at in self._orphaned_at.items():
            if ta in self._client_of_ta:
                deadlines.append(orphaned_at + self.recovery.orphan_lease)
        if not deadlines:
            return None
        return min(deadlines)

    # -- crash notifications (recovery) -----------------------------------------

    def note_client_crashed(self, client_id: int, now: float) -> None:
        """A client connection died; its active transactions become
        orphans and are reaped once the recovery policy's lease expires.

        Orphan deadlines are per-transaction (stamped here, and at drain
        time for requests still in the incoming queue when the crash
        hit), so a client that reconnects before the lease expires does
        not resurrect its old transactions — and its *new* transactions
        are never mistaken for orphans."""
        self._crashed_clients.setdefault(client_id, now)
        for ta, client in self._client_of_ta.items():
            if client == client_id:
                self._orphaned_at.setdefault(ta, now)

    def note_client_recovered(self, client_id: int) -> None:
        """The client reconnected (fresh session; its pre-crash
        transactions stay marked as orphans — the new session cannot
        adopt them)."""
        self._crashed_clients.pop(client_id, None)
        self._retries_of_client.pop(client_id, None)

    def retries_of_client(self, client_id: int) -> int:
        return self._retries_of_client.get(client_id, 0)

    # -- the scheduler step -------------------------------------------------------

    def step(self, now: Optional[float] = None) -> SchedulerStepResult:
        """Run one full scheduler step (Figure 1 steps 1-4 up to
        dispatch; the caller sends the returned batch to its server)."""
        if now is None:
            now = self.clock()
        if self.fault_hook is not None:
            # Before any state changes: an injected failure here must
            # leave queue/stores untouched so a retried step sees the
            # exact pre-fault state.
            self.fault_hook(self.steps_run)
        drained_requests = self.incoming.drain()
        self.pending.insert_batch(drained_requests)
        if self._tracking:
            for request in drained_requests:
                self._drain_seq[request.id] = next(self._drain_seqs)
                client = request.attrs.client_id
                self._client_of_ta.setdefault(request.ta, client)
                self._arrival_of_ta.setdefault(request.ta, now)
                self._priority_of_ta.setdefault(request.ta, request.attrs.priority)
                if client in self._crashed_clients:
                    # The crash raced the incoming queue: this request
                    # was already in flight when its client died.
                    self._orphaned_at.setdefault(
                        request.ta, self._crashed_clients[client]
                    )
        recovery_actions = RecoveryActions()
        if self.admission is not None:
            self._shed_overload(now, recovery_actions)
        pending_before = len(self.pending)
        history_rows = len(self.history)

        if pending_before == 0:
            # Nothing to schedule: skip the protocol query entirely (and
            # charge no query_seconds) — an empty pending table always
            # yields an empty batch.
            decision = ProtocolDecision()
            query_seconds = 0.0
        else:
            started = time.perf_counter()
            decision = self.protocol.schedule(
                self.pending.table, self.history.table
            )
            query_seconds = time.perf_counter() - started

        qualified = [self.pending.rehydrate(r) for r in decision.qualified]
        if self.config.max_batch is not None:
            qualified = qualified[: self.config.max_batch]
        self.pending.remove(qualified)
        self.history.record_batch(qualified)
        self.protocol.observe_executed(qualified)
        self.prune_history()

        self.steps_run += 1
        self.total_query_seconds += query_seconds
        self.trigger.notify_fired(now)

        if self._tracking:
            self._note_progress(drained_requests, qualified, now)
        result = SchedulerStepResult(
            now=now,
            drained=len(drained_requests),
            pending_before=pending_before,
            pending_after=len(self.pending),
            history_rows=history_rows,
            qualified=qualified,
            query_seconds=query_seconds,
            denials=decision.denials,
            recovery=recovery_actions,
        )
        if self.monitor is not None:
            # Check (and record dispatches into the violation trace)
            # before the recovery sweep, so the monitor's trace lists a
            # step's grants before its recovery aborts — the same order
            # drivers write their own dispatch logs in.
            self.monitor.after_step(self, result, now)
        if self.recovery is not None:
            self._recover(now, recovery_actions)
        if self.metrics is not None:
            self.metrics.incr("scheduler.steps")
            self.metrics.incr("scheduler.qualified", len(qualified))
            self.metrics.timer("scheduler.query").add(query_seconds)
            self.metrics.gauge("scheduler.pending", len(self.pending))
            self.metrics.gauge("scheduler.history", len(self.history))
            if recovery_actions.timeouts:
                self.metrics.incr(
                    "scheduler.timeout_aborts", len(recovery_actions.timeouts)
                )
            if recovery_actions.orphans:
                self.metrics.incr(
                    "scheduler.orphan_reaps", len(recovery_actions.orphans)
                )
            if recovery_actions.sheds:
                self.metrics.incr(
                    "scheduler.sheds", len(recovery_actions.sheds)
                )
            if pending_before:
                # Only when the protocol query actually ran: on the
                # empty-pending fast path the evaluator's last-step
                # snapshot is stale and would double-count.
                stats = self.protocol.maintenance_stats()
                if stats:
                    self.metrics.record_maintenance(
                        stats, prefix="scheduler.delta"
                    )

        for hook in self.step_hooks:
            hook(result)
        return result

    def prune_history(self) -> None:
        """Drop the history rows of finished transactions (when the
        config prunes at all) and tell the protocol which ones went."""
        if self.config.prune_history:
            pruned = self.history.prune_finished()
            if pruned:
                self.protocol.observe_pruned(pruned)

    # -- recovery internals ------------------------------------------------------

    def _note_progress(
        self, drained: list[Request], qualified: list[Request], now: float
    ) -> None:
        """Update per-transaction timers/bookkeeping after a dispatch."""
        for request in qualified:
            self._drain_seq.pop(request.id, None)
            self._pending_since.pop(request.ta, None)
            if request.operation.is_termination:
                client = self._client_of_ta.pop(request.ta, None)
                self._arrival_of_ta.pop(request.ta, None)
                self._priority_of_ta.pop(request.ta, None)
                if request.is_commit and client is not None:
                    # A commit ends the retry episode: the client's next
                    # transaction starts with a fresh timeout.
                    self._retries_of_client.pop(client, None)
        # Arm the pending clock of every transaction that has work
        # sitting in the table and no clock running.  Rows enter the
        # table through the drain only and a clock stops only above, so
        # those are among the transactions drained or granted this step;
        # they are armed in the order of their first pending rows, the
        # order a timeout sweep later aborts them in.
        pending_since = self._pending_since
        table = self.pending.table
        by_ta = table.index_on("ta").buckets
        id_pos = table.schema.resolve("id")
        to_arm = []
        for ta in dict.fromkeys(
            r.ta for r in itertools.chain(drained, qualified)
        ):
            if ta not in pending_since:
                rows = by_ta.get((ta,))
                if rows:
                    to_arm.append((self._drain_seq[rows[0][id_pos]], ta))
        if to_arm:
            to_arm.sort()
            for __, ta in to_arm:
                pending_since[ta] = now
            if now < self._pending_since_floor:
                self._pending_since_floor = now

    def _recover(self, now: float, actions: RecoveryActions) -> None:
        """Timeout aborts (with per-client backoff) and orphan reaping."""
        policy = self.recovery
        # No timeout is shorter than ``request_timeout`` (the backoff
        # factor is >= 1) and no clock is older than the floor, so while
        # the floor is within ``request_timeout`` of ``now`` nothing can
        # have expired and the sweep is skipped.
        if now - self._pending_since_floor > policy.request_timeout:
            floor = math.inf
            for ta, since in list(self._pending_since.items()):
                client = self._client_of_ta.get(ta, 0)
                timeout = policy.timeout_for(
                    self._retries_of_client.get(client, 0)
                )
                if now - since > timeout:
                    abort = self.abort_transaction(ta, now, reason="timeout")
                    self._retries_of_client[client] = (
                        self._retries_of_client.get(client, 0) + 1
                    )
                    actions.timeouts.append((ta, abort))
                elif since < floor:
                    floor = since
            self._pending_since_floor = floor
        for ta, orphaned_at in list(self._orphaned_at.items()):
            if ta not in self._client_of_ta:
                # Finished (or already aborted) before the lease expired.
                self._orphaned_at.pop(ta)
                continue
            if now - orphaned_at >= policy.orphan_lease:
                self._orphaned_at.pop(ta)
                abort = self.abort_transaction(ta, now, reason="orphan")
                actions.orphans.append((ta, abort))

    def _shed_overload(self, now: float, actions: RecoveryActions) -> None:
        """Bounded pending table: shed whole transactions on overload."""
        total_rows = len(self.pending)
        if total_rows <= self.admission.max_pending:
            return
        ta_pos = self.pending.table.schema.resolve("ta")
        rows_by_ta: dict[int, int] = {}
        for row in self.pending.table.rows:
            ta = row[ta_pos]
            rows_by_ta[ta] = rows_by_ta.get(ta, 0) + 1
        retries_of_ta = {
            ta: self._retries_of_client.get(client, 0)
            for ta, client in self._client_of_ta.items()
        }
        victims = self.admission.choose_victims(
            rows_by_ta,
            self._priority_of_ta,
            retries_of_ta,
            self._arrival_of_ta,
            total_rows,
        )
        for ta in victims:
            abort = self.abort_transaction(ta, now, reason="shed", kind="shed")
            actions.sheds.append((ta, abort))

    def abort_transaction(
        self, ta: int, now: float = 0.0, reason: str = "abort", kind: str = "aborted"
    ) -> Request:
        """First-class abort: remove the transaction's pending rows and
        synthesize an ``a`` request into history, releasing its logical
        locks.  Returns the synthesized abort request (negative id —
        scheduler-originated, never colliding with workload ids)."""
        table = self.pending.table
        id_pos = table.schema.resolve("id")
        doomed = table.lookup(("ta",), (ta,))
        doomed_ids = [row[id_pos] for row in doomed]
        if doomed:
            table.delete_rows(doomed)
            for request_id in doomed_ids:
                table.attrs_by_id.pop(request_id, None)
                self._drain_seq.pop(request_id, None)
        abort = Request(
            id=next(self._abort_ids),
            ta=ta,
            intrata=0,
            operation=Operation.ABORT,
            obj=NO_OBJECT,
        )
        self.history.record_batch([abort])
        self.protocol.observe_executed([abort])
        self.prune_history()
        self._pending_since.pop(ta, None)
        self._client_of_ta.pop(ta, None)
        self._arrival_of_ta.pop(ta, None)
        self._priority_of_ta.pop(ta, None)
        if self.monitor is not None:
            self.monitor.note_terminal(doomed_ids, kind, now)
            self.monitor.note_dispatch(now, abort)
        if self.metrics is not None:
            self.metrics.incr(f"scheduler.abort.{reason}")
        return abort

    # -- convenience -----------------------------------------------------------------

    def run_until_drained(
        self,
        max_steps: int = 10_000,
        on_batch: Optional[Callable[[SchedulerStepResult], None]] = None,
    ) -> list[SchedulerStepResult]:
        """Step repeatedly until no pending/incoming requests remain.

        Raises :class:`SchedulerStalledError` when a step makes no
        progress while requests remain (a protocol that permanently
        denies something — e.g. conflicting requests whose blocker
        never terminates), carrying the pending snapshot and the
        per-request denial reasons."""
        results: list[SchedulerStepResult] = []
        for __ in range(max_steps):
            if len(self.incoming) == 0 and len(self.pending) == 0:
                return results
            result = self.step(now=float(len(results)))
            results.append(result)
            if on_batch is not None:
                on_batch(result)
            if (
                result.batch_size == 0
                and result.drained == 0
                and not result.recovery
            ):
                raise SchedulerStalledError(
                    f"scheduler stalled with {len(self.pending)} pending "
                    f"requests; protocol {self.protocol.name} denies: "
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

    def _pending_snapshot(self) -> list[Request]:
        """Re-hydrated copies of every request stuck in the pending table."""
        return [
            self.pending.rehydrate(Request.from_row(row))
            for row in self.pending.table.rows
        ]
