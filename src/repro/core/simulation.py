"""Closed-loop virtual-time simulation of the full middleware stack.

This is the multi-user test bed the paper plans for its evaluation
(Section 3.4): N clients connect to the declarative scheduler, each
submitting one request at a time and waiting for its result; the
scheduler batches, runs its protocol, and dispatches qualified batches
to a :class:`~repro.server.engine.BatchServer` whose own scheduling is
bypassed.  Time is virtual (deterministic); the scheduler's own query
cost is charged via :class:`~repro.core.scheduler.SchedulerCostModel`.

Because a blocked request just stays in the pending table, two
transactions can block each other (the set-at-a-time analogue of a
deadlock).  The paper's Listing 1 does not address this; the scheduler
resolves it under its ``recovery`` policy
(:class:`~repro.faults.recovery.RecoveryPolicy`, by default
:data:`~repro.faults.recovery.RESTART_ON_TIMEOUT`): a transaction whose
request has been pending longer than the policy's ``request_timeout``
is aborted by the scheduler (an ``a`` request is written into history,
releasing its locks) and its client starts a fresh transaction.  Every
abort of a run goes through the scheduler; the simulation only reacts
to the aborts a step reports.  A policy with a retry budget retries
the same profile under a fresh transaction number instead; every
policy reaps the transactions of crashed clients.

Robustness mode (all opt-in):

* ``faults`` (:class:`~repro.faults.spec.FaultPlan`) injects client
  crashes/stalls, request drops, clock jumps, and forced scheduler-step
  exceptions, all sampled deterministically from the run seed.
* ``admission`` (:class:`~repro.faults.admission.AdmissionPolicy`)
  bounds the pending table; shed transactions are retried like aborts.
* ``check_invariants`` attaches an
  :class:`~repro.faults.invariants.InvariantMonitor` that asserts the
  scheduler's safety invariants after every step and request-lifecycle
  totality at the end of the run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.scheduler import (
    DeclarativeScheduler,
    SchedulerConfig,
    SchedulerCostModel,
)
from repro.core.triggers import TriggerPolicy
from repro.faults.admission import AdmissionPolicy
from repro.faults.injector import InjectedStepFault
from repro.faults.invariants import InvariantMonitor, lock_model_of
from repro.faults.recovery import RESTART_ON_TIMEOUT, RecoveryPolicy
from repro.faults.spec import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.model.request import (
    NO_OBJECT,
    Operation,
    Request,
    RequestAttributes,
)
from repro.protocols.base import Protocol
from repro.server.costmodel import CostModel, PAPER_CALIBRATION
from repro.server.engine import BatchServer
from repro.sim.simulator import Simulator
from repro.workload.generator import TransactionFactory
from repro.workload.spec import WorkloadSpec
from repro.workload.traces import Trace


@dataclass
class MiddlewareResult:
    """Outcome of one closed-loop middleware run."""

    clients: int
    duration: float
    completed_statements: int = 0
    committed_transactions: int = 0
    #: Aborts by the recovery policy's pending timeout.
    timeout_aborts: int = 0
    scheduler_runs: int = 0
    scheduler_cost: float = 0.0
    server_busy: float = 0.0
    batch_sizes: list[int] = field(default_factory=list)
    #: Per-SLA-class response-time samples (seconds).
    response_times: dict[str, list[float]] = field(default_factory=dict)
    #: Dispatched-request log (dispatch order), when recording was on.
    trace: Optional["Trace"] = None
    # -- robustness / recovery telemetry --
    #: Closed-loop no-progress re-arms (the scheduler ran but granted
    #: nothing and the blocked requests forced a timed re-check).
    stall_rearms: int = 0
    #: Transaction retries (same profile resubmitted under a new ta).
    retries: int = 0
    #: Transactions abandoned after exhausting the retry budget.
    retry_budget_exhausted: int = 0
    #: Transactions shed by admission control.
    sheds: int = 0
    #: Orphaned transactions reaped after their client crashed.
    reaped_orphans: int = 0
    #: Injected fault occurrences.
    crashes: int = 0
    stalls: int = 0
    drops: int = 0
    clock_jumps: int = 0
    step_faults: int = 0
    #: Disruption → next-commit latencies (time-to-recover samples).
    recovery_times: list[float] = field(default_factory=list)
    #: Statements of *committed* transactions only (work that survived).
    goodput_statements: int = 0
    #: Invariant checks executed (0 when monitoring was off).
    invariant_checks: int = 0
    #: Cumulative delta/plan-cache maintenance counters from the
    #: protocol's backend (None unless the backend keeps incrementally
    #: maintained state — e.g. ``compiled-delta``).
    delta_maintenance: Optional[dict] = None

    @property
    def throughput(self) -> float:
        return self.completed_statements / self.duration if self.duration else 0.0

    @property
    def goodput(self) -> float:
        return self.goodput_statements / self.duration if self.duration else 0.0

    @property
    def aborts(self) -> int:
        """All scheduler-synthesized aborts (timeouts + orphan reaps)."""
        return self.timeout_aborts + self.reaped_orphans

    @property
    def mean_recovery_time(self) -> float:
        if not self.recovery_times:
            return 0.0
        return sum(self.recovery_times) / len(self.recovery_times)

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def mean_response(self, sla_class: Optional[str] = None) -> float:
        if sla_class is None:
            samples = [s for v in self.response_times.values() for s in v]
        else:
            samples = self.response_times.get(sla_class, [])
        return sum(samples) / len(samples) if samples else 0.0


class _SimClient:
    """One closed-loop client: transaction iterator + outstanding state."""

    __slots__ = (
        "index",
        "factory",
        "attrs",
        "ta",
        "statements",
        "position",
        "crashed",
        "attempt",
        "drops_in_row",
        "epoch",
        "outstanding",
    )

    def __init__(self, index: int, factory: TransactionFactory, attrs) -> None:
        self.index = index
        self.factory = factory
        self.attrs = attrs
        self.ta = -1
        self.statements = []
        self.position = 0
        self.crashed = False
        #: Retries of the current transaction profile (0 = first try).
        self.attempt = 0
        #: Consecutive drops of the current statement submission.
        self.drops_in_row = 0
        #: Generation counter: bumped whenever the client's submit chain
        #: is (re)started or torn down, so deferred continuations (stall
        #: resumes, drop backoffs, scheduled restarts) can detect they
        #: belong to a superseded chain and die instead of running a
        #: second concurrent chain over the shared ``position``.
        self.epoch = 0
        #: Id of the last submitted request: the one a closed-loop
        #: client waits on, which an abort of its transaction removes.
        self.outstanding = -1


class MiddlewareSimulation:
    """Virtual-time closed-loop run of clients → scheduler → server."""

    def __init__(
        self,
        protocol: Protocol,
        trigger: TriggerPolicy,
        spec: WorkloadSpec,
        clients: int,
        seed: int = 0,
        cost_model: CostModel = PAPER_CALIBRATION,
        scheduler_cost: SchedulerCostModel = SchedulerCostModel(),
        attrs_for_client=None,
        scheduler_config: SchedulerConfig = SchedulerConfig(),
        record_trace: bool = False,
        start_delay_for_client=None,
        faults: Optional[FaultPlan] = None,
        recovery: RecoveryPolicy = RESTART_ON_TIMEOUT,
        admission: Optional[AdmissionPolicy] = None,
        check_invariants: bool = False,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        if clients <= 0:
            raise ValueError("clients must be positive")
        self.protocol = protocol
        self.trigger = trigger
        self.spec = spec
        self.clients = clients
        self.seed = seed
        self.cost_model = cost_model
        self.scheduler_cost = scheduler_cost
        self.attrs_for_client = attrs_for_client
        self.scheduler_config = scheduler_config
        self.record_trace = record_trace
        #: Optional ``client_index -> virtual start time`` map for open
        #: arrival patterns (bursty waves, ramp-ups); default all at 0.
        self.start_delay_for_client = start_delay_for_client
        self.faults = faults
        self.recovery = recovery
        self.admission = admission
        self.check_invariants = check_invariants
        self.metrics = metrics

    def run(self, duration: float) -> MiddlewareResult:
        sim = Simulator()
        rng = random.Random(self.seed)
        scheduler = DeclarativeScheduler(
            self.protocol,
            trigger=self.trigger,
            config=self.scheduler_config,
            recovery=self.recovery,
            admission=self.admission,
            metrics=self.metrics,
        )
        monitor: Optional[InvariantMonitor] = None
        if self.check_invariants:
            monitor = InvariantMonitor(lock_model_of(self.protocol))
            scheduler.monitor = monitor
        injector = (
            self.faults.build(seed=self.seed, clients=self.clients, duration=duration)
            if self.faults is not None
            else None
        )
        if injector is not None and injector.has_step_faults:
            scheduler.fault_hook = injector.check_step
        server = BatchServer(self.cost_model)
        result = MiddlewareResult(clients=self.clients, duration=duration)
        if self.record_trace:
            result.trace = Trace()
        ta_counter = itertools.count(1)
        id_counter = itertools.count(1)
        submit_times: dict[int, float] = {}
        client_of_ta: dict[int, _SimClient] = {}
        #: Request ids lost in transit (accounted for in the final
        #: lifecycle-totality check: dropped, not lost by the scheduler).
        dropped_ids: set[int] = set()
        #: Start of the current disruption episode (crash/abort/shed);
        #: closed by the next commit anywhere in the system.
        disruption_since: Optional[float] = None
        end = duration

        clients = []
        for index in range(self.clients):
            attrs = (
                self.attrs_for_client(index)
                if self.attrs_for_client is not None
                else RequestAttributes(client_id=index)
            )
            factory = TransactionFactory(
                self.spec, random.Random(rng.randrange(2**63))
            )
            clients.append(_SimClient(index, factory, attrs))

        def note_disruption() -> None:
            nonlocal disruption_since
            if disruption_since is None:
                disruption_since = sim.now

        def begin_transaction(client: _SimClient, retry: bool = False) -> None:
            if client.crashed:
                return
            client.epoch += 1
            client.ta = next(ta_counter)
            if not retry:
                client.statements = client.factory.next_profile()
                client.attempt = 0
            client.position = 0
            client_of_ta[client.ta] = client
            submit_next(client)

        def later(client: _SimClient, action, *args):
            """``action(client, *args)`` as a continuation of the
            client's *current* submit chain.

            Captures the chain epoch: if the transaction is aborted,
            retried, or the client restarts before the continuation
            fires, the stale callback dies instead of racing the new
            chain (two chains over one shared ``position`` dispatch
            intrata out of order — a monotonicity violation).
            """
            epoch = client.epoch

            def fire() -> None:
                if client.epoch == epoch:
                    action(client, *args)

            return fire

        def submit_next(client: _SimClient, resumed: bool = False) -> None:
            if sim.now >= end or client.crashed:
                return
            if injector is not None and not resumed:
                stall = injector.stall_before_submit(client.index)
                if stall is not None:
                    result.stalls += 1
                    sim.schedule(stall, later(client, submit_next, True))
                    return
            if client.position < len(client.statements):
                stmt = client.statements[client.position]
                operation, obj = stmt.operation, stmt.obj
            else:
                operation, obj = Operation.COMMIT, NO_OBJECT
            request = Request(
                id=next(id_counter),
                ta=client.ta,
                intrata=client.position,
                operation=operation,
                obj=obj,
                attrs=client.attrs,
            )
            if injector is not None and injector.drop_request(client.index):
                drop_submission(client, request)
                return
            client.drops_in_row = 0
            scheduler.submit(request, sim.now)
            submit_times[request.id] = sim.now
            client.outstanding = request.id
            arm_trigger()

        def drop_submission(client: _SimClient, request: Request) -> None:
            """The submission was lost in transit: account for the id,
            then resubmit the same statement with backoff — or give up
            on the transaction when the retry budget is exhausted."""
            result.drops += 1
            dropped_ids.add(request.id)
            if monitor is not None:
                monitor.note_submitted(request, sim.now)
                monitor.note_dropped(request.id, sim.now)
            client.drops_in_row += 1
            if client.drops_in_row > self.recovery.max_retries:
                # Give up: abort the half-submitted transaction so any
                # logical locks it already acquired are released.
                abort = scheduler.abort_transaction(
                    client.ta, sim.now, reason="drop-budget"
                )
                if result.trace is not None:
                    result.trace.record(sim.now, abort)
                client.drops_in_row = 0
                finish_aborted(client.ta, then=abandon)
                return
            delay = self.recovery.restart_delay_for(
                client.drops_in_row, self.recovery.retry_delay
            )
            sim.schedule(delay, later(client, submit_next, True))

        step_event = None
        step_event_time = float("inf")

        def schedule_step_at(at_time: float) -> None:
            """Schedule (or pull earlier) the next scheduler step."""
            nonlocal step_event, step_event_time
            at_time = max(at_time, sim.now)
            if at_time > end:
                return
            if step_event is not None and step_event_time <= at_time:
                return
            if step_event is not None:
                sim.cancel(step_event)
            step_event_time = at_time
            step_event = sim.schedule_at(at_time, run_step)

        def arm_trigger() -> None:
            if sim.now >= end:
                return
            if self.trigger.should_fire(scheduler.incoming, sim.now):
                schedule_step_at(sim.now)
                return
            next_check = self.trigger.next_check(sim.now)
            if next_check is not None:
                schedule_step_at(next_check)
            elif len(scheduler.incoming):
                # Purely fill-driven triggers can starve when fewer than
                # `threshold` clients remain unblocked; a watchdog step
                # after the request timeout bounds that starvation
                # (and lets timed-out transactions be aborted).
                schedule_step_at(sim.now + self.recovery.request_timeout)

        def run_step() -> None:
            nonlocal step_event, step_event_time
            step_event = None
            step_event_time = float("inf")
            if sim.now >= end:
                return
            try:
                step = scheduler.step(sim.now)
            except InjectedStepFault:
                # The step failed before touching any state; treat it as
                # a transient internal error and retry shortly.
                result.step_faults += 1
                if self.metrics is not None:
                    self.metrics.incr("sim.step_faults")
                schedule_step_at(sim.now + 1e-3)
                return
            result.scheduler_runs += 1
            cost = self.scheduler_cost.step_cost(
                step.pending_before, step.history_rows
            )
            result.scheduler_cost += cost
            batch = step.qualified
            if result.trace is not None:
                # Mirror the scheduler-internal order (admission sheds
                # happen before the protocol query, recovery aborts
                # after dispatch) so this log and the invariant
                # monitor's violation trace are byte-compatible.
                for __, abort in step.recovery.sheds:
                    result.trace.record(sim.now, abort)
                for request in batch:
                    result.trace.record(sim.now, request)
                for __, abort in step.recovery.timeouts:
                    result.trace.record(sim.now, abort)
                for __, abort in step.recovery.orphans:
                    result.trace.record(sim.now, abort)
            if batch:
                result.batch_sizes.append(len(batch))
                service = server.execute_batch(batch)
                result.server_busy += service
                # Statements within a batch execute sequentially on the
                # server; each request's result returns as it completes,
                # so batch *order* (SLA protocols) affects latency.
                offset = sim.now + cost + self.cost_model.batch_fixed_cost
                for request in batch:
                    if request.operation.is_data_access:
                        offset += self.cost_model.statement_cost
                    if offset <= end:
                        sim.schedule_at(
                            offset, lambda r=request: request_done(r)
                        )
            if step.recovery:
                handle_recovery_actions(step.recovery)
            if len(scheduler.pending) or len(scheduler.incoming):
                if batch:
                    # Progress was made: continue at the trigger's pace.
                    arm_trigger()
                else:
                    # No progress: the blocked requests need a commit that
                    # is still in flight (its batch completion will re-arm
                    # us).  Time-based triggers pace the re-check on their
                    # own ``next_check`` schedule — that is what makes the
                    # E7 trigger ablation differentiate policies — capped
                    # at one request timeout so deadlocked transactions
                    # still get aborted; enqueue-driven triggers fall back
                    # to the timeout slice.
                    result.stall_rearms += 1
                    if self.metrics is not None:
                        self.metrics.incr("sim.stall_rearms")
                    timeout = self.recovery.request_timeout
                    next_check = self.trigger.next_check(sim.now)
                    if next_check is not None and next_check > sim.now:
                        schedule_step_at(min(next_check, sim.now + timeout))
                    else:
                        schedule_step_at(sim.now + max(timeout / 4, 1e-4))

        def handle_recovery_actions(actions) -> None:
            """React to scheduler-side aborts (timeouts, orphan reaps,
            admission sheds): count them, then retry/restart clients.
            An orphan's client crashed, so only its mapping goes."""
            result.timeout_aborts += len(actions.timeouts)
            result.reaped_orphans += len(actions.orphans)
            result.sheds += len(actions.sheds)
            for ta, __ in actions.orphans:
                finish_aborted(ta)
            for ta, __ in (*actions.timeouts, *actions.sheds):
                finish_aborted(ta, then=retry)

        def finish_aborted(ta: int, then=None) -> None:
            """Tear down the submit chain of an aborted transaction and
            hand its client to *then*.  The abort itself is the
            scheduler's and is already in the trace, in scheduler order."""
            note_disruption()
            client = client_of_ta.pop(ta, None)
            if client is None or client.crashed or sim.now >= end:
                return
            if client.ta != ta:
                # A stale transaction from before a crash/restart: the
                # client is already running a newer chain — reap only.
                return
            # The abort removed the client's one outstanding request.
            submit_times.pop(client.outstanding, None)
            client.epoch += 1  # tear down: kill in-flight resumes
            if then is not None:
                then(client)

        def retry(client: _SimClient) -> None:
            """Resubmit the aborted profile with backoff, or abandon it
            once the retry budget is spent."""
            client.attempt += 1
            if client.attempt > self.recovery.max_retries:
                abandon(client)
                return
            result.retries += 1
            if self.metrics is not None:
                self.metrics.incr("sim.retries")
            delay = self.recovery.restart_delay_for(
                client.attempt, self.cost_model.restart_delay
            )
            sim.schedule(delay, later(client, begin_transaction, True))

        def abandon(client: _SimClient) -> None:
            """Give up on the profile: the client starts a fresh one."""
            result.retry_budget_exhausted += 1
            sim.schedule(
                self.cost_model.restart_delay, later(client, begin_transaction)
            )

        def request_done(request: Request) -> None:
            nonlocal disruption_since
            started = submit_times.pop(request.id, None)
            if started is not None:
                samples = result.response_times.setdefault(
                    request.attrs.sla_class, []
                )
                samples.append(sim.now - started)
            if request.operation.is_data_access:
                result.completed_statements += 1
            client = client_of_ta.get(request.ta)
            if client is None:
                return
            if client.ta != request.ta:
                # A completion from a superseded transaction (the client
                # crashed and restarted while this result was in
                # flight): drop the stale mapping, don't advance the
                # new chain's position.
                del client_of_ta[request.ta]
                return
            if request.operation is Operation.COMMIT:
                result.committed_transactions += 1
                result.goodput_statements += len(client.statements)
                if disruption_since is not None:
                    result.recovery_times.append(sim.now - disruption_since)
                    disruption_since = None
                del client_of_ta[request.ta]
                begin_transaction(client)
            else:
                if client.crashed:
                    # The server finished the statement but the client is
                    # gone; nobody advances the transaction (it will be
                    # reaped as an orphan).
                    return
                client.position += 1
                submit_next(client)

        def crash_client(client: _SimClient) -> None:
            if sim.now >= end or client.crashed:
                return
            client.crashed = True
            result.crashes += 1
            note_disruption()
            scheduler.note_client_crashed(client.attrs.client_id, sim.now)

        def restart_client(client: _SimClient) -> None:
            if sim.now >= end or not client.crashed:
                return
            client.crashed = False
            scheduler.note_client_recovered(client.attrs.client_id)
            begin_transaction(client)

        def clock_jump(delta: float) -> None:
            result.clock_jumps += 1
            sim.jump(delta)

        if injector is not None:
            for index, (at, restart) in sorted(injector.crash_schedule.items()):
                crash_target = clients[index]
                sim.schedule_at(at, lambda c=crash_target: crash_client(c))
                if restart is not None and restart < end:
                    sim.schedule_at(
                        restart, lambda c=crash_target: restart_client(c)
                    )
            for at, delta in injector.clock_jumps:
                sim.schedule_at(at, lambda d=delta: clock_jump(d))

        for client in clients:
            delay = (
                float(self.start_delay_for_client(client.index))
                if self.start_delay_for_client is not None
                else 0.0
            )
            if delay > 0.0:
                sim.schedule(delay, lambda c=client: begin_transaction(c))
            else:
                begin_transaction(client)
        sim.run_until(end)
        if monitor is not None:
            live_ids = set(submit_times) | dropped_ids
            monitor.final_check(live_ids, sim.now)
            result.invariant_checks = monitor.checks_run
        result.delta_maintenance = self.protocol.maintenance_stats()
        return result
