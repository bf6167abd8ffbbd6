"""The fault-injection / recovery / invariant-monitoring subsystem."""

import random

import pytest

import repro.api as api
from repro.backends import build_protocol
from repro.core.scheduler import SchedulerStalledError
from repro.core.simulation import MiddlewareSimulation
from repro.core.triggers import FillLevelTrigger
from repro.faults import (
    AdmissionPolicy,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InvariantMonitor,
    InvariantViolation,
    RecoveryPolicy,
    clock_jump,
    crash,
    drop,
    lock_model_of,
    stall,
    step_exception,
)
from repro.faults.invariants import TRACE_WINDOW
from repro.model.request import (
    NO_OBJECT,
    Operation,
    Request,
    make_transaction,
)
from repro.protocols.sla import SLAOrderingProtocol
from repro.protocols.spec import SS2PL_LOCKS
from repro.scenarios import get_scenario, run_scenario
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.simulator import Simulator
from repro.workload.spec import WorkloadSpec


def request(rid, ta, intrata, op, obj=NO_OBJECT):
    return Request(
        id=rid, ta=ta, intrata=intrata, operation=Operation.from_code(op), obj=obj
    )


# -- deterministic seed derivation -----------------------------------------


class TestSeedDerivation:
    def test_pinned_values_are_process_stable(self):
        # sha256-derived, so independent of PYTHONHASHSEED: these exact
        # values must hold in every interpreter (the CI chaos smoke
        # compares traces across separate processes).
        assert derive_seed(0, "faults.crash") == 4841083830075756459
        assert derive_seed(1, "faults.crash") == 8506093491067896079
        assert derive_seed(0, "faults.stall") == 5053269389498294446

    def test_streams_reproducible_and_distinct(self):
        a = RandomStreams(7)
        b = RandomStreams(7)
        assert [a.stream("x").random() for __ in range(3)] == [
            b.stream("x").random() for __ in range(3)
        ]
        assert a.stream("y").random() != a.stream("z").random()


# -- fault specs and plans -------------------------------------------------


class TestFaultSpec:
    def test_kind_validation(self):
        with pytest.raises(TypeError):
            FaultSpec(kind="client-crash", probability=0.5)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.REQUEST_DROP, probability=1.5)
        with pytest.raises(ValueError):
            drop(0.0)

    def test_stall_needs_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CLIENT_STALL, probability=0.5)

    def test_clock_jump_needs_count(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CLOCK_JUMP, duration=1.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            crash(0.5, window=(0.9, 0.1))

    def test_labels(self):
        plan = FaultPlan(specs=(crash(0.5), clock_jump(2, 1.0)))
        assert "client-crash" in plan.label
        assert "clock-jump" in plan.label

    def test_plan_needs_specs(self):
        with pytest.raises(ValueError):
            FaultPlan(specs=())

    def test_of_kind(self):
        plan = FaultPlan(specs=(crash(0.5), drop(0.1)))
        assert len(plan.of_kind(FaultKind.CLIENT_CRASH)) == 1
        assert len(plan.of_kind(FaultKind.CLIENT_STALL)) == 0


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(
            specs=(crash(0.5), stall(0.3, 0.2), drop(0.2), step_exception(0.1))
        )
        a = plan.build(seed=3, clients=10, duration=5.0)
        b = plan.build(seed=3, clients=10, duration=5.0)
        assert a.crash_schedule == b.crash_schedule
        assert [a.stall_before_submit(0) for __ in range(20)] == [
            b.stall_before_submit(0) for __ in range(20)
        ]
        assert [a.drop_request(0) for __ in range(20)] == [
            b.drop_request(0) for __ in range(20)
        ]

    def test_different_seed_different_schedule(self):
        plan = FaultPlan(specs=(crash(0.5),))
        a = plan.build(seed=1, clients=50, duration=5.0)
        b = plan.build(seed=2, clients=50, duration=5.0)
        assert a.crash_schedule != b.crash_schedule

    def test_clock_jumps_stay_inside_run(self):
        plan = FaultPlan(specs=(clock_jump(5, 3.0, window=(0.5, 1.0)),))
        injector = plan.build(seed=0, clients=1, duration=4.0)
        for at, delta in injector.clock_jumps:
            assert at + delta <= 4.0 + 1e-9

    def test_step_fault_hook_flag(self):
        with_faults = FaultPlan(specs=(step_exception(0.5),)).build(0, 1, 1.0)
        without = FaultPlan(specs=(drop(0.5),)).build(0, 1, 1.0)
        assert with_faults.has_step_faults
        assert not without.has_step_faults


# -- sim-kernel clock jump -------------------------------------------------


class TestClockJump:
    def test_jump_retimes_events_preserving_identity(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("early"))
        sim.schedule_at(5.0, lambda: fired.append("late"))
        cancelled = sim.schedule_at(2.0, lambda: fired.append("cancelled"))
        sim.cancel(cancelled)
        landed = sim.jump(3.0)
        assert landed == pytest.approx(3.0)
        assert sim.now == pytest.approx(3.0)
        sim.run_until(10.0)
        # The skipped event fires at the landing time; the cancelled one
        # stays cancelled; the far event keeps its own time.
        assert fired == ["early", "late"]

    def test_jump_preserves_order_of_retimed_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.jump(4.0)
        sim.run_until(10.0)
        assert fired == [1, 2]  # seq order kept for same-time events

    def test_negative_jump_rejected(self):
        with pytest.raises(ValueError):
            Simulator().jump(-1.0)


# -- recovery and admission policies ---------------------------------------


class TestRecoveryPolicy:
    def test_backoff_widens_and_caps(self):
        policy = RecoveryPolicy(
            request_timeout=0.1, backoff_factor=2.0, max_backoff_exponent=3
        )
        assert policy.timeout_for(0) == pytest.approx(0.1)
        assert policy.timeout_for(2) == pytest.approx(0.4)
        assert policy.timeout_for(50) == pytest.approx(0.8)  # capped

    def test_restart_delay_backs_off(self):
        policy = RecoveryPolicy(retry_delay=0.05, backoff_factor=2.0)
        assert policy.restart_delay_for(1, 0.01) == pytest.approx(0.05)
        assert policy.restart_delay_for(3, 0.01) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(request_timeout=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)


class TestAdmissionPolicy:
    def test_needs_positive_cap(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_pending=0)

    def test_no_victims_under_cap(self):
        policy = AdmissionPolicy(max_pending=10)
        assert policy.choose_victims({1: 3}, {}, {}, {}, 3) == []

    def test_victim_order_priority_then_retries_then_age(self):
        policy = AdmissionPolicy(max_pending=2)
        rows = {1: 1, 2: 1, 3: 1, 4: 1}
        priority = {1: 5, 2: 0, 3: 0, 4: 0}
        retries = {2: 0, 3: 2, 4: 0}
        arrival = {2: 1.0, 3: 1.0, 4: 2.0}
        victims = policy.choose_victims(rows, priority, retries, arrival, 4)
        # Sheds 2 txns: lowest priority first; among those, most
        # retried (3) then newest (4).  High-priority 1 survives.
        assert victims == [3, 4]


# -- scheduler recovery integration ----------------------------------------


def _two_blocked_writers(scheduler):
    """ta 1 takes the lock; ta 2 blocks behind it."""
    t1 = make_transaction(1, [("w", 5)], terminate="", start_id=1)
    t2 = make_transaction(2, [("w", 5)], terminate="", start_id=10)
    for r in t1:
        scheduler.submit(r, 0.0)
    for r in t2:
        scheduler.submit(r, 0.0)


class TestSchedulerRecovery:
    def test_timeout_abort_releases_blocker(self):
        scheduler = api.make_scheduler(
            "ss2pl", recovery=RecoveryPolicy(request_timeout=0.1)
        )
        _two_blocked_writers(scheduler)
        first = scheduler.step(0.0)
        assert [str(r) for r in first.qualified] == ["w1[5]"]
        second = scheduler.step(0.5)
        assert [ta for ta, __ in second.recovery.timeouts] == [2]
        abort = second.recovery.timeouts[0][1]
        assert abort.is_abort and abort.id < 0  # synthesized, non-colliding
        assert len(scheduler.pending) == 0

    def test_backoff_widens_timeouts_per_client(self):
        policy = RecoveryPolicy(request_timeout=0.1, backoff_factor=4.0)
        scheduler = api.make_scheduler("ss2pl", recovery=policy)
        _two_blocked_writers(scheduler)
        scheduler.step(0.0)
        step = scheduler.step(0.2)
        assert len(step.recovery.timeouts) == 1
        assert scheduler.retries_of_client(0) == 1
        # Same client again: now the timeout is 0.4, so age 0.2 is safe.
        t3 = make_transaction(3, [("w", 5)], terminate="", start_id=20)
        for r in t3:
            scheduler.submit(r, 0.3)
        step = scheduler.step(0.3)
        step = scheduler.step(0.55)
        assert not step.recovery.timeouts
        step = scheduler.step(0.8)  # age 0.5 > 0.4: now aborted
        assert [ta for ta, __ in step.recovery.timeouts] == [3]

    def test_orphan_reaped_after_lease(self):
        policy = RecoveryPolicy(request_timeout=10.0, orphan_lease=0.5)
        scheduler = api.make_scheduler("ss2pl", recovery=policy)
        txn = make_transaction(1, [("w", 5)], terminate="", start_id=1)
        for r in txn:
            scheduler.submit(r, 0.0)
        granted = scheduler.step(0.0)
        assert granted.batch_size == 1  # ta 1 holds the lock now
        scheduler.note_client_crashed(0, 0.1)
        step = scheduler.step(0.3)
        assert not step.recovery.orphans  # lease not yet expired
        step = scheduler.step(0.7)
        assert [ta for ta, __ in step.recovery.orphans] == [1]
        # The lock is released: a new writer gets through immediately.
        t2 = make_transaction(2, [("w", 5)], terminate="", start_id=10)
        for r in t2:
            scheduler.submit(r, 0.8)
        assert scheduler.step(0.8).batch_size == 1

    def test_empty_pending_fast_path_still_reaps_orphans(self):
        """Regression: with incoming and pending both empty, should_run
        used to return False unconditionally — so a driver gating steps
        on it never ran the recovery sweep, and an orphaned transaction
        whose client died after dispatch held its locks forever."""
        policy = RecoveryPolicy(request_timeout=10.0, orphan_lease=0.5)
        scheduler = api.make_scheduler("ss2pl", recovery=policy)
        txn = make_transaction(1, [("w", 5)], terminate="", start_id=1)
        for r in txn:
            scheduler.submit(r, 0.0)
        assert scheduler.step(0.0).batch_size == 1
        assert len(scheduler.pending) == 0 and len(scheduler.incoming) == 0
        scheduler.note_client_crashed(0, 0.1)
        # Lease not yet expired: the empty fast path stays idle.
        assert not scheduler.should_run(0.3)
        # Lease expired: the trigger must fire so the sweep can reap.
        assert scheduler.should_run(0.7)
        step = scheduler.step(0.7)
        assert [ta for ta, __ in step.recovery.orphans] == [1]
        # Reaped: back to idle, no busy loop.
        assert not scheduler.should_run(0.8)
        # The lock is actually released for the next writer.
        t2 = make_transaction(2, [("w", 5)], terminate="", start_id=10)
        for r in t2:
            scheduler.submit(r, 0.9)
        assert scheduler.step(0.9).batch_size == 1

    def test_recovered_client_new_transactions_not_reaped(self):
        policy = RecoveryPolicy(request_timeout=10.0, orphan_lease=0.5)
        scheduler = api.make_scheduler("ss2pl", recovery=policy)
        scheduler.note_client_crashed(0, 0.0)
        scheduler.note_client_recovered(0)
        txn = make_transaction(1, [("w", 5)], terminate="", start_id=1)
        for r in txn:
            scheduler.submit(r, 0.1)
        scheduler.step(0.1)
        step = scheduler.step(2.0)
        assert not step.recovery.orphans

    def test_admission_sheds_on_overflow(self):
        scheduler = api.make_scheduler(
            "ss2pl", admission=AdmissionPolicy(max_pending=2)
        )
        for ta in range(1, 5):
            txn = make_transaction(
                ta, [("w", ta)], terminate="", start_id=ta * 10
            )
            for r in txn:
                scheduler.submit(r, 0.0)
        step = scheduler.step(0.0)
        assert len(step.recovery.sheds) == 2
        assert step.batch_size == 2  # survivors all get distinct objects

    def test_abort_transaction_public_api(self):
        scheduler = api.make_scheduler("ss2pl")
        txn = make_transaction(1, [("w", 5)], terminate="", start_id=1)
        for r in txn:
            scheduler.submit(r, 0.0)
        scheduler.step(0.0)
        abort = scheduler.abort_transaction(1, 0.1, reason="test")
        assert abort.ta == 1 and abort.is_abort
        # The logical lock is gone.
        t2 = make_transaction(2, [("w", 5)], terminate="", start_id=10)
        for r in t2:
            scheduler.submit(r, 0.2)
        assert scheduler.step(0.2).batch_size == 1


class TestSchedulerStalledError:
    def test_carries_snapshot_and_denials(self):
        scheduler = api.make_scheduler("ss2pl")
        scheduler.history.record_batch([request(1, 1, 0, "w", 5)])
        scheduler.submit(request(2, 2, 0, "w", 5))
        with pytest.raises(SchedulerStalledError) as excinfo:
            scheduler.run_until_drained()
        error = excinfo.value
        assert isinstance(error, RuntimeError)  # old catch sites still work
        assert "stalled" in str(error)
        assert [r.id for r in error.pending_snapshot] == [2]
        assert error.steps_run > 0
        assert "id=2" in error.describe()

    def test_recovery_converts_stall_into_abort(self):
        scheduler = api.make_scheduler(
            "ss2pl", recovery=RecoveryPolicy(request_timeout=0.5)
        )
        scheduler.history.record_batch([request(1, 1, 0, "w", 5)])
        scheduler.submit(request(2, 2, 0, "w", 5))
        results = scheduler.run_until_drained()  # no stall error raised
        assert any(r.recovery.timeouts for r in results)


# -- invariant monitor -----------------------------------------------------


class TestLockModelOf:
    def test_spec_protocol_exposes_model(self):
        assert lock_model_of(build_protocol("ss2pl")) == SS2PL_LOCKS

    def test_unwraps_sla_decorator(self):
        wrapped = SLAOrderingProtocol(build_protocol("ss2pl"))
        assert lock_model_of(wrapped) == SS2PL_LOCKS

    def test_unknown_protocol_gives_none(self):
        assert lock_model_of(object()) is None


class TestInvariantMonitor:
    def test_double_terminal_detected(self):
        monitor = InvariantMonitor()
        monitor.note_submitted(request(1, 1, 0, "w", 5))
        monitor.note_terminal([1], "aborted")
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.note_terminal([1], "granted")
        assert excinfo.value.kind == "double-terminal"

    def test_granted_but_never_submitted_is_lost(self):
        scheduler = api.make_scheduler("ss2pl")
        monitor = InvariantMonitor()
        scheduler.monitor = monitor
        # Bypass submit(): the request appears in pending without the
        # monitor ever seeing a submission.
        scheduler.incoming.enqueue(request(1, 1, 0, "w", 5), 0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            scheduler.step(0.0)
        assert excinfo.value.kind == "lost-request"

    def test_non_monotonic_batch_detected(self):
        monitor = InvariantMonitor()

        class FakeScheduler:
            steps_run = 1
            history = api.make_scheduler("ss2pl").history

        class FakeResult:
            qualified = [request(1, 1, 1, "w", 5), request(2, 1, 0, "w", 6)]

        for r in FakeResult.qualified:
            monitor.note_submitted(r)
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.after_step(FakeScheduler(), FakeResult(), 0.0)
        assert excinfo.value.kind == "non-monotonic-batch"

    def test_conflicting_grants_detected(self):
        monitor = InvariantMonitor(SS2PL_LOCKS)
        scheduler = api.make_scheduler("fcfs")  # no locking!
        scheduler.monitor = monitor
        # Two concurrent writers of one object: fine under fcfs, but a
        # violation of the SS2PL lock model the monitor was given.
        scheduler.submit(request(1, 1, 0, "w", 5), 0.0)
        scheduler.submit(request(2, 2, 0, "w", 5), 0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            scheduler.step(0.0)
        assert excinfo.value.kind == "conflicting-grants"

    def test_final_check_counts_and_totality(self):
        monitor = InvariantMonitor()
        monitor.note_submitted(request(1, 1, 0, "w", 5))
        monitor.note_terminal([1], "granted")
        monitor.note_submitted(request(2, 2, 0, "w", 6))
        counts = monitor.final_check(live_ids={2}, now=1.0)
        assert counts == {"granted": 1, "pending": 1}
        with pytest.raises(InvariantViolation):
            monitor.final_check(live_ids=set(), now=1.0)

    def test_violation_trace_is_replayable_prefix(self, tmp_path):
        violation = InvariantViolation("conflicting-grants", "demo", now=1.0)
        violation.trace.record(0.5, request(1, 1, 0, "w", 5))
        violation.attach_context(
            scenario="smoke", seed=1, duration=0.6, clients=8, cell="ss2pl"
        )
        path = tmp_path / "violation.trace"
        violation.write_trace(path)
        from repro.workload.traces import read_trace_file

        header, traces = read_trace_file(path)
        assert header["prefix"] is True
        assert header["violation"] == "conflicting-grants"
        assert [label for label, __ in traces] == ["ss2pl"]


class _Steps:
    """The slice of a scheduler a lock-model-less monitor looks at."""

    steps_run = 0


class _Batch:
    def __init__(self, qualified):
        self.qualified = qualified


#: Requests the soak drives through one bare monitor.
SOAK_REQUESTS = 200_000
#: Transactions open at any moment during the soak.
SOAK_OPEN = 32


@pytest.fixture(scope="module")
def soaked():
    """A bare monitor after ``SOAK_REQUESTS`` requests in 9-request
    transactions (4 reads, 4 writes, a commit; dense ids from 1), with
    ``SOAK_OPEN`` transactions interleaved a request a step; the last
    ``SOAK_OPEN`` requests are submitted but never granted.  Returns
    (monitor, submitted, live ids, peak container sizes)."""
    monitor = InvariantMonitor()
    steps = _Steps()
    next_id, next_ta = 1, 1
    open_tas = {}  # ta -> next intrata
    peak = {"state": 0, "intrata": 0, "trace": 0}
    while next_id <= SOAK_REQUESTS:
        while len(open_tas) < SOAK_OPEN:
            open_tas[next_ta] = 0
            next_ta += 1
        pending = []
        for ta, intrata in list(open_tas.items()):
            op = "c" if intrata == 8 else "rw"[intrata % 2]
            obj = NO_OBJECT if op == "c" else ta % 50
            pending.append(request(next_id, ta, intrata, op, obj))
            monitor.note_submitted(pending[-1])
            next_id += 1
            if op == "c":
                del open_tas[ta]
            else:
                open_tas[ta] = intrata + 1
        if next_id <= SOAK_REQUESTS:
            steps.steps_run += 1
            monitor.after_step(steps, _Batch(pending), float(steps.steps_run))
            pending = []
        peak["state"] = max(peak["state"], len(monitor._state))
        peak["intrata"] = max(peak["intrata"], len(monitor._last_intrata))
        peak["trace"] = max(peak["trace"], len(monitor.trace))
    assert len(monitor.trace) > TRACE_WINDOW  # the window did slide
    return monitor, next_id - 1, {r.id for r in pending}, peak


class TestMonitorRetainsOnlyLiveState:
    def test_containers_bounded_by_live_set_and_trace_window(self, soaked):
        monitor, submitted, live, peak = soaked
        assert submitted >= SOAK_REQUESTS
        assert peak["state"] <= SOAK_OPEN
        assert peak["intrata"] <= SOAK_OPEN
        assert peak["trace"] < 2 * TRACE_WINDOW
        assert set(monitor._state) == live
        assert monitor.trace.offset + len(monitor.trace) == submitted - len(live)
        # Terminal ids cost bits: a bitmap chunk per 256 dense ids, and
        # every chunk behind the live edge is one shared object.
        for ids, count in (
            (monitor._terminal_ids, submitted),
            (monitor._finished_tas, submitted // 9),
        ):
            chunks = ids._chunks
            assert len(chunks) <= count // 256 + 1
            assert len({id(bits) for bits in chunks.values()}) <= 3

    def test_final_check_counts_sum_to_everything_submitted(self, soaked):
        monitor, submitted, live, __ = soaked
        counts = monitor.final_check(live_ids=live, now=0.0)
        assert counts == {"granted": submitted - len(live), "pending": len(live)}
        assert sum(counts.values()) == submitted

    def test_double_terminal_for_an_id_that_ended_long_ago(self, soaked):
        monitor = soaked[0]
        for long_gone in (1, 2, 257, 1_000):
            with pytest.raises(InvariantViolation) as excinfo:
                monitor.note_terminal([long_gone], "aborted")
            assert excinfo.value.kind == "double-terminal"
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.note_submitted(request(3, 1, 2, "r", 1))
        assert excinfo.value.kind == "double-terminal"
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.after_step(_Steps(), _Batch([request(4, 1, 3, "w", 1)]), 0.0)
        assert excinfo.value.kind == "double-terminal"

    def test_dispatch_after_the_transactions_commit(self, soaked):
        monitor, submitted, __, ___ = soaked
        # ta 1 committed ~2 x 10^5 requests ago; its program-order mark
        # is gone, the memory that it ended is not.
        late = request(submitted + 1, 1, 9, "w", 1)
        monitor.note_submitted(late)
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.after_step(_Steps(), _Batch([late]), 0.0)
        assert excinfo.value.kind == "non-monotonic-batch"

    def test_dispatch_after_a_scheduler_abort(self):
        monitor = InvariantMonitor()
        monitor.note_submitted(request(1, 7, 0, "w", 5))
        monitor.after_step(_Steps(), _Batch([request(1, 7, 0, "w", 5)]), 0.0)
        monitor.note_dispatch(0.0, request(-1, 7, 0, "a"))  # synthesized
        assert 7 not in monitor._last_intrata
        monitor.note_submitted(request(2, 7, 1, "w", 5))
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.after_step(_Steps(), _Batch([request(2, 7, 1, "w", 5)]), 0.0)
        assert excinfo.value.kind == "non-monotonic-batch"

    @pytest.mark.parametrize(
        "ids",
        [
            [10**12 + 7_919 * k for k in range(500)],  # sparse
            [-1, -2, -255, -256, -257, -(10**9)],  # scheduler-style negatives
        ],
    )
    def test_sparse_and_negative_ids_stay_exact(self, ids):
        monitor = InvariantMonitor()
        for rid in ids:
            monitor.note_submitted(request(rid, 1, 0, "r", 1))
        monitor.note_terminal(ids[::2], "shed")
        for rid in ids[::2]:
            with pytest.raises(InvariantViolation) as excinfo:
                monitor.note_terminal([rid], "aborted")
            assert excinfo.value.kind == "double-terminal"
        # Neighbours of a terminal id are not terminal.
        monitor.note_terminal(ids[1::2], "aborted")
        counts = monitor.final_check(live_ids=set(), now=0.0)
        assert counts == {"shed": len(ids[::2]), "aborted": len(ids[1::2])}
        assert len(monitor._terminal_ids._chunks) <= len(ids)


# -- faulted closed-loop runs ----------------------------------------------

TINY = WorkloadSpec(reads_per_txn=2, writes_per_txn=2, table_rows=30)


def _run(seed=0, plan=None, **kwargs):
    sim = MiddlewareSimulation(
        build_protocol("ss2pl"),
        FillLevelTrigger(1),
        TINY,
        clients=6,
        seed=seed,
        faults=plan,
        **kwargs,
    )
    return sim.run(3.0)


class TestFaultedSimulation:
    def test_crashes_reaped_and_counted(self):
        plan = FaultPlan(specs=(crash(0.9, restart_after=0.8, window=(0.1, 0.5)),))
        result = _run(
            plan=plan,
            recovery=RecoveryPolicy(request_timeout=0.4, orphan_lease=0.5),
            check_invariants=True,
        )
        assert result.crashes > 0
        assert result.invariant_checks > 0
        assert result.committed_transactions > 0  # system keeps going

    def test_drops_retried(self):
        plan = FaultPlan(specs=(drop(0.2),))
        result = _run(
            plan=plan,
            recovery=RecoveryPolicy(request_timeout=0.4),
            check_invariants=True,
        )
        assert result.drops > 0
        assert result.committed_transactions > 0

    def test_step_faults_do_not_lose_requests(self):
        plan = FaultPlan(specs=(step_exception(0.2),))
        result = _run(plan=plan, check_invariants=True)
        assert result.step_faults > 0
        assert result.committed_transactions > 0

    def test_clock_jump_applied(self):
        plan = FaultPlan(specs=(clock_jump(2, 0.4),))
        result = _run(plan=plan, check_invariants=True)
        assert result.clock_jumps == 2

    def test_faulted_run_is_deterministic(self):
        plan = FaultPlan(
            specs=(crash(0.5, restart_after=0.6), stall(0.1, 0.3), drop(0.1))
        )
        kwargs = dict(
            recovery=RecoveryPolicy(request_timeout=0.3),
            admission=AdmissionPolicy(max_pending=8),
            record_trace=True,
        )
        a = _run(seed=11, plan=plan, **kwargs)
        b = _run(seed=11, plan=plan, **kwargs)
        from repro.workload.traces import canonical_entries

        assert canonical_entries(a.trace) == canonical_entries(b.trace)
        assert a.committed_transactions == b.committed_transactions
        assert a.retries == b.retries

    def test_goodput_not_above_throughput(self):
        plan = FaultPlan(specs=(drop(0.1),))
        result = _run(
            plan=plan, recovery=RecoveryPolicy(request_timeout=0.3)
        )
        assert result.goodput_statements <= result.completed_statements

    def test_legacy_counters_satellite(self):
        # Fault-free run still counts its no-progress re-arms and
        # deadlock aborts (observable stalls, satellite of issue 6).
        from repro.metrics.collector import MetricsCollector

        metrics = MetricsCollector()
        hot = WorkloadSpec(reads_per_txn=2, writes_per_txn=2, table_rows=4)
        sim = MiddlewareSimulation(
            build_protocol("ss2pl"),
            FillLevelTrigger(1),
            hot,
            clients=6,
            seed=2,
            recovery=RecoveryPolicy(
                request_timeout=0.2, backoff_factor=1.0, max_retries=0
            ),
            metrics=metrics,
        )
        result = sim.run(3.0)
        assert result.stall_rearms > 0
        assert result.timeout_aborts > 0
        assert metrics.counters["sim.stall_rearms"] == result.stall_rearms
        assert (
            metrics.counters["scheduler.timeout_aborts"]
            == result.timeout_aborts
        )


# -- lifecycle totality sweep (satellite) ----------------------------------


def _random_plan(rng: random.Random) -> FaultPlan:
    specs = []
    if rng.random() < 0.5:
        specs.append(
            crash(
                probability=rng.uniform(0.2, 0.9),
                restart_after=rng.choice([None, rng.uniform(0.2, 0.8)]),
                window=(0.0, rng.uniform(0.4, 0.9)),
            )
        )
    if rng.random() < 0.5:
        specs.append(stall(rng.uniform(0.05, 0.3), rng.uniform(0.1, 0.5)))
    if rng.random() < 0.5:
        specs.append(drop(rng.uniform(0.05, 0.25)))
    if rng.random() < 0.3:
        specs.append(clock_jump(rng.randint(1, 2), rng.uniform(0.2, 0.6)))
    if rng.random() < 0.3:
        specs.append(step_exception(rng.uniform(0.05, 0.2)))
    if not specs:
        specs.append(drop(0.1))
    return FaultPlan(specs=tuple(specs))


class TestLifecycleTotalitySweep:
    @pytest.mark.parametrize("protocol", ["ss2pl", "read-committed", "fcfs"])
    def test_every_request_reaches_exactly_one_terminal_state(self, protocol):
        # 50 random fault plans per protocol; the invariant monitor
        # raises if any submitted request is lost or terminates twice
        # (its final_check runs totality at the end of each run).
        rng = random.Random(1234)
        for case in range(50):
            plan = _random_plan(rng)
            sim = MiddlewareSimulation(
                build_protocol(protocol),
                FillLevelTrigger(1),
                WorkloadSpec(reads_per_txn=1, writes_per_txn=2, table_rows=12),
                clients=4,
                seed=rng.randrange(2**31),
                faults=plan,
                recovery=RecoveryPolicy(
                    request_timeout=0.25, orphan_lease=0.4, retry_delay=0.02
                ),
                admission=AdmissionPolicy(max_pending=6),
                check_invariants=True,
            )
            result = sim.run(1.2)
            assert result.invariant_checks > 0, (protocol, case, plan.label)


# -- chaos scenarios (acceptance) ------------------------------------------


class TestChaosScenarios:
    def test_registered(self):
        for name in (
            "crash-storm",
            "stall-under-zipf-hotspot",
            "retry-thundering-herd",
        ):
            spec = get_scenario(name)
            assert spec.is_chaos
            assert spec.recovery is not None

    def test_crash_storm_recovery_metrics_nonzero(self):
        outcome = run_scenario(get_scenario("crash-storm"), check_invariants=True)
        result = outcome.cells[0].result
        assert result.aborts > 0
        assert result.retries > 0
        assert result.sheds > 0
        assert result.crashes > 0
        assert result.invariant_checks > 0
        assert result.committed_transactions > 0

    def test_crash_storm_clean_across_seeds(self):
        # A shortened slice of the 20-seed acceptance sweep (the full
        # sweep runs in CI via the CLI); every seed must be violation-
        # free AND actually exercise the recovery machinery.
        spec = get_scenario("crash-storm")
        for seed in range(5):
            outcome = run_scenario(
                spec, seed=seed, duration=2.0, check_invariants=True
            )
            result = outcome.cells[0].result
            assert result.invariant_checks > 0
            assert result.aborts + result.sheds > 0

    def test_chaos_report_has_recovery_table(self):
        from repro.scenarios import render_scenario_report

        outcome = run_scenario(
            get_scenario("retry-thundering-herd"), duration=1.5
        )
        report = render_scenario_report(outcome)
        assert "recovery metrics" in report
        assert "goodput/s" in report
        assert "faults=" in report

    def test_faulted_record_replay_roundtrip(self, tmp_path):
        from repro.scenarios import record_scenario, replay_scenario

        path = tmp_path / "chaos.trace"
        record_scenario(
            get_scenario("crash-storm"), path, duration=2.0,
            check_invariants=True,
        )
        outcome = replay_scenario(path)
        assert outcome.matches, outcome.mismatch
        assert outcome.entries > 0

    def test_violation_trace_prefix_replay(self, tmp_path):
        # Manufacture a violation trace for a real scenario: a prefix
        # of the smoke scenario's dispatch log must replay as a prefix.
        from repro.scenarios import record_scenario, replay_scenario
        from repro.workload.traces import read_trace_file

        full_path = tmp_path / "full.trace"
        record_scenario(get_scenario("smoke"), full_path)
        header, traces = read_trace_file(full_path)
        label, trace = traces[0]
        violation = InvariantViolation("demo", "synthetic", now=0.1)
        for time, req in trace.entries[:10]:
            violation.trace.record(time, req)
        violation.attach_context(cell=label, **header)
        prefix_path = tmp_path / "prefix.trace"
        violation.write_trace(prefix_path)
        outcome = replay_scenario(prefix_path)
        assert outcome.matches, outcome.mismatch
        assert outcome.entries == 10

    def test_violation_past_the_window_replays_at_its_offset(self, tmp_path):
        # Feed a real scenario's dispatch log (longer than the window)
        # through a monitor, then trip it: the violation keeps the last
        # TRACE_WINDOW dispatches and says where they start.
        from repro.scenarios import record_scenario, replay_scenario
        from repro.workload.traces import read_trace_file

        full_path = tmp_path / "full.trace"
        record_scenario(get_scenario("smoke"), full_path, duration=15.0)
        header, traces = read_trace_file(full_path)
        label, trace = traces[0]
        cut = len(trace) - 100  # the violation strikes mid-run
        assert cut > TRACE_WINDOW + 100
        monitor = InvariantMonitor()
        for time, req in trace.entries[:cut]:
            monitor.note_dispatch(time, req)
        monitor.note_terminal([1], "granted")
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.note_terminal([1], "granted")
        violation = excinfo.value
        assert len(violation.trace) == TRACE_WINDOW
        assert violation.trace.offset == cut - TRACE_WINDOW
        violation.attach_context(cell=label, **header)
        window_path = tmp_path / "window.trace"
        assert violation.write_trace(window_path) == TRACE_WINDOW
        assert read_trace_file(window_path)[0]["offset"] == cut - TRACE_WINDOW
        outcome = replay_scenario(window_path)
        assert outcome.matches, outcome.mismatch
        assert outcome.entries == TRACE_WINDOW

        # An edited entry inside the window is the first divergence,
        # reported at its position in the full log.
        import json

        lines = window_path.read_text().splitlines()
        edited = json.loads(lines[1 + 40])
        edited["obj"] += 1
        lines[1 + 40] = json.dumps(edited, sort_keys=True)
        window_path.write_text("\n".join(lines) + "\n")
        outcome = replay_scenario(window_path)
        assert not outcome.matches
        assert f"first divergence at entry {cut - TRACE_WINDOW + 40}:" in outcome.mismatch
