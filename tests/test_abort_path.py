"""Every abort goes through the scheduler, and aborted work leaves no state.

The closed-loop simulation has no timeout of its own: its deadlock
timeout is the scheduler's recovery policy
(:data:`~repro.faults.recovery.RESTART_ON_TIMEOUT` by default), so the
scheduler's per-transaction bookkeeping and the simulation's
outstanding-request map must both stay bounded by the live
transactions however long a contended run goes on.  The state machine
at the end drives the scheduler's one abort path (timeouts, orphan
reaps, admission sheds) directly on a virtual clock.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.core.simulation as simulation_module
from repro.backends import build_protocol
from repro.core.scheduler import DeclarativeScheduler
from repro.core.simulation import MiddlewareSimulation
from repro.core.triggers import FillLevelTrigger
from repro.faults import (
    RESTART_ON_TIMEOUT,
    AdmissionPolicy,
    InvariantMonitor,
    RecoveryPolicy,
    lock_model_of,
)
from repro.faults.invariants import TERMINAL_STATES
from repro.model.request import NO_OBJECT, Operation, Request, RequestAttributes
from repro.model.schedule import Schedule, is_conflict_serializable, is_strict
from repro.workload.spec import WorkloadSpec


def assert_tracking_is_live(scheduler: DeclarativeScheduler, terminated) -> None:
    """The scheduler's tracking dicts hold live transactions only, and
    its drain-order map holds rows still in the pending table only."""
    tracked = (
        set(scheduler._client_of_ta)
        | set(scheduler._arrival_of_ta)
        | set(scheduler._priority_of_ta)
        | set(scheduler._pending_since)
    )
    stale = tracked & set(terminated)
    assert not stale, f"terminated transactions still tracked: {sorted(stale)}"
    table = scheduler.pending.table
    id_pos = table.schema.resolve("id")
    pending_ids = {row[id_pos] for row in table.rows}
    assert set(scheduler._drain_seq) <= pending_ids


@pytest.fixture
def captured_schedulers(monkeypatch):
    """The schedulers the closed-loop simulation builds, for inspection
    after its run."""
    built = []

    class Capturing(DeclarativeScheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(simulation_module, "DeclarativeScheduler", Capturing)
    return built


class TestSchedulerStateBounded:
    @pytest.mark.parametrize("duration", [3.0, 12.0])
    def test_admission_without_explicit_recovery_tracks_live_only(
        self, captured_schedulers, duration
    ):
        clients = 6
        result = MiddlewareSimulation(
            build_protocol("ss2pl"),
            FillLevelTrigger(1),
            WorkloadSpec(reads_per_txn=2, writes_per_txn=2, table_rows=6),
            clients=clients,
            seed=2,
            admission=AdmissionPolicy(max_pending=50),
            record_trace=True,
        ).run(duration)
        assert result.timeout_aborts > 0
        (scheduler,) = captured_schedulers
        terminated = {
            request.ta
            for __, request in result.trace
            if request.operation.is_termination
        }
        assert_tracking_is_live(scheduler, terminated)
        assert len(scheduler._client_of_ta) <= clients
        assert len(scheduler._pending_since) <= clients


class TestOutstandingRequestsBounded:
    @pytest.mark.parametrize("duration", [3.0, 12.0])
    def test_live_set_at_most_one_request_per_client(self, monkeypatch, duration):
        live_sets = []
        final_check = InvariantMonitor.final_check

        def recording_final_check(self, live_ids, now):
            live_sets.append(set(live_ids))
            return final_check(self, live_ids, now)

        monkeypatch.setattr(InvariantMonitor, "final_check", recording_final_check)
        clients = 10
        result = MiddlewareSimulation(
            build_protocol("ss2pl"),
            FillLevelTrigger(1),
            WorkloadSpec(reads_per_txn=2, writes_per_txn=2, table_rows=30),
            clients=clients,
            seed=1,
            recovery=RESTART_ON_TIMEOUT,
            check_invariants=True,
        ).run(duration)
        assert result.timeout_aborts > 0
        (live,) = live_sets
        assert len(live) <= clients


# -- the one abort path, driven directly -----------------------------------

CLIENTS = 4
OBJECTS = 3
#: Statements after which a client's transaction must commit.
MAX_STATEMENTS = 3
CLOCK_STEPS = (0.0, 0.05, 0.2, 0.4)


class _Client:
    __slots__ = ("index", "ta", "position", "outstanding", "crashed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.ta = None
        self.position = 0
        self.outstanding = None
        self.crashed = False


class AbortPathMachine(RuleBasedStateMachine):
    """Closed-loop clients against a scheduler with recovery and
    admission on a virtual clock; the armed invariant monitor raises
    from inside ``step`` on any safety violation."""

    backend = "compiled"

    def __init__(self) -> None:
        super().__init__()
        protocol = build_protocol("ss2pl", self.backend)
        self.scheduler = DeclarativeScheduler(
            protocol,
            trigger=FillLevelTrigger(1),
            recovery=RecoveryPolicy(request_timeout=0.3, orphan_lease=0.5),
            admission=AdmissionPolicy(max_pending=3),
        )
        self.monitor = InvariantMonitor(lock_model_of(protocol))
        self.scheduler.monitor = self.monitor
        self.now = 0.0
        self.ids = itertools.count(1)
        self.tas = itertools.count(1)
        self.clients = [_Client(index) for index in range(CLIENTS)]
        self.client_of_ta: dict[int, _Client] = {}
        self.submitted = 0
        self.terminated: set[int] = set()
        #: The emitted schedule: grants and aborts in scheduler order.
        self.emitted: list[Request] = []

    def _submit(self, client: _Client, operation: Operation, obj: int) -> None:
        if client.ta is None:
            client.ta = next(self.tas)
            client.position = 0
            self.client_of_ta[client.ta] = client
        request = Request(
            id=next(self.ids),
            ta=client.ta,
            intrata=client.position,
            operation=operation,
            obj=obj,
            attrs=RequestAttributes(client_id=client.index),
        )
        self.scheduler.submit(request, self.now)
        self.submitted += 1
        client.outstanding = request.id

    def _end(self, ta: int) -> None:
        self.terminated.add(ta)
        client = self.client_of_ta.pop(ta, None)
        if client is not None and client.ta == ta:
            client.ta = None
            client.outstanding = None

    def _step(self, advance: float) -> None:
        self.now += advance
        step = self.scheduler.step(self.now)
        actions = step.recovery
        self.emitted.extend(abort for __, abort in actions.sheds)
        self.emitted.extend(step.qualified)
        self.emitted.extend(abort for __, abort in actions.timeouts)
        self.emitted.extend(abort for __, abort in actions.orphans)
        for request in step.qualified:
            client = self.client_of_ta.get(request.ta)
            if client is not None and client.outstanding == request.id:
                client.outstanding = None
                client.position += 1
            if request.operation.is_termination:
                self._end(request.ta)
        for ta, __ in (*actions.sheds, *actions.timeouts, *actions.orphans):
            self._end(ta)

    def _idle(self, index: int) -> bool:
        client = self.clients[index]
        return not client.crashed and client.outstanding is None

    @rule(
        index=st.integers(0, CLIENTS - 1),
        write=st.booleans(),
        obj=st.integers(0, OBJECTS - 1),
        commit=st.booleans(),
    )
    def submit_next_statement(self, index, write, obj, commit):
        if not self._idle(index):
            return
        client = self.clients[index]
        if commit or client.position >= MAX_STATEMENTS:
            self._submit(client, Operation.COMMIT, NO_OBJECT)
        else:
            operation = Operation.WRITE if write else Operation.READ
            self._submit(client, operation, obj)

    @rule(advance=st.sampled_from(CLOCK_STEPS))
    def step(self, advance):
        self._step(advance)

    @rule(index=st.integers(0, CLIENTS - 1))
    def crash_client(self, index):
        client = self.clients[index]
        if client.crashed:
            return
        client.crashed = True
        self.scheduler.note_client_crashed(client.index, self.now)
        # The new session cannot adopt the old transaction: it stays an
        # orphan until the scheduler reaps it (or it commits).
        client.ta = None
        client.outstanding = None

    @rule(index=st.integers(0, CLIENTS - 1))
    def recover_client(self, index):
        client = self.clients[index]
        if client.crashed:
            client.crashed = False
            self.scheduler.note_client_recovered(client.index)

    @invariant()
    def monitor_clean_and_tracking_live(self):
        assert self.monitor.violations == 0
        assert_tracking_is_live(self.scheduler, self.terminated)

    def teardown(self):
        scheduler = self.scheduler
        for __ in range(200):
            for client in self.clients:
                if client.ta is not None and self._idle(client.index):
                    self._submit(client, Operation.COMMIT, NO_OBJECT)
            self._step(0.2)
            busy = any(
                client.ta is not None and not client.crashed
                for client in self.clients
            )
            if not (busy or len(scheduler.incoming) or len(scheduler.pending)):
                break
        assert len(scheduler.incoming) == 0 and len(scheduler.pending) == 0
        counts = self.monitor.final_check(set(), self.now)
        assert set(counts) <= set(TERMINAL_STATES)
        assert sum(counts.values()) == self.submitted
        schedule = Schedule(self.emitted)
        assert is_conflict_serializable(schedule)
        assert is_strict(schedule)


class DeltaAbortPathMachine(AbortPathMachine):
    backend = "compiled-delta"


_MACHINE_SETTINGS = settings(max_examples=100, stateful_step_count=50, deadline=None)

TestAbortPathCompiled = AbortPathMachine.TestCase
TestAbortPathCompiled.settings = _MACHINE_SETTINGS
TestAbortPathCompiledDelta = DeltaAbortPathMachine.TestCase
TestAbortPathCompiledDelta.settings = _MACHINE_SETTINGS
