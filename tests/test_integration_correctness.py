"""End-to-end correctness: both schedulers emit legal schedules.

The strongest claim in the reproduction: the *native* simulated DBMS
(lock manager) and the *declarative* middleware (Listing 1 as a query)
both produce schedules that the textbook analyzers certify as
SS2PL-legal, conflict-serializable and strict — two completely
different mechanisms, same guarantee, checked by a third, independent
implementation of the theory (repro.model.schedule).
"""

import pytest

import repro.api as api
from repro.core.simulation import MiddlewareSimulation
from repro.core.triggers import HybridTrigger
from repro.faults.recovery import RecoveryPolicy
from repro.model.schedule import (
    Schedule,
    is_conflict_serializable,
    is_legal_ss2pl_order,
    is_strict,
)
from repro.server.engine import SimulatedDBMS
from repro.workload.spec import WorkloadSpec

HOT = WorkloadSpec(reads_per_txn=3, writes_per_txn=3, table_rows=40)


class TestNativeSchedulerCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_native_trace_is_ss2pl_legal(self, seed):
        dbms = SimulatedDBMS(HOT, seed=seed)
        result = dbms.run_multi_user(12, duration=2.0, record_trace=True)
        assert result.trace is not None and len(result.trace) > 0
        schedule = Schedule(result.trace.requests)
        assert is_legal_ss2pl_order(schedule)
        assert is_conflict_serializable(schedule)
        assert is_strict(schedule)

    def test_native_trace_with_deadlocks_still_legal(self):
        # Very hot workload to force deadlock aborts into the trace.
        very_hot = WorkloadSpec(reads_per_txn=2, writes_per_txn=6, table_rows=15)
        dbms = SimulatedDBMS(very_hot, seed=7)
        result = dbms.run_multi_user(15, duration=3.0, record_trace=True)
        assert result.deadlock_aborts > 0
        schedule = Schedule(result.trace.requests)
        assert is_legal_ss2pl_order(schedule)
        assert is_conflict_serializable(schedule)

    def test_trace_statement_count_matches_result(self):
        dbms = SimulatedDBMS(HOT, seed=4)
        result = dbms.run_multi_user(8, duration=2.0, record_trace=True)
        assert result.trace.statement_count() == result.executed_statements

    def test_trace_off_by_default(self):
        dbms = SimulatedDBMS(HOT, seed=4)
        assert dbms.run_multi_user(4, duration=0.5).trace is None


class TestMiddlewareCorrectness:
    @pytest.mark.parametrize(
        "pairing",
        [("ss2pl", "compiled"), ("ss2pl-listing1", "incremental")],
        ids=["relalg", "incremental"],
    )
    @pytest.mark.parametrize("seed", [11, 12])
    def test_dispatch_order_is_ss2pl_legal(self, pairing, seed):
        simulation = MiddlewareSimulation(
            protocol=api.make_protocol(*pairing),
            trigger=HybridTrigger(0.02, 10),
            spec=HOT,
            clients=12,
            seed=seed,
            record_trace=True,
        )
        result = simulation.run(3.0)
        assert result.trace is not None and len(result.trace) > 0
        schedule = Schedule(result.trace.requests)
        assert is_legal_ss2pl_order(schedule)
        assert is_conflict_serializable(schedule)
        assert is_strict(schedule)

    def test_aborts_appear_in_trace(self):
        very_hot = WorkloadSpec(reads_per_txn=1, writes_per_txn=5, table_rows=10)
        simulation = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=HybridTrigger(0.02, 10),
            spec=very_hot,
            clients=10,
            seed=3,
            recovery=RecoveryPolicy(
                request_timeout=0.15, backoff_factor=1.0, max_retries=0
            ),
            record_trace=True,
        )
        result = simulation.run(3.0)
        assert result.timeout_aborts > 0
        aborts_in_trace = sum(
            1 for __, r in result.trace if r.is_abort
        )
        assert aborts_in_trace == result.timeout_aborts


class TestCrossSchedulerAgreement:
    def test_both_mechanisms_serialize_equivalent_conflicts(self):
        """Same hot workload through both stacks: each must settle on a
        serializable outcome (serialization orders may differ — both
        must merely exist)."""
        from repro.model.schedule import serialization_order

        native = SimulatedDBMS(HOT, seed=9).run_multi_user(
            10, duration=2.0, record_trace=True
        )
        middleware = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=HybridTrigger(0.02, 10),
            spec=HOT,
            clients=10,
            seed=9,
            record_trace=True,
        ).run(2.0)
        for trace in (native.trace, middleware.trace):
            assert serialization_order(Schedule(trace.requests)) is not None
