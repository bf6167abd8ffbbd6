"""Additional middleware-simulation scenarios: adaptive protocols in the
loop, batch caps, trigger interplay, and denial explanations."""

import pytest

import repro.api as api
from repro.core.scheduler import SchedulerConfig
from repro.core.simulation import MiddlewareSimulation
from repro.core.triggers import FillLevelTrigger, HybridTrigger, TimeLapseTrigger
from repro.protocols.adaptive import AdaptiveConsistencyProtocol
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(reads_per_txn=3, writes_per_txn=3, table_rows=400)


class TestAdaptiveInTheLoop:
    def test_adaptive_runs_and_reports_switches(self):
        protocol = AdaptiveConsistencyProtocol(
            strict=api.make_protocol("ss2pl"),
            relaxed=api.make_protocol("read-committed", "datalog"),
            high_watermark=15,
            low_watermark=5,
        )
        simulation = MiddlewareSimulation(
            protocol=protocol,
            trigger=HybridTrigger(0.05, 40),  # big batches to cross the mark
            spec=SPEC,
            clients=30,
            seed=2,
        )
        result = simulation.run(3.0)
        assert result.completed_statements > 0
        # With 30 clients and a 15-request watermark the protocol must
        # have degraded at least once.
        assert protocol.switches >= 1


class TestSchedulerConfigInLoop:
    def test_max_batch_respected(self):
        simulation = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=FillLevelTrigger(10),
            spec=SPEC,
            clients=20,
            seed=3,
            scheduler_config=SchedulerConfig(max_batch=5),
        )
        result = simulation.run(2.0)
        assert result.batch_sizes
        assert max(result.batch_sizes) <= 5

    def test_no_pruning_grows_history(self):
        keep = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=HybridTrigger(0.02, 10),
            spec=SPEC,
            clients=10,
            seed=4,
            scheduler_config=SchedulerConfig(prune_history=False),
        )
        result = keep.run(2.0)
        assert result.completed_statements > 0


class TestTriggerInterplay:
    def test_pure_time_trigger_progresses(self):
        simulation = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=TimeLapseTrigger(0.01),
            spec=SPEC,
            clients=10,
            seed=5,
        )
        result = simulation.run(2.0)
        assert result.committed_transactions > 0

    def test_pure_fill_trigger_progresses(self):
        simulation = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=FillLevelTrigger(10),
            spec=SPEC,
            clients=10,
            seed=5,
        )
        result = simulation.run(2.0)
        assert result.committed_transactions > 0

    def test_huge_fill_threshold_still_progresses(self):
        # Threshold larger than the client count: only the blocked-work
        # re-check path can fire the scheduler; the run must not stall.
        simulation = MiddlewareSimulation(
            protocol=api.make_protocol("ss2pl"),
            trigger=HybridTrigger(0.05, 10_000),
            spec=SPEC,
            clients=10,
            seed=6,
        )
        result = simulation.run(2.0)
        assert result.completed_statements > 0


class TestDenialExplanations:
    def test_datalog_protocol_explains_denials(self):
        from tests.conftest import empty_history_table, empty_requests_table, request

        protocol = api.make_protocol("ss2pl-listing1", "datalog")
        requests = empty_requests_table()
        history = empty_history_table()
        history.insert(request(1, 1, 0, "w", 5).as_row())
        requests.insert(request(7, 2, 0, "r", 5).as_row())
        decision = protocol.schedule(requests, history)
        assert 7 in decision.denials
        explanation = protocol.evaluator.explain_denial(7)
        assert "wlocked" in explanation
        assert "no fact finished" in explanation

    def test_explain_before_schedule_raises(self):
        with pytest.raises(RuntimeError, match="no schedule"):
            api.make_protocol(
                "ss2pl-listing1", "datalog"
            ).evaluator.explain_denial(1)
