"""Closed-loop middleware simulation: integrity and protocol behaviour."""

import pytest

import repro.api as api
from repro.core.simulation import MiddlewareSimulation
from repro.core.triggers import FillLevelTrigger, HybridTrigger
from repro.faults.recovery import RecoveryPolicy
from repro.protocols.sla import SLAOrderingProtocol
from repro.workload.clients import ClientPopulation, SLA_TIERS
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(reads_per_txn=3, writes_per_txn=3, table_rows=500)


def run(protocol, clients=10, duration=2.0, seed=1, **kwargs):
    simulation = MiddlewareSimulation(
        protocol=protocol,
        trigger=kwargs.pop("trigger", HybridTrigger(0.02, 10)),
        spec=kwargs.pop("spec", SPEC),
        clients=clients,
        seed=seed,
        **kwargs,
    )
    return simulation.run(duration)


class TestIntegrity:
    def test_counts_are_consistent(self):
        result = run(api.make_protocol("ss2pl"))
        assert result.completed_statements > 0
        assert result.committed_transactions > 0
        # Committed txns imply their statements completed.
        assert (
            result.completed_statements
            >= result.committed_transactions * SPEC.statements_per_txn
        )

    def test_determinism(self):
        a = run(api.make_protocol("ss2pl"), seed=7)
        b = run(api.make_protocol("ss2pl"), seed=7)
        assert a.completed_statements == b.completed_statements
        assert a.committed_transactions == b.committed_transactions
        assert a.scheduler_runs == b.scheduler_runs

    def test_scheduler_cost_accumulates(self):
        result = run(api.make_protocol("ss2pl"))
        assert result.scheduler_runs > 0
        assert result.scheduler_cost > 0
        assert result.mean_batch_size > 0

    def test_response_times_recorded(self):
        result = run(api.make_protocol("fcfs"))
        assert result.mean_response() > 0

    def test_invalid_clients(self):
        with pytest.raises(ValueError):
            MiddlewareSimulation(
                protocol=api.make_protocol("fcfs"),
                trigger=FillLevelTrigger(1),
                spec=SPEC,
                clients=0,
            )


class TestProtocolOrdering:
    def test_fcfs_outperforms_ss2pl(self):
        fcfs = run(api.make_protocol("fcfs"), clients=20, duration=3.0)
        ss2pl = run(api.make_protocol("ss2pl"), clients=20, duration=3.0)
        assert fcfs.completed_statements >= ss2pl.completed_statements

    def test_relaxed_at_least_as_fast_as_strict_under_contention(self):
        hot = WorkloadSpec(reads_per_txn=4, writes_per_txn=4, table_rows=60)
        strict = run(api.make_protocol("ss2pl"), clients=15, duration=3.0, spec=hot)
        relaxed = run(
            api.make_protocol("read-committed", "datalog"),
            clients=15, duration=3.0, spec=hot,
        )
        assert relaxed.completed_statements >= strict.completed_statements * 0.9

    def test_ss2pl_experiences_timeout_aborts_under_heat(self):
        hot = WorkloadSpec(reads_per_txn=2, writes_per_txn=6, table_rows=30)
        result = run(
            api.make_protocol("ss2pl"), clients=15, duration=3.0, spec=hot,
            recovery=RecoveryPolicy(
                request_timeout=0.2, backoff_factor=1.0, max_retries=0
            ),
        )
        assert result.timeout_aborts > 0


class TestSLA:
    def test_premium_faster_with_sla_layer(self):
        population = ClientPopulation(SLA_TIERS)
        base = run(
            api.make_protocol("ss2pl"), clients=20, duration=3.0,
            attrs_for_client=population.attributes_for,
        )
        sla = run(
            SLAOrderingProtocol(api.make_protocol("ss2pl")), clients=20,
            duration=3.0, attrs_for_client=population.attributes_for,
        )
        assert sla.mean_response("premium") < base.mean_response("premium")
        assert sla.mean_response("premium") < sla.mean_response("free")

    def test_tier_samples_collected(self):
        population = ClientPopulation(SLA_TIERS)
        result = run(
            api.make_protocol("ss2pl"), clients=10, duration=2.0,
            attrs_for_client=population.attributes_for,
        )
        assert set(result.response_times) == {"premium", "free"}
