"""E7 — trigger-policy ablation (the evaluation Section 3.3 defers)."""

import repro.api as api
from repro.bench.triggers_ablation import (
    ABLATION_WORKLOAD,
    run_trigger_ablation,
)
from repro.core.simulation import MiddlewareSimulation
from repro.core.triggers import FillLevelTrigger, TimeLapseTrigger

from benchmarks.conftest import emit


def test_trigger_ablation_report(benchmark):
    report = benchmark.pedantic(
        run_trigger_ablation,
        kwargs={"clients": 40, "duration": 5.0},
        rounds=1,
        iterations=1,
    )
    emit(report)
    assert "hybrid" in report and "fill" in report and "time" in report


def _run(trigger):
    return MiddlewareSimulation(
        protocol=api.make_protocol("ss2pl"),
        trigger=trigger,
        spec=ABLATION_WORKLOAD,
        clients=40,
        seed=5,
    ).run(4.0)


def test_batching_amortizes_scheduler_runs():
    eager = _run(FillLevelTrigger(1))
    batched = _run(FillLevelTrigger(40))
    # Bigger batches => far fewer scheduler runs for comparable work.
    assert batched.scheduler_runs < eager.scheduler_runs
    assert batched.mean_batch_size > eager.mean_batch_size


def test_long_time_trigger_hurts_latency():
    fast = _run(TimeLapseTrigger(0.005))
    slow = _run(TimeLapseTrigger(0.1))
    assert slow.mean_response() > fast.mean_response()
