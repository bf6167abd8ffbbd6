"""E5 — Section 4.3.2: declarative scheduling overhead.

pytest-benchmark times the full scheduler run (drain + insert + SS2PL
query + move to history) at the paper's 300- and 500-client operating
points; the report extrapolates total workload overhead exactly as the
paper does.
"""

import pytest

import repro.api as api
from repro.bench.declarative_overhead import (
    measure_scheduler_run,
    paper_snapshot,
    run_declarative_overhead,
)
from repro.core.scheduler import SchedulerConfig

from benchmarks.conftest import emit


@pytest.mark.parametrize("clients", [300, 500])
def test_scheduler_run_timing(benchmark, clients):
    """The quantity the paper reports as 358 ms / 545 ms per run."""
    incoming, history = paper_snapshot(clients)

    def fresh_scheduler():
        scheduler = api.make_scheduler(
            "ss2pl-listing1",
            config=SchedulerConfig(prune_history=False),
        )
        scheduler.history.record_batch(history)
        for request in incoming:
            scheduler.submit(request)
        return (scheduler,), {}

    def one_run(scheduler):
        return scheduler.step()

    result = benchmark.pedantic(
        one_run, setup=fresh_scheduler, rounds=5, iterations=1
    )
    # Paper: "about half of the number of concurrent clients" returned.
    assert 0.3 * clients < result.batch_size < 0.7 * clients


def test_sec432_report(benchmark):
    report = benchmark.pedantic(
        run_declarative_overhead,
        kwargs={"client_counts": (100, 200, 300, 400, 500), "repetitions": 3},
        rounds=1,
        iterations=1,
    )
    emit(report)
    assert "declarative scheduling overhead" in report
    assert "paper" in report


def test_per_run_time_grows_with_clients():
    small = measure_scheduler_run(100, repetitions=2)
    large = measure_scheduler_run(500, repetitions=2)
    assert large.per_run_seconds > small.per_run_seconds
    assert large.returned_per_run > small.returned_per_run
