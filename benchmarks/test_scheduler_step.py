"""E13 — per-step query cost: interpreted Listing 1 vs cached compiled plan.

Runs the ``repro run E13`` measurement at reduced scale under
pytest-benchmark and pins its two contracts: identical batches, and the
compiled plan not slower."""

from repro.bench.scheduler_step import (
    render_scheduler_step_report,
    run_scheduler_step_bench,
)

from benchmarks.conftest import emit


def test_scheduler_step_bench_report(benchmark):
    report = benchmark.pedantic(
        run_scheduler_step_bench,
        kwargs={"client_counts": (100, 300), "steps": 6},
        rounds=1,
        iterations=1,
    )
    emit(render_scheduler_step_report(report))
    assert all(p["batches_identical"] for p in report["points"])
    # 7x is typical; >1 guards against regression without host noise
    # flakiness.
    assert min(p["speedup"] for p in report["points"]) > 1.0


def test_stateful_backend_observes_preloaded_history():
    # Regression: the bench seeds history out-of-band; stateful
    # backends (incremental lock views) must still match the reference.
    report = run_scheduler_step_bench(
        client_counts=(20,), steps=3, backend="incremental"
    )
    assert all(p["batches_identical"] for p in report["points"])
