"""E11 — incremental view maintenance vs. per-step recomputation."""

import repro.api as api
from repro.bench.incremental_ablation import drive_steps, run_incremental_ablation

from benchmarks.conftest import emit


def test_incremental_ablation_report(benchmark):
    report = benchmark.pedantic(
        run_incremental_ablation,
        kwargs={"clients": 200, "steps": 30},
        rounds=1,
        iterations=1,
    )
    emit(report)
    assert "speedup" in report


def test_incremental_is_faster_and_equivalent():
    # The interpreted backend is the recomputation arm of RQ 4; the
    # compiled plan (delta-maintained builds) is measured separately in
    # run_incremental_ablation and `repro run E13`, and can legitimately
    # beat the hand-written incremental protocol.
    recompute = drive_steps(
        api.make_protocol("ss2pl-listing1", "interpreted"), clients=150, steps=20
    )
    incremental = drive_steps(
        api.make_protocol("ss2pl-listing1", "incremental"), clients=150, steps=20
    )
    assert incremental.batches == recompute.batches
    assert incremental.total_seconds < recompute.total_seconds
