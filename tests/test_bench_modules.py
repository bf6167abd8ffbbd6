"""Bench-module behaviours at reduced scale (the full-scale versions
run under pytest-benchmark; these tests pin the logic)."""

import pytest

import repro.api as api
from repro.bench.crossover import CrossoverPoint, sweep_crossover
from repro.bench.declarative_overhead import (
    OverheadPoint,
    measure_scheduler_run,
    paper_snapshot,
)
from repro.bench.figure2 import Figure2Point, sweep_native
from repro.bench.incremental_ablation import drive_steps


class TestPaperSnapshot:
    def test_shape(self):
        incoming, history = paper_snapshot(50)
        assert len(incoming) == 50
        assert len(history) == 50 * 20
        # One open request per transaction, next intrata.
        assert all(r.intrata == 20 for r in incoming)
        tas = {r.ta for r in incoming}
        assert len(tas) == 50

    def test_no_committed_transactions_in_history(self):
        __, history = paper_snapshot(30)
        assert all(r.operation.is_data_access for r in history)

    def test_conflict_rate_controls_qualified_share(self):
        low = measure_scheduler_run(
            60, repetitions=1, conflict_rate=0.1
        )
        high = measure_scheduler_run(
            60, repetitions=1, conflict_rate=0.9
        )
        assert low.returned_per_run > high.returned_per_run

    def test_paper_operating_point_half_qualified(self):
        point = measure_scheduler_run(100, repetitions=2)
        assert 0.35 * 100 < point.returned_per_run < 0.7 * 100


class TestOverheadPoint:
    def test_extrapolation_arithmetic(self):
        point = OverheadPoint(
            clients=300,
            per_run_seconds=0.1,
            returned_per_run=150,
            history_rows=6000,
            pending_rows=300,
        )
        assert point.runs_needed(15_000) == pytest.approx(100.0)
        assert point.total_overhead(15_000) == pytest.approx(10.0)

    def test_zero_returned_is_infinite(self):
        point = OverheadPoint(1, 0.1, 0.0, 0, 0)
        assert point.runs_needed(10) == float("inf")


class TestSweeps:
    def test_figure2_point_fields(self):
        points = sweep_native((5,), duration=2.0)
        assert isinstance(points[0], Figure2Point)
        assert points[0].clients == 5
        assert points[0].mu_seconds == 2.0
        assert points[0].ratio_percent > 100

    def test_crossover_points(self):
        points = sweep_crossover(client_counts=(5,), duration=2.0, repetitions=1)
        point = points[0]
        assert isinstance(point, CrossoverPoint)
        assert point.native_overhead_s > 0
        assert point.declarative_total_s > 0
        assert point.declarative_wins == (
            point.declarative_total_s < point.native_overhead_s
        )


class TestDriveSteps:
    def test_progress_and_determinism(self):
        a = drive_steps(
            api.make_protocol("ss2pl-listing1"), clients=20, steps=8,
            ops_per_txn=3, table_rows=100, seed=5,
        )
        b = drive_steps(
            api.make_protocol("ss2pl-listing1"), clients=20, steps=8,
            ops_per_txn=3, table_rows=100, seed=5,
        )
        assert a.batches == b.batches
        assert a.total_qualified > 0
        assert a.per_step_ms > 0
