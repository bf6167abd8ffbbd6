"""Smoke test of the perf ledger: every workload at 1/100 size, both
modes, plus the pieces the numbers rest on (percentile picker, compare).
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger_metrics import (  # noqa: E402
    END_TO_END,
    NAME_RE,
    PER_LAYER,
    compare,
    highest_supported,
    percentile,
    samples_beyond,
)
from ledger_workloads import WORKLOADS, run_workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
SYNC = {workload.name for workload in WORKLOADS if workload.kind == "sync"}


def test_benchmark_json_lists_what_the_code_measures():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in WORKLOADS
    ]
    assert BENCHMARK["end_to_end"] == [metric._asdict() for metric in END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(len(workload["why"]) <= 200 for workload in BENCHMARK["workloads"])
    assert all(0 < metric.bound <= 0.25 for metric in END_TO_END)
    assert "setup_s" in {metric.name for metric in END_TO_END}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [workload.name for workload in WORKLOADS])
def test_workload_runs_and_reports_every_metric(name, trace):
    result = run_workload(name, seed=3, seconds=0.4, trace=trace, scale=0.01)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    registry = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    assert list(metrics) == [metric.name for metric in registry]
    for metric in registry:
        assert metrics[metric.name]["unit"] == metric.unit
        assert math.isfinite(metrics[metric.name]["value"])
    if not trace:
        assert all(metrics[metric.name]["value"] > 0 for metric in END_TO_END)
        return
    value = {name: entry["value"] for name, entry in metrics.items()}
    # The span around protocol.schedule and the scheduler's own
    # query_seconds time the same calls.
    assert value["protocols.schedule_s"] == pytest.approx(
        value["protocols.query_seconds_s"], rel=0.02
    )
    assert value["backends.delta.maintain_s"] <= value["protocols.schedule_s"]
    assert value["core.step_self_s"] <= value["core.step_s"]
    if name in SYNC:
        # No idle time without an event loop: driver + submit + step
        # spans must account for the window.
        assert value["trace.coverage_share"] >= 0.95
        assert value["serve.submit_n"] == 0
    else:
        assert value["serve.submit_n"] > 0
        assert 0 <= value["serve.unattributed_share"] < 1
    assert (value["shard.step_s"] > 0) == (name == "shard4-zipf")
    if name == "deep-history":
        assert value["core.history_prune_s"] == 0
        assert value["backends.delta.retracts"] < value["backends.delta.inserts"]


def test_sync_batches_are_a_function_of_the_seed():
    digests = {
        run_workload("deep-history", seed=5, seconds=0.3, trace=False, scale=0.01)
        ["detail"]["batch_digest"]
        for __ in range(2)
    }
    assert len(digests) == 1 and None not in digests


def test_percentile_picker_keeps_ten_samples_beyond():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile(list(range(1, 1001)), 99) == 990
    assert samples_beyond(1000, 99) == 10
    assert highest_supported(100_000) == 99.9
    assert highest_supported(10_000) == 99.9
    assert highest_supported(9_999) == 99.0
    assert highest_supported(1_000) == 99.0
    assert highest_supported(999) == 95.0
    assert highest_supported(50) == 50.0


def _ledger(**runs_by_metric):
    end_to_end = {
        metric.name: {"runs": runs_by_metric.get(metric.name, [100.0, 101.0, 102.0])}
        for metric in END_TO_END
    }
    return {"workloads": {"w": {"attempted": 1000, "failed": 0, "end_to_end": end_to_end}}}


def _verdicts(a, b):
    rows, passed = compare(a, b)
    return {row["metric"]: row["verdict"] for row in rows}, passed


def test_compare_gives_ok_worse_and_unresolved():
    base = _ledger()
    verdicts, passed = _verdicts(base, _ledger())
    assert passed and set(verdicts.values()) == {"ok"}

    # Throughput 20 % down is beyond its 15 % bound; 5 % down is not.
    verdicts, passed = _verdicts(base, _ledger(grants_per_s=[80.0, 81.0, 82.0]))
    assert not passed and verdicts["grants_per_s"] == "worse"
    verdicts, passed = _verdicts(base, _ledger(grants_per_s=[95.0, 96.0, 97.0]))
    assert passed and verdicts["grants_per_s"] == "ok"
    # Lower-is-better metrics worsen upwards.
    verdicts, passed = _verdicts(base, _ledger(grant_latency_ms_p50=[120.0, 121.0, 122.0]))
    assert not passed and verdicts["grant_latency_ms_p50"] == "worse"

    # A base whose own runs spread wider than the bound resolves
    # nothing, unless every new run beats every base run.
    noisy = _ledger(grants_per_s=[70.0, 100.0, 130.0])
    verdicts, passed = _verdicts(noisy, _ledger(grants_per_s=[90.0, 95.0, 99.0]))
    assert passed and verdicts["grants_per_s"] == "unresolved"
    verdicts, __ = _verdicts(noisy, _ledger(grants_per_s=[140.0, 150.0, 160.0]))
    assert verdicts["grants_per_s"] == "ok"

    # Any rise in the failed share fails the comparison.
    failing = _ledger()
    failing["workloads"]["w"]["failed"] = 1
    verdicts, passed = _verdicts(base, failing)
    assert not passed and verdicts["failed_share"] == "worse"
    assert _verdicts(failing, base)[1]
