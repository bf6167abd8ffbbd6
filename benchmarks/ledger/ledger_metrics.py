"""Metric registry of the perf ledger, the percentile picker and `compare`.

The names here are the ones later changes cite.  ``BENCHMARK.json`` at
the repository root lists the same names, units, directions and bounds;
``test_ledger_smoke.py`` asserts the two agree.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import NamedTuple, Optional, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the base's median by which the metric may worsen before
    #: `compare` calls it worse; None for per-layer metrics (no bound).
    bound: Optional[float] = None


#: What a user of the scheduler sees.  Every one is reported by every
#: workload (untraced run).  Refused and lost requests are counted in
#: the result's ``failed``/``attempted`` pair, not as a metric, because
#: their baseline is 0 on all five workloads.  Bounds are at least twice
#: the run-to-run spread measured when the ledger was defined (README).
END_TO_END = (
    Metric("grants_per_s", "1/s", "higher", 0.15),
    Metric("grant_latency_ms_p50", "ms", "lower", 0.15),
    Metric("grant_latency_ms_p99", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)


def _layer(prefix: str, *entries: tuple[str, str, str]) -> list[Metric]:
    return [Metric(f"{prefix}.{name}", unit, better) for name, unit, better in entries]


#: Single-layer numbers from the traced run; layer = module name under
#: ``src/repro``.  ``_s`` are wall seconds summed over the traced
#: window (``trace.window_s`` long), ``_n`` are counts over it.
PER_LAYER = tuple(
    _layer(
        "serve",
        ("submit_s", "s", "lower"),
        ("submit_n", "count", "higher"),
        ("session_acquire_wait_s", "s", "lower"),
        ("await_grant_wait_s", "s", "lower"),
        ("release_s", "s", "lower"),
        ("resolve_s", "s", "lower"),
        ("queue_wait_ms_p50", "ms", "lower"),
        ("queue_wait_ms_p99", "ms", "lower"),
        ("grants_per_step", "count", "higher"),
        ("unattributed_share", "share", "lower"),
    )
    + _layer(
        "core",
        ("step_s", "s", "lower"),
        ("step_n", "count", "lower"),
        ("step_self_s", "s", "lower"),
        ("step_ms_p50", "ms", "lower"),
        ("step_ms_p99", "ms", "lower"),
        ("submit_s", "s", "lower"),
        ("should_run_s", "s", "lower"),
        ("should_run_n", "count", "lower"),
        ("empty_step_share", "share", "lower"),
        ("drain_s", "s", "lower"),
        ("pending_insert_s", "s", "lower"),
        ("pending_remove_s", "s", "lower"),
        ("history_record_s", "s", "lower"),
        ("history_prune_s", "s", "lower"),
        ("pending_rows_mean", "count", "lower"),
        ("history_rows_max", "count", "lower"),
    )
    + _layer(
        "protocols",
        ("schedule_s", "s", "lower"),
        ("query_seconds_s", "s", "lower"),
        ("post_process_s", "s", "lower"),
        ("observe_executed_s", "s", "lower"),
        ("observe_pruned_s", "s", "lower"),
    )
    + _layer(
        "backends.delta",
        ("maintain_s", "s", "lower"),
        ("rebuilds", "count", "lower"),
        ("inserts", "count", "lower"),
        ("retracts", "count", "lower"),
        ("rows_per_step", "count", "lower"),
        ("cache_misses", "count", "lower"),
    )
    + _layer(
        "relalg.delta",
        ("antijoin_s", "s", "lower"),
        ("join_s", "s", "lower"),
        ("filter_s", "s", "lower"),
        ("project_s", "s", "lower"),
        ("distinct_s", "s", "lower"),
        ("setop_s", "s", "lower"),
        ("identity_s", "s", "lower"),
        ("materialize_s", "s", "lower"),
    )
    + _layer(
        "shard",
        ("step_s", "s", "lower"),
        ("shard_step_s_sum", "s", "lower"),
        ("shard_step_s_max", "s", "lower"),
        ("facade_self_s", "s", "lower"),
        ("submit_s", "s", "lower"),
        ("imbalance", "ratio", "lower"),
        ("cross_shard_txn_share", "share", "lower"),
        ("coordinated_n", "count", "lower"),
        ("broadcasts_n", "count", "lower"),
        ("stale_grants_n", "count", "lower"),
        ("retries_n", "count", "lower"),
        ("giveups_n", "count", "lower"),
    )
    + _layer(
        "faults",
        ("monitor_after_step_s", "s", "lower"),
        ("monitor_note_submitted_s", "s", "lower"),
        ("final_check_s", "s", "lower"),
        ("timeouts_n", "count", "lower"),
        ("orphans_n", "count", "lower"),
        ("sheds_n", "count", "lower"),
    )
    + _layer(
        "trace",
        ("window_s", "s", "lower"),
        ("grants_n", "count", "higher"),
        ("overhead_share", "share", "lower"),
        ("coverage_share", "share", "higher"),
    )
    # The untraced reference windows of the traced run: the base of
    # trace.overhead_share, and the tail percentile too unsteady from
    # run to run to carry a bound.
    + _layer(
        "untraced",
        ("grants_per_s", "1/s", "higher"),
        ("grant_latency_ms_p999", "ms", "lower"),
    )
)


# -- percentiles -----------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in (0, 100])."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first: 99.9 / 100 * 10_000 is a hair above 9990 in floats.
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def highest_supported(n: int) -> float:
    """The highest of p99.9 / p99 / p95 / p90 that keeps at least ten of
    *n* samples beyond it; 50.0 when none does."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if samples_beyond(n, q) >= 10:
            return q
    return 50.0


# -- compare ---------------------------------------------------------------


def relative_worsening(base: float, new: float, better: str) -> float:
    """Signed share of *base* by which *new* is worse (negative: better)."""
    change = (new - base) / base
    return -change if better == "higher" else change


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: Metric, base: Sequence[float], new: Sequence[float]) -> str:
    """`ok` / `worse` / `unresolved` for one workload x metric.

    *base* and *new* are the values of every run on each side.  Worse
    means the new median is beyond the bound.  When the base's own
    run-to-run spread is wider than the bound the metric cannot be
    called unchanged: it is unresolved, unless every new run reads
    better than every base run.
    """
    worsening = relative_worsening(
        statistics.median(base), statistics.median(new), metric.better
    )
    if iqr_share(base) > metric.bound:
        if metric.better == "higher":
            clean_win = min(new) > max(base)
        else:
            clean_win = max(new) < min(base)
        return "ok" if clean_win else "unresolved"
    return "worse" if worsening > metric.bound else "ok"


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows for every workload x end-to-end metric of two ledger files
    (A is the base), and whether B passes: no `worse` row and no rise in
    the failed share."""
    rows: list[dict] = []
    passed = True
    for name, base in a["workloads"].items():
        new = b["workloads"].get(name)
        if new is None:
            rows.append({"workload": name, "metric": "-", "verdict": "worse",
                         "note": "workload missing from B"})
            passed = False
            continue
        for metric in END_TO_END:
            base_runs = base["end_to_end"][metric.name]["runs"]
            new_runs = new["end_to_end"][metric.name]["runs"]
            base_median = statistics.median(base_runs)
            new_median = statistics.median(new_runs)
            outcome = verdict(metric, base_runs, new_runs)
            passed = passed and outcome != "worse"
            rows.append({
                "workload": name,
                "metric": metric.name,
                "unit": metric.unit,
                "a": base_median,
                "b": new_median,
                "ratio_b_over_a": new_median / base_median,
                "bound": metric.bound,
                "verdict": outcome,
            })
        base_failed = base["failed"] / base["attempted"]
        new_failed = new["failed"] / new["attempted"]
        rose = new_failed > base_failed
        passed = passed and not rose
        rows.append({
            "workload": name,
            "metric": "failed_share",
            "unit": "share",
            "a": base_failed,
            "b": new_failed,
            "ratio_b_over_a": None,
            "bound": 0.0,
            "verdict": "worse" if rose else "ok",
        })
    return rows, passed


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':24s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        if "a" not in row:
            lines.append(f"{row['workload']:14s} {row['note']}")
            continue
        ratio = row["ratio_b_over_a"]
        lines.append(
            f"{row['workload']:14s} {row['metric']:24s} "
            f"{row['a']:12.4f} {row['b']:12.4f} "
            f"{(f'{ratio:7.3f}' if ratio is not None else '      -')} "
            f"{row['bound']:6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)
