"""Deterministic scenario reports.

Every number in a scenario report is derived from virtual-time metrics
(statement counts, virtual seconds, batch sizes), never from wall-clock
measurements, so ``repro scenario run <name> --seed S`` renders the
byte-identical report on every invocation.
"""

from __future__ import annotations

from typing import Sequence

from repro.metrics.reporting import render_table
from repro.scenarios.runner import CellResult, ScenarioResult


def _cell_row(entry: CellResult) -> list[object]:
    result = entry.result
    return [
        entry.cell.label,
        entry.protocol.name,
        entry.cell.trigger.label,
        result.completed_statements,
        round(result.throughput, 1),
        result.committed_transactions,
        result.scheduler_runs,
        round(result.mean_batch_size, 2),
        round(result.mean_response() * 1000, 3),
        result.timeout_aborts,
    ]


def _recovery_row(entry: CellResult) -> list[object]:
    result = entry.result
    return [
        entry.cell.label,
        result.timeout_aborts,
        result.reaped_orphans,
        result.retries,
        result.retry_budget_exhausted,
        result.sheds,
        result.crashes,
        result.stalls,
        result.drops,
        result.step_faults,
        round(result.mean_recovery_time * 1000, 3),
        round(result.goodput, 1),
    ]


def _delta_rows(outcome: ScenarioResult) -> list[list[object]]:
    """Delta-maintenance counters for cells whose backend keeps
    incrementally maintained state.  Counts only — the wall-clock
    ``maintain_s`` timers stay out of the report so same-seed runs
    remain byte-identical (CI diffs these reports)."""
    rows = []
    for entry in outcome.cells:
        stats = entry.result.delta_maintenance
        if not stats:
            continue
        steps = stats.get("steps", 0)
        inserts = stats.get("inserts", 0)
        retracts = stats.get("retracts", 0)
        per_step = (inserts + retracts) / steps if steps else 0.0
        rows.append(
            [
                entry.cell.label,
                steps,
                inserts,
                retracts,
                round(per_step, 2),
                stats.get("rebuilds", 0),
                stats.get("cache_hits", 0),
                stats.get("cache_misses", 0),
            ]
        )
    return rows


def _tier_rows(outcome: ScenarioResult) -> list[list[object]]:
    rows = []
    for entry in outcome.cells:
        for tier in sorted(entry.result.response_times):
            rows.append(
                [
                    entry.cell.label,
                    tier,
                    len(entry.result.response_times[tier]),
                    round(entry.result.mean_response(tier) * 1000, 3),
                ]
            )
    return rows


def render_scenario_report(outcome: ScenarioResult) -> str:
    """The canonical report of one scenario run."""
    spec = outcome.spec
    header = (
        f"scenario {spec.name} — {spec.description}\n"
        f"clients={outcome.clients} duration={outcome.duration:g}s "
        f"seed={outcome.seed} population={spec.population} "
        f"workload=r{spec.workload.reads_per_txn}w{spec.workload.writes_per_txn}"
        f"/{spec.workload.table_rows}rows"
        + (
            f" zipf={spec.workload.zipf_theta:g}"
            if spec.workload.zipf_theta is not None
            else ""
        )
        + (
            f" bursts={spec.burst_size}@{spec.burst_gap:g}s"
            if spec.burst_size is not None
            else ""
        )
        + (f" faults={spec.faults.label}" if spec.faults is not None else "")
    )
    table = render_table(
        ["cell", "protocol", "trigger", "stmts", "stmts/s", "commits",
         "runs", "mean batch", "mean resp (ms)", "aborts"],
        [_cell_row(entry) for entry in outcome.cells],
    )
    parts = [header, table]
    delta_rows = _delta_rows(outcome)
    if delta_rows:
        parts.append(
            render_table(
                ["cell", "steps", "inserts", "retracts", "delta/step",
                 "rebuilds", "plan hits", "plan misses"],
                delta_rows,
                title="delta maintenance",
            )
        )
    if spec.is_chaos:
        parts.append(
            render_table(
                ["cell", "timeouts", "orphans", "retries", "gave up",
                 "sheds", "crashes", "stalls", "drops", "step faults",
                 "mean ttr (ms)", "goodput/s"],
                [_recovery_row(entry) for entry in outcome.cells],
                title="recovery metrics",
            )
        )
    if spec.population == "sla-tiers":
        parts.append(
            render_table(
                ["cell", "tier", "responses", "mean resp (ms)"],
                _tier_rows(outcome),
                title="per-tier response times",
            )
        )
    return "\n\n".join(parts)


def render_scenario_comparison(outcomes: Sequence[ScenarioResult]) -> str:
    """Side-by-side cell rows of several scenario runs."""
    rows = []
    for outcome in outcomes:
        for entry in outcome.cells:
            rows.append([outcome.spec.name] + _cell_row(entry))
    return render_table(
        ["scenario", "cell", "protocol", "trigger", "stmts", "stmts/s",
         "commits", "runs", "mean batch", "mean resp (ms)", "aborts"],
        rows,
        title="scenario comparison",
    )
