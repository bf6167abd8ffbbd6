"""Per-step scheduler query cost: interpreted pipeline vs compiled plan.

The plan-compilation layer (:mod:`repro.relalg.plan`) claims that a
protocol's declarative query needs *analyzing* once and only
*executing* per scheduler step.  This bench pins that claim to a
number: it drives the live scheduler over the E5 operating point
(Section 4.3.1's snapshot — one open request per client, twenty
executed statements per transaction in history, no committed
transactions) for a fixed number of steps, once with the eager
interpreted Listing 1 pipeline and once with the cached compiled plan,
and reports the median per-step ``query_seconds`` of each at several
history sizes.

Qualified batches are asserted identical between the two modes — this
is a pure evaluation-strategy ablation (``repro run E13``), the rule
never changes.  Wall-clock numbers for the default backend come from
the perf ledger (``benchmarks/ledger/``), whose ``deep-history``
workload preloads :func:`large_history_snapshot`.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from repro.bench.declarative_overhead import paper_snapshot
from repro.core.scheduler import DeclarativeScheduler, SchedulerConfig
from repro.core.triggers import FillLevelTrigger
from repro.metrics.reporting import render_table
from repro.backends import build_protocol
from repro.model.request import NO_OBJECT, Operation, Request
from repro.protocols.base import Protocol


@dataclass
class StepCostResult:
    """Per-step query cost of one protocol over one driven workload."""

    clients: int
    steps: int
    history_rows: int
    query_seconds: list[float] = field(default_factory=list)
    batches: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def median_seconds(self) -> float:
        """Median per-step query time, excluding the first step (which
        pays one-time plan compilation on the compiled path)."""
        tail = self.query_seconds[1:] or self.query_seconds
        return statistics.median(tail)

    @property
    def first_step_seconds(self) -> float:
        return self.query_seconds[0] if self.query_seconds else 0.0


def measure_step_costs(
    protocol: Protocol,
    clients: int,
    steps: int = 10,
    seed: int = 7,
    table_rows: int = 100_000,
) -> StepCostResult:
    """Drive *steps* scheduler steps at the E5 operating point.

    The scheduler starts from the paper's snapshot (``clients`` open
    requests over ``clients * 20`` history rows, pruning disabled as in
    Section 4.3.1) and each following step re-submits one next request
    per transaction that executed something — a steady stream at a
    roughly constant pending size over a growing history.
    """
    incoming, history = paper_snapshot(clients, seed=seed)
    return drive_step_costs(
        protocol, incoming, history, steps=steps, seed=seed,
        table_rows=table_rows,
    )


def drive_step_costs(
    protocol: Protocol,
    incoming: list[Request],
    history: list[Request],
    steps: int,
    seed: int,
    table_rows: int,
) -> StepCostResult:
    """The driving loop over any snapshot (E5's, or
    :func:`large_history_snapshot`'s): preload *history*, then feed a
    steady wave of follow-up requests for *steps* scheduler steps."""
    scheduler = DeclarativeScheduler(
        protocol,
        trigger=FillLevelTrigger(1),
        config=SchedulerConfig(prune_history=False),
    )
    scheduler.history.record_batch(history)
    # Stateful protocols (e.g. the incremental backend) must observe the
    # preloaded snapshot exactly as if the scheduler had executed it.
    protocol.observe_executed(history)
    rng = random.Random(seed + 1)
    next_id = max(r.id for r in incoming) + 1
    next_intrata = {r.ta: r.intrata for r in incoming}

    result = StepCostResult(
        clients=len(incoming), steps=steps, history_rows=len(history)
    )
    wave = list(incoming)
    for __ in range(steps):
        for request in wave:
            scheduler.submit(request)
        step = scheduler.step()
        result.query_seconds.append(step.query_seconds)
        result.batches.append(tuple(r.id for r in step.qualified))
        wave = []
        for request in step.qualified:
            next_intrata[request.ta] = next_intrata.get(request.ta, 0) + 1
            op = Operation.WRITE if rng.random() < 0.5 else Operation.READ
            wave.append(
                Request(
                    next_id,
                    request.ta,
                    next_intrata[request.ta],
                    op,
                    rng.randrange(table_rows),
                )
            )
            next_id += 1
    result.history_rows = len(scheduler.history)
    return result


def large_history_snapshot(
    active_clients: int,
    history_rows: int,
    executed_per_txn: int = 20,
    seed: int = 7,
) -> tuple[list[Request], list[Request], int]:
    """The 10^5–10^6-row operating point: a small active working set
    over a deep history.

    The paper's E5 snapshot couples history size to the client count
    (``clients * 20`` rows); at 10^6 rows that would mean 50 000 open
    requests, which measures batch width, not history depth.  Here the
    active part stays at ``active_clients`` open transactions (the E5
    shape) and the rest of the history is filled with *committed*
    transactions — they hold no locks, so the per-step decision is
    unchanged, but every non-incremental backend still has to scan
    them.  Returns ``(incoming, history, table_rows)``; the object
    space scales with the history so lock conflicts stay at the E5
    rate.
    """
    table_rows = max(100_000, 2 * history_rows)
    incoming, history = paper_snapshot(
        active_clients, executed_per_txn, table_rows, seed=seed
    )
    rng = random.Random(seed + 99)
    rid = max(r.id for r in incoming) + 1
    ta = active_clients + 1
    filler: list[Request] = []
    budget = history_rows - len(history)
    while len(filler) < budget:
        span = min(executed_per_txn, budget - len(filler) - 1)
        for intrata in range(max(span, 1)):
            op = Operation.WRITE if rng.random() < 0.5 else Operation.READ
            filler.append(
                Request(rid, ta, intrata, op, rng.randrange(table_rows))
            )
            rid += 1
        filler.append(
            Request(rid, ta, span, Operation.COMMIT, NO_OBJECT)
        )
        rid += 1
        ta += 1
    # Interleave nothing: committed filler precedes the active snapshot
    # id-wise only in ta numbering; history order is irrelevant to the
    # specs (set semantics), so append keeps construction O(rows).
    return incoming, history + filler, table_rows


def run_scheduler_step_bench(
    client_counts: Sequence[int] = (100, 300, 500),
    steps: int = 10,
    seed: int = 7,
    protocol: str = "ss2pl",
    backend: str = "compiled",
) -> dict:
    """Interpreted-vs-compiled per-step cost at several history sizes.

    Returns a JSON-serializable report; raises if the two evaluation
    strategies ever emit different batches.
    """
    points = []
    for clients in client_counts:
        interpreted = measure_step_costs(
            build_protocol(protocol, "interpreted"),
            clients, steps=steps, seed=seed,
        )
        compiled = measure_step_costs(
            build_protocol(protocol, backend), clients, steps=steps, seed=seed
        )
        if interpreted.batches != compiled.batches:
            raise AssertionError(
                f"backend {backend!r} diverged from the interpreted "
                f"reference at {clients} clients"
            )
        speedup = (
            interpreted.median_seconds / compiled.median_seconds
            if compiled.median_seconds
            else float("inf")
        )
        points.append(
            {
                "clients": clients,
                "initial_history_rows": clients * 20,
                "final_history_rows": compiled.history_rows,
                "steps": steps,
                "interpreted_median_step_s": round(
                    interpreted.median_seconds, 6
                ),
                "compiled_median_step_s": round(compiled.median_seconds, 6),
                "compiled_first_step_s": round(
                    compiled.first_step_seconds, 6
                ),
                "speedup": round(speedup, 2),
                "batches_identical": True,
            }
        )
    return {
        "benchmark": "scheduler_step",
        "protocol": protocol,
        "backend": backend,
        "workload": "E5 declarative-overhead snapshot, steady stream",
        "metric": "median per-step query_seconds (first step excluded)",
        "points": points,
    }


def render_scheduler_step_report(report: dict) -> str:
    rows = [
        (
            p["clients"],
            p["final_history_rows"],
            round(p["interpreted_median_step_s"] * 1000, 2),
            round(p["compiled_median_step_s"] * 1000, 2),
            f"{p['speedup']}x",
        )
        for p in report["points"]
    ]
    backend = report.get("backend", "compiled")
    return render_table(
        ["clients", "history rows", "interpreted (ms)", f"{backend} (ms)",
         "speedup"],
        rows,
        title=(
            f"Per-step protocol query cost: interpreted pipeline vs the "
            f"{backend!r} backend (identical batches verified)"
        ),
    )
