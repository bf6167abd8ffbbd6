"""E5 — Section 4.3.2: the cost of declarative scheduling.

Method (paper Section 4.3.1): build a pending-request table with one
open request per concurrently active transaction and a history table
"filled with half of the requests of the corresponding workload ...
without requests of committed transactions"; measure the wall-clock
time of a full scheduler run — reading the incoming batch, inserting it
into the pending table, evaluating the SS2PL query, deleting qualified
rows and inserting them into history — and count tuples returned.

The paper observed roughly half the pending requests qualifying per
run; the snapshot builder's ``conflict_rate`` reproduces that operating
point (0.5 by default).  Total workload overhead is then extrapolated
exactly as the paper does: ``runs = statements / returned_per_run``,
``total = runs * per_run_time``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import repro.api as api
from repro.core.scheduler import DeclarativeScheduler, SchedulerConfig
from repro.core.triggers import FillLevelTrigger
from repro.metrics.reporting import ComparisonRow, render_comparison, render_table
from repro.model.request import Operation, Request
from repro.protocols.base import Protocol

#: The paper's Section 4.3.2 anchor numbers.
PAPER_OVERHEAD = {
    300: {"per_run_ms": 358.0, "returned": 150, "runs": 3668, "total_s": 1314.0},
    500: {"per_run_ms": 545.0, "returned": 250, "runs": 193, "total_s": 106.0},
}


@dataclass(frozen=True, slots=True)
class OverheadPoint:
    clients: int
    per_run_seconds: float
    returned_per_run: float
    history_rows: int
    pending_rows: int

    def runs_needed(self, workload_statements: int) -> float:
        if self.returned_per_run <= 0:
            return float("inf")
        return workload_statements / self.returned_per_run

    def total_overhead(self, workload_statements: int) -> float:
        return self.runs_needed(workload_statements) * self.per_run_seconds


def paper_snapshot(
    clients: int,
    executed_per_txn: int = 20,
    table_rows: int = 100_000,
    conflict_rate: float = 0.5,
    seed: int = 7,
) -> tuple[list[Request], list[Request]]:
    """Build (incoming, history) mirroring the paper's measurement point.

    History: *clients* active transactions, each having executed
    ``executed_per_txn`` statements (no committed transactions, as the
    paper states).  Incoming: one next request per transaction; with
    probability ``conflict_rate`` it targets an object some *other*
    transaction has locked, making the SS2PL query deny ~that share.
    """
    rng = random.Random(seed)
    history: list[Request] = []
    locked_by: dict[int, int] = {}  # object -> ta
    rid = 1
    for ta in range(1, clients + 1):
        objects = rng.sample(range(table_rows), executed_per_txn)
        for intrata, obj in enumerate(objects):
            op = Operation.WRITE if rng.random() < 0.5 else Operation.READ
            history.append(Request(rid, ta, intrata, op, obj))
            locked_by[obj] = ta
            rid += 1

    locked_objects = list(locked_by)
    incoming: list[Request] = []
    for ta in range(1, clients + 1):
        if rng.random() < conflict_rate and locked_objects:
            # Pick an object locked by a different transaction.
            for __ in range(8):
                obj = rng.choice(locked_objects)
                if locked_by[obj] != ta:
                    break
            op = Operation.WRITE  # writes conflict with both lock kinds
        else:
            obj = rng.randrange(table_rows)
            while obj in locked_by:
                obj = rng.randrange(table_rows)
            op = Operation.WRITE if rng.random() < 0.5 else Operation.READ
        incoming.append(Request(rid, ta, executed_per_txn, op, obj))
        rid += 1
    return incoming, history


def measure_scheduler_run(
    clients: int,
    protocol: Optional[Protocol] = None,
    repetitions: int = 3,
    conflict_rate: float = 0.5,
    seed: int = 7,
) -> OverheadPoint:
    """Time full scheduler runs (queue drain + insert + query + move) at
    the paper's measurement point; returns the averages.

    The default protocol is Listing 1 on the *interpreted* backend, its
    CTEs materialized eagerly — the naive evaluation the paper
    measured; the compiled-plan improvement is reported separately
    (:mod:`repro.bench.scheduler_step`)."""
    protocol = (
        protocol
        if protocol is not None
        else api.make_protocol("ss2pl-listing1", "interpreted")
    )
    per_run: list[float] = []
    returned: list[int] = []
    history_rows = pending_rows = 0
    for rep in range(repetitions):
        incoming, history = paper_snapshot(
            clients, conflict_rate=conflict_rate, seed=seed + rep
        )
        scheduler = DeclarativeScheduler(
            protocol,
            trigger=FillLevelTrigger(1),
            config=SchedulerConfig(prune_history=False),
        )
        scheduler.history.record_batch(history)
        for request in incoming:
            scheduler.submit(request)
        history_rows = len(scheduler.history)
        pending_rows = len(incoming)
        started = time.perf_counter()
        result = scheduler.step()
        per_run.append(time.perf_counter() - started)
        returned.append(result.batch_size)
    return OverheadPoint(
        clients=clients,
        per_run_seconds=sum(per_run) / len(per_run),
        returned_per_run=sum(returned) / len(returned),
        history_rows=history_rows,
        pending_rows=pending_rows,
    )


def run_declarative_overhead(
    client_counts: Sequence[int] = (100, 200, 300, 400, 500),
    workload_statements: Optional[dict[int, int]] = None,
    repetitions: int = 3,
    include_compiled_comparison: bool = False,
) -> str:
    """Full E5 report.

    ``workload_statements`` maps client count to the MU statement count
    whose scheduling the overhead is extrapolated over; defaults to the
    paper's numbers at 300/500 and interpolation elsewhere.

    ``include_compiled_comparison`` appends the interpreted-vs-compiled
    per-step ablation (see :mod:`repro.bench.scheduler_step`) — the
    paper's Section 5 improvement hypothesis, measured.  Off by
    default so existing callers (and their tracked timings) keep
    measuring exactly the paper's naive operating point; the CLI's E5
    turns it on, and E13 runs the ablation standalone.
    """
    defaults = {300: 550_055, 500: 48_267}
    workload = dict(defaults)
    if workload_statements:
        workload.update(workload_statements)

    points = [
        measure_scheduler_run(clients, repetitions=repetitions)
        for clients in client_counts
    ]

    rows = []
    for point in points:
        statements = workload.get(point.clients)
        rows.append(
            (
                point.clients,
                round(point.per_run_seconds * 1000, 2),
                round(point.returned_per_run, 1),
                point.history_rows,
                round(point.runs_needed(statements), 0) if statements else "-",
                round(point.total_overhead(statements), 1) if statements else "-",
            )
        )
    data_table = render_table(
        ["clients", "per-run (ms)", "returned/run", "history rows",
         "runs needed", "total overhead (s)"],
        rows,
        title="Section 4.3.2: declarative scheduling overhead (relalg backend)",
    )

    comparisons: list[ComparisonRow] = []
    by_clients = {p.clients: p for p in points}
    for clients, anchors in PAPER_OVERHEAD.items():
        point = by_clients.get(clients)
        if point is None:
            continue
        statements = workload[clients]
        comparisons.extend(
            [
                ComparisonRow(
                    f"per-run query time @ {clients} clients (ms)",
                    anchors["per_run_ms"],
                    round(point.per_run_seconds * 1000, 2),
                    "2026 hardware is faster; shape is what matters",
                ),
                ComparisonRow(
                    f"tuples returned per run @ {clients} clients",
                    anchors["returned"],
                    round(point.returned_per_run, 1),
                    "paper: about half the client count",
                ),
                ComparisonRow(
                    f"scheduler runs for workload @ {clients} clients",
                    anchors["runs"],
                    round(point.runs_needed(statements)),
                ),
                ComparisonRow(
                    f"total declarative overhead @ {clients} clients (s)",
                    anchors["total_s"],
                    round(point.total_overhead(statements), 1),
                ),
            ]
        )
    anchor_table = render_comparison(
        comparisons, title="Section 4.3.2 anchors (paper vs measured)"
    )
    sections = [data_table, anchor_table]
    if include_compiled_comparison:
        from repro.bench.scheduler_step import (
            render_scheduler_step_report,
            run_scheduler_step_bench,
        )

        compiled_counts = tuple(
            c for c in client_counts if c in (100, 300, 500)
        ) or (300,)
        report = run_scheduler_step_bench(compiled_counts)
        sections.append(render_scheduler_step_report(report))
    return "\n\n".join(sections)
