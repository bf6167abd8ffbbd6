"""E11 — incremental view maintenance vs. per-step recomputation.

The paper's research question 4 asks how declaratively programmed
schedulers can be made faster *without changing the specification*.
This bench drives the live middleware for a fixed number of scheduler
steps with (a) the paper's Listing 1 re-evaluated from scratch each
step and (b) the incrementally maintained variant, on identical
request sequences, and reports per-step cost; a correctness pass
asserts both emit identical batches.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

import repro.api as api
from repro.core.scheduler import DeclarativeScheduler, SchedulerConfig
from repro.core.triggers import FillLevelTrigger, TriggerPolicy
from repro.metrics.reporting import render_table
from repro.model.request import NO_OBJECT, Operation, Request
from repro.protocols.base import Protocol


@dataclass
class StepDriverResult:
    steps: int
    total_seconds: float
    total_qualified: int
    batches: list[tuple[int, ...]]

    @property
    def per_step_ms(self) -> float:
        return self.total_seconds / self.steps * 1000 if self.steps else 0.0


def drive_steps(
    protocol: Protocol,
    clients: int = 200,
    steps: int = 40,
    ops_per_txn: int = 20,
    table_rows: int = 100_000,
    seed: int = 13,
    trigger: Optional[TriggerPolicy] = None,
) -> StepDriverResult:
    """Run *steps* scheduler steps over a closed client population.

    Each step, every client submits its transaction's next request (a
    commit once ``ops_per_txn`` statements executed); the scheduler
    batch-evaluates and history evolves — exactly the load pattern that
    separates O(batch) incremental maintenance from O(history)
    recomputation.

    With an explicit ``trigger`` the driver becomes trigger-paced: each
    iteration is one virtual second, and the scheduler only steps when
    the policy fires (requests accumulate otherwise, recorded as an
    empty batch).  The default keeps the historical fire-every-
    iteration behavior.
    """
    rng = random.Random(seed)
    scheduler = DeclarativeScheduler(
        protocol,
        trigger=trigger if trigger is not None else FillLevelTrigger(1),
        config=SchedulerConfig(prune_history=True),
    )
    next_id = 1
    next_ta = clients + 1

    class _State:
        __slots__ = ("ta", "done")

        def __init__(self, ta: int) -> None:
            self.ta = ta
            self.done = 0

    states = [_State(client + 1) for client in range(clients)]
    state_of_ta = {state.ta: state for state in states}
    outstanding: set[int] = set()  # tas with a pending request

    batches: list[tuple[int, ...]] = []
    total_qualified = 0
    started = time.perf_counter()
    for step_index in range(steps):
        for state in states:
            if state.ta in outstanding:
                continue  # previous request still pending (blocked)
            if state.done >= ops_per_txn:
                request = Request(
                    next_id, state.ta, state.done, Operation.COMMIT, NO_OBJECT
                )
            else:
                op = Operation.WRITE if rng.random() < 0.5 else Operation.READ
                request = Request(
                    next_id, state.ta, state.done, op, rng.randrange(table_rows)
                )
            outstanding.add(state.ta)
            next_id += 1
            scheduler.submit(
                request, now=float(step_index) if trigger is not None else None
            )
        if trigger is not None:
            if not scheduler.should_run(now=float(step_index)):
                batches.append(())
                continue
            result = scheduler.step(now=float(step_index))
        else:
            result = scheduler.step()
        total_qualified += result.batch_size
        batches.append(tuple(r.id for r in result.qualified))
        for request in result.qualified:
            outstanding.discard(request.ta)
            state = state_of_ta.pop(request.ta, None)
            if state is None:
                continue
            if request.operation is Operation.COMMIT:
                state.ta = next_ta
                state.done = 0
                next_ta += 1
            else:
                state.done += 1
            state_of_ta[state.ta] = state
    total_seconds = time.perf_counter() - started
    return StepDriverResult(
        steps=steps,
        total_seconds=total_seconds,
        total_qualified=total_qualified,
        batches=batches,
    )


def run_incremental_ablation(
    clients: int = 200, steps: int = 30, seed: int = 13
) -> str:
    recompute = drive_steps(
        api.make_protocol("ss2pl-listing1", "interpreted"),
        clients=clients, steps=steps, seed=seed,
    )
    compiled = drive_steps(
        api.make_protocol("ss2pl-listing1", "compiled"),
        clients=clients, steps=steps, seed=seed,
    )
    incremental = drive_steps(
        api.make_protocol("ss2pl-listing1", "incremental"),
        clients=clients, steps=steps, seed=seed,
    )
    if recompute.batches != incremental.batches:
        raise AssertionError(
            "incremental SS2PL diverged from Listing 1 recomputation"
        )
    if recompute.batches != compiled.batches:
        raise AssertionError(
            "compiled plan diverged from Listing 1 recomputation"
        )
    speedup = (
        recompute.per_step_ms / incremental.per_step_ms
        if incremental.per_step_ms
        else float("inf")
    )
    table = render_table(
        ["evaluation strategy", "steps", "qualified total", "per-step (ms)"],
        [
            ("recompute Listing 1 each step (interpreted)", recompute.steps,
             recompute.total_qualified, round(recompute.per_step_ms, 2)),
            ("cached compiled plan (delta-maintained builds)",
             compiled.steps, compiled.total_qualified,
             round(compiled.per_step_ms, 2)),
            ("incremental lock-view maintenance", incremental.steps,
             incremental.total_qualified, round(incremental.per_step_ms, 2)),
        ],
        title=(
            f"Incremental-maintenance ablation ({clients} clients, "
            f"{steps} steps): same rule, same batches (verified), "
            "different evaluation strategy"
        ),
    )
    return table + f"\n\nspeedup: {speedup:.1f}x per scheduler step"
