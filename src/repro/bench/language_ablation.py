"""E8 — declarative-language-backend ablation.

The paper's research question 1 (Section 1): "To what extent can
existing query languages be used to capture typical constraints on
request schedules?" and question 2, their performance.  The same SS2PL
rule runs on several backends — Listing 1's SQL on our engine (planned
afresh each step with its CTEs materialized eagerly, and as the cached
compiled plan), our Datalog engine, the compiled SDL mini-language, and
sqlite3 executing its rendition of Listing 1 — over the same
snapshots; results are checked identical and timed.  Each backend gets one untimed warmup
evaluation per snapshot so plan-caching backends report steady-state
per-step cost (their one-time compilation happens in the warmup).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Sequence

import repro.api as api
from repro.bench.declarative_overhead import paper_snapshot
from repro.core.stores import HistoryStore, PendingStore
from repro.lang.protocol import SDLProtocol, SDL_SS2PL
from repro.metrics.reporting import render_table
from repro.protocols.base import Protocol


def backends() -> list[tuple[str, Protocol]]:
    """(label, protocol) pairs; labels name the two evaluation
    strategies of Listing 1's SQL on our engine."""
    listing1 = partial(api.make_protocol, "ss2pl-listing1")
    return [
        ("SQL interpreted (eager CTEs)", listing1("interpreted")),
        ("SQL compiled plan", listing1("compiled")),
        ("datalog", listing1("datalog")),
        ("sdl", SDLProtocol(SDL_SS2PL)),
        ("sqlite3", listing1("sqlite")),
    ]


def run_language_ablation(
    client_counts: Sequence[int] = (100, 300, 500),
    repetitions: int = 3,
    seed: int = 7,
) -> str:
    protocols = backends()
    rows = []
    for clients in client_counts:
        reference: list[int] | None = None
        for label, protocol in protocols:
            elapsed: list[float] = []
            qualified_count = 0
            for rep in range(repetitions):
                incoming, history = paper_snapshot(clients, seed=seed + rep)
                pending_store = PendingStore()
                history_store = HistoryStore()
                pending_store.insert_batch(incoming)
                history_store.record_batch(history)
                protocol.schedule(  # untimed warmup (plan compilation)
                    pending_store.table, history_store.table
                )
                started = time.perf_counter()
                decision = protocol.schedule(
                    pending_store.table, history_store.table
                )
                elapsed.append(time.perf_counter() - started)
                qualified_count = len(decision.qualified)
                ids = sorted(r.id for r in decision.qualified)
                if rep == 0:
                    if reference is None:
                        reference = ids
                    elif ids != reference:
                        raise AssertionError(
                            f"backend {label} disagrees at "
                            f"{clients} clients: {len(ids)} vs "
                            f"{len(reference)} qualified"
                        )
            rows.append(
                (
                    clients,
                    label,
                    round(min(elapsed) * 1000, 2),
                    round(sum(elapsed) / len(elapsed) * 1000, 2),
                    qualified_count,
                )
            )
        reference = None
    table = render_table(
        ["clients", "backend", "best (ms)", "mean (ms)", "qualified"],
        rows,
        title=(
            "Language-backend ablation: identical SS2PL rule, "
            "interpreted and compiled evaluators (outputs verified "
            "equal per client count)"
        ),
    )
    return table
