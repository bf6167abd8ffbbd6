"""E8 — the same SS2PL rule on four declarative backends."""

import pytest

from repro.bench.declarative_overhead import paper_snapshot
from repro.bench.language_ablation import backends, run_language_ablation
from repro.core.stores import HistoryStore, PendingStore

from benchmarks.conftest import emit


def test_language_ablation_report(benchmark):
    report = benchmark.pedantic(
        run_language_ablation,
        kwargs={"client_counts": (100, 300), "repetitions": 2},
        rounds=1,
        iterations=1,
    )
    emit(report)
    for name in (
        "SQL interpreted (eager CTEs)",
        "SQL compiled plan",
        "datalog",
        "sdl",
        "sqlite3",
    ):
        assert name in report


@pytest.mark.parametrize(
    "label,protocol", backends(), ids=lambda value: (
        value if isinstance(value, str) else ""
    )
)
def test_backend_query_time(benchmark, label, protocol):
    """Per-backend timing of one SS2PL evaluation at 300 clients."""
    incoming, history = paper_snapshot(300)
    pending_store = PendingStore()
    history_store = HistoryStore()
    pending_store.insert_batch(incoming)
    history_store.record_batch(history)

    decision = benchmark(
        protocol.schedule, pending_store.table, history_store.table
    )
    assert len(decision.qualified) > 0
