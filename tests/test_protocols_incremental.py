"""Incrementally maintained SS2PL: equivalence and state maintenance."""

import random

from repro.core.scheduler import DeclarativeScheduler, SchedulerConfig
from repro.model.request import make_transaction
from repro.protocols.legacy import (
    PaperListing1Protocol,
    SS2PLIncrementalProtocol,
)

from tests.conftest import (
    empty_history_table,
    random_scheduling_instance,
    request,
)


class TestResyncEquivalence:
    def test_one_shot_equivalence_after_resync(self, rng):
        reference = PaperListing1Protocol()
        for __ in range(20):
            requests, history = random_scheduling_instance(rng)
            incremental = SS2PLIncrementalProtocol()
            incremental.resync(history)
            expected = sorted(
                r.id for r in reference.schedule(requests, history).qualified
            )
            actual = sorted(
                r.id for r in incremental.schedule(requests, history).qualified
            )
            assert actual == expected


class TestIncrementalState:
    def test_observe_executed_tracks_locks(self):
        protocol = SS2PLIncrementalProtocol()
        protocol.observe_executed(
            [request(1, 1, 0, "w", 5), request(2, 2, 0, "r", 6)]
        )
        assert protocol._write_locks == {5: {1}}
        assert protocol._read_locks == {6: {2}}

    def test_write_subsumes_own_read(self):
        protocol = SS2PLIncrementalProtocol()
        protocol.observe_executed(
            [request(1, 1, 0, "r", 5), request(2, 1, 1, "w", 5)]
        )
        assert protocol._read_locks.get(5, set()) == set()
        assert protocol._write_locks == {5: {1}}

    def test_commit_releases_locks(self):
        protocol = SS2PLIncrementalProtocol()
        protocol.observe_executed(
            [request(1, 1, 0, "w", 5), request(2, 1, 1, "c")]
        )
        assert protocol._write_locks == {}

    def test_prune_clears_bookkeeping(self):
        protocol = SS2PLIncrementalProtocol()
        protocol.observe_executed(
            [request(1, 1, 0, "w", 5), request(2, 1, 1, "c")]
        )
        protocol.observe_pruned({1})
        assert protocol._writes_of == {}
        assert 1 not in protocol._finished

    def test_reset(self):
        protocol = SS2PLIncrementalProtocol()
        protocol.observe_executed([request(1, 1, 0, "w", 5)])
        protocol.reset()
        assert protocol._write_locks == {}


class TestSchedulerDrivenEquivalence:
    def test_batch_sequences_identical_under_live_load(self):
        # Clients submit one request at a time (the middleware's real
        # submission pattern); both protocols must emit identical batch
        # sequences across many steps, including commit/prune churn.
        from repro.bench.incremental_ablation import drive_steps

        recompute = drive_steps(
            PaperListing1Protocol(),
            clients=40, steps=15, ops_per_txn=4, table_rows=200, seed=21,
        )
        incremental = drive_steps(
            SS2PLIncrementalProtocol(),
            clients=40, steps=15, ops_per_txn=4, table_rows=200, seed=21,
        )
        assert recompute.batches == incremental.batches
        assert recompute.total_qualified > 0

    def test_incremental_survives_pruning(self):
        protocol = SS2PLIncrementalProtocol()
        scheduler = DeclarativeScheduler(
            protocol, config=SchedulerConfig(prune_history=True)
        )
        # T1 writes object 5 and commits; T2 then writes object 5.
        for req in make_transaction(1, [("w", 5)], start_id=1):
            scheduler.submit(req)
        scheduler.step()
        assert len(scheduler.history) == 0  # pruned
        for req in make_transaction(2, [("w", 5)], start_id=10):
            scheduler.submit(req)
        result = scheduler.step()
        assert len(result.qualified) == 2  # lock was released
