"""Incrementally maintained SS2PL: equivalence and state maintenance."""

import random

import repro.api as api
from repro.core.scheduler import DeclarativeScheduler, SchedulerConfig
from repro.model.request import make_transaction

from tests.conftest import (
    empty_history_table,
    random_scheduling_instance,
    request,
)


class TestResyncEquivalence:
    def test_one_shot_equivalence_after_resync(self, rng):
        reference = api.make_protocol("ss2pl-listing1")
        for __ in range(20):
            requests, history = random_scheduling_instance(rng)
            incremental = api.make_protocol("ss2pl-listing1", "incremental")
            incremental.evaluator.resync(history)
            expected = sorted(
                r.id for r in reference.schedule(requests, history).qualified
            )
            actual = sorted(
                r.id for r in incremental.schedule(requests, history).qualified
            )
            assert actual == expected


class TestIncrementalState:
    def test_observe_executed_tracks_locks(self):
        views = api.make_protocol("ss2pl-listing1", "incremental").evaluator
        views.observe_executed(
            [request(1, 1, 0, "w", 5), request(2, 2, 0, "r", 6)]
        )
        assert views._write_locks == {5: {1}}
        assert views._read_locks == {6: {2}}

    def test_write_subsumes_own_read(self):
        views = api.make_protocol("ss2pl-listing1", "incremental").evaluator
        views.observe_executed(
            [request(1, 1, 0, "r", 5), request(2, 1, 1, "w", 5)]
        )
        assert views._read_locks.get(5, set()) == set()
        assert views._write_locks == {5: {1}}

    def test_commit_releases_locks(self):
        views = api.make_protocol("ss2pl-listing1", "incremental").evaluator
        views.observe_executed(
            [request(1, 1, 0, "w", 5), request(2, 1, 1, "c")]
        )
        assert views._write_locks == {}

    def test_prune_clears_bookkeeping(self):
        views = api.make_protocol("ss2pl-listing1", "incremental").evaluator
        views.observe_executed(
            [request(1, 1, 0, "w", 5), request(2, 1, 1, "c")]
        )
        views.observe_pruned({1})
        assert views._writes_of == {}
        assert 1 not in views._finished

    def test_reset(self):
        views = api.make_protocol("ss2pl-listing1", "incremental").evaluator
        views.observe_executed([request(1, 1, 0, "w", 5)])
        views.reset()
        assert views._write_locks == {}


class TestSchedulerDrivenEquivalence:
    def test_batch_sequences_identical_under_live_load(self):
        # Clients submit one request at a time (the middleware's real
        # submission pattern); both protocols must emit identical batch
        # sequences across many steps, including commit/prune churn.
        from repro.bench.incremental_ablation import drive_steps

        recompute = drive_steps(
            api.make_protocol("ss2pl-listing1"),
            clients=40, steps=15, ops_per_txn=4, table_rows=200, seed=21,
        )
        incremental = drive_steps(
            api.make_protocol("ss2pl-listing1", "incremental"),
            clients=40, steps=15, ops_per_txn=4, table_rows=200, seed=21,
        )
        assert recompute.batches == incremental.batches
        assert recompute.total_qualified > 0

    def test_incremental_survives_pruning(self):
        protocol = api.make_protocol("ss2pl-listing1", "incremental")
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
