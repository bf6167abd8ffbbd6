"""SS2PL protocol semantics: Listing 1 rule-by-rule."""

import pytest

import repro.api as api
from repro.core.stores import HistoryStore, PendingStore
from repro.protocols.library import listing1_pipeline

from tests.conftest import (
    empty_history_table,
    empty_requests_table,
    request,
)


def schedule_ids(protocol, pending_requests, history_requests):
    requests = empty_requests_table()
    history = empty_history_table()
    for r in pending_requests:
        requests.insert(r.as_row())
    for r in history_requests:
        history.insert(r.as_row())
    return sorted(r.id for r in protocol.schedule(requests, history).qualified)


@pytest.fixture
def protocol():
    return api.make_protocol("ss2pl-listing1")


class TestWriteLocks:
    def test_write_lock_blocks_any_foreign_access(self, protocol):
        history = [request(1, 1, 0, "w", 5)]
        assert schedule_ids(protocol, [request(2, 2, 0, "r", 5)], history) == []
        assert schedule_ids(protocol, [request(3, 2, 0, "w", 5)], history) == []

    def test_own_write_lock_is_reentrant(self, protocol):
        history = [request(1, 1, 0, "w", 5)]
        assert schedule_ids(protocol, [request(2, 1, 1, "r", 5)], history) == [2]
        assert schedule_ids(protocol, [request(3, 1, 1, "w", 5)], history) == [3]

    def test_commit_releases_write_lock(self, protocol):
        history = [request(1, 1, 0, "w", 5), request(2, 1, 1, "c")]
        assert schedule_ids(protocol, [request(3, 2, 0, "w", 5)], history) == [3]

    def test_abort_releases_write_lock(self, protocol):
        history = [request(1, 1, 0, "w", 5), request(2, 1, 1, "a")]
        assert schedule_ids(protocol, [request(3, 2, 0, "w", 5)], history) == [3]


class TestReadLocks:
    def test_read_lock_blocks_foreign_write_only(self, protocol):
        history = [request(1, 1, 0, "r", 5)]
        assert schedule_ids(protocol, [request(2, 2, 0, "w", 5)], history) == []
        assert schedule_ids(protocol, [request(3, 2, 0, "r", 5)], history) == [3]

    def test_own_read_lock_upgradable(self, protocol):
        history = [request(1, 1, 0, "r", 5)]
        assert schedule_ids(protocol, [request(2, 1, 1, "w", 5)], history) == [2]

    def test_read_subsumed_by_own_write(self, protocol):
        # T1 read and wrote object 5: RLockedObjects must not list it,
        # but the write lock still blocks T2.
        history = [request(1, 1, 0, "r", 5), request(2, 1, 1, "w", 5)]
        pipeline_requests = empty_requests_table()
        history_table = empty_history_table()
        for r in history:
            history_table.insert(r.as_row())
        pipeline = listing1_pipeline(pipeline_requests, history_table)
        r_locked = pipeline["RLockedObjects"].rows
        assert r_locked == []
        assert schedule_ids(protocol, [request(3, 2, 0, "w", 5)], history) == []

    def test_shared_read_locks(self, protocol):
        history = [request(1, 1, 0, "r", 5), request(2, 2, 0, "r", 5)]
        assert schedule_ids(protocol, [request(3, 3, 0, "r", 5)], history) == [3]


class TestIntraBatchRule:
    def test_later_ta_loses_conflict(self, protocol):
        pending = [request(1, 1, 0, "w", 5), request(2, 2, 0, "w", 5)]
        assert schedule_ids(protocol, pending, []) == [1]

    def test_read_read_no_conflict(self, protocol):
        pending = [request(1, 1, 0, "r", 5), request(2, 2, 0, "r", 5)]
        assert schedule_ids(protocol, pending, []) == [1, 2]

    def test_read_then_write_conflict(self, protocol):
        pending = [request(1, 1, 0, "r", 5), request(2, 2, 0, "w", 5)]
        assert schedule_ids(protocol, pending, []) == [1]

    def test_denied_request_still_blocks_later_tas(self, protocol):
        # T2's write is blocked by history; T3's read on the same object
        # must STILL be denied (Listing 1 joins the raw requests table).
        history = [request(1, 1, 0, "w", 5)]
        pending = [request(2, 2, 0, "w", 5), request(3, 3, 0, "r", 5)]
        assert schedule_ids(protocol, pending, history) == []

    def test_disjoint_objects_all_qualify(self, protocol):
        pending = [request(1, 1, 0, "w", 5), request(2, 2, 0, "w", 6)]
        assert schedule_ids(protocol, pending, []) == [1, 2]

    def test_commits_always_qualify(self, protocol):
        pending = [request(1, 1, 0, "c"), request(2, 2, 0, "c")]
        assert schedule_ids(protocol, pending, []) == [1, 2]


class TestQualifiedOrdering:
    def test_result_in_id_order(self, protocol):
        pending = [
            request(5, 3, 0, "r", 30),
            request(2, 1, 0, "r", 10),
            request(9, 4, 0, "r", 40),
        ]
        requests = empty_requests_table()
        for r in pending:
            requests.insert(r.as_row())
        decision = protocol.schedule(requests, empty_history_table())
        assert [r.id for r in decision.qualified] == [2, 5, 9]


class TestProgramOrderVariant:
    def test_out_of_order_intrata_denied(self):
        protocol = api.make_protocol("ss2pl")
        # Pending contains T1's SECOND statement only; nothing executed.
        store = PendingStore()
        history = HistoryStore()
        store.insert_batch([request(1, 1, 1, "r", 5)])
        decision = protocol.schedule(store.table, history.table)
        assert decision.qualified == []
        assert 1 in decision.denials

    def test_in_order_batch_admitted_fully(self):
        protocol = api.make_protocol("ss2pl")
        store = PendingStore()
        history = HistoryStore()
        store.insert_batch(
            [request(1, 1, 0, "r", 5), request(2, 1, 1, "w", 5), request(3, 1, 2, "c")]
        )
        decision = protocol.schedule(store.table, history.table)
        assert [r.id for r in decision.qualified] == [1, 2, 3]

    def test_continuation_after_history(self):
        protocol = api.make_protocol("ss2pl")
        store = PendingStore()
        history = HistoryStore()
        history.record_batch([request(1, 1, 0, "r", 5)])
        store.insert_batch([request(2, 1, 1, "w", 6)])
        decision = protocol.schedule(store.table, history.table)
        assert [r.id for r in decision.qualified] == [2]

    def test_commit_gated_until_statements_done(self):
        protocol = api.make_protocol("ss2pl")
        store = PendingStore()
        history = HistoryStore()
        # T1 has executed one statement; pending: second stmt blocked by
        # T2's lock, plus T1's commit. The commit must NOT overtake.
        history.record_batch(
            [request(1, 1, 0, "r", 5), request(2, 2, 0, "w", 7)]
        )
        store.insert_batch(
            [request(3, 1, 1, "w", 7), request(4, 1, 2, "c")]
        )
        decision = protocol.schedule(store.table, history.table)
        assert decision.qualified == []
