"""Core middleware components: queue, triggers, stores."""

import pytest

from repro.core.queue import IncomingQueue
from repro.core.stores import HistoryStore, PendingStore
from repro.core.triggers import FillLevelTrigger, HybridTrigger, TimeLapseTrigger
from repro.model.request import (
    Operation,
    Request,
    RequestAttributes,
    TransactionStatus,
)

from tests.conftest import request


class TestIncomingQueue:
    def test_fifo_drain(self):
        queue = IncomingQueue()
        for i in range(3):
            queue.enqueue(request(i + 1, 1, i, "r", 5), now=float(i))
        drained = queue.drain()
        assert [r.id for r in drained] == [1, 2, 3]
        assert len(queue) == 0

    def test_oldest_arrival(self):
        queue = IncomingQueue()
        assert queue.oldest_arrival is None
        queue.enqueue(request(1, 1, 0, "r", 5), now=3.5)
        queue.enqueue(request(2, 1, 1, "r", 6), now=4.0)
        assert queue.oldest_arrival == 3.5

    def test_total_enqueued_persists_after_drain(self):
        queue = IncomingQueue()
        queue.enqueue(request(1, 1, 0, "r", 5))
        queue.drain()
        queue.enqueue(request(2, 1, 1, "r", 6))
        assert queue.total_enqueued == 2

    def test_iter_does_not_consume(self):
        queue = IncomingQueue()
        queue.enqueue(request(1, 1, 0, "r", 5))
        assert [r.id for r in queue] == [1]
        assert len(queue) == 1


class TestTriggers:
    def _queue_with(self, n: int) -> IncomingQueue:
        queue = IncomingQueue()
        for i in range(n):
            queue.enqueue(request(i + 1, 1, i, "r", 5))
        return queue

    def test_time_lapse(self):
        trigger = TimeLapseTrigger(1.0)
        queue = self._queue_with(1)
        assert not trigger.should_fire(queue, 0.5)
        assert trigger.should_fire(queue, 1.0)
        trigger.notify_fired(1.0)
        assert not trigger.should_fire(queue, 1.5)
        assert trigger.should_fire(queue, 2.0)

    def test_time_lapse_requires_queued_work(self):
        trigger = TimeLapseTrigger(1.0)
        assert not trigger.should_fire(self._queue_with(0), 5.0)

    def test_fill_level(self):
        trigger = FillLevelTrigger(3)
        assert not trigger.should_fire(self._queue_with(2), 0.0)
        assert trigger.should_fire(self._queue_with(3), 0.0)
        assert trigger.next_check(0.0) is None

    def test_hybrid_fires_on_either(self):
        trigger = HybridTrigger(1.0, 3)
        assert trigger.should_fire(self._queue_with(3), 0.1)  # fill
        assert not trigger.should_fire(self._queue_with(1), 0.5)
        assert trigger.should_fire(self._queue_with(1), 1.0)  # time

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeLapseTrigger(0)
        with pytest.raises(ValueError):
            FillLevelTrigger(0)
        with pytest.raises(ValueError):
            HybridTrigger(1.0, 0)

    def test_names(self):
        assert TimeLapseTrigger(0.5).name == "time(0.5s)"
        assert FillLevelTrigger(5).name == "fill(5)"
        assert HybridTrigger(0.5, 5).name == "hybrid(0.5s|5)"


class TestPendingStore:
    def test_insert_and_remove(self):
        store = PendingStore()
        requests = [request(1, 1, 0, "r", 5), request(2, 2, 0, "w", 6)]
        assert store.insert_batch(requests) == 2
        assert store.remove([requests[0]]) == 1
        assert len(store) == 1

    def test_remove_accepts_a_generator(self):
        store = PendingStore()
        requests = [request(1, 1, 0, "r", 5), request(2, 2, 0, "w", 6)]
        store.insert_batch(requests)
        assert store.remove(r for r in requests) == 2
        assert store.table.attrs_by_id == {}  # the side-car went too

    def test_attrs_rehydration(self):
        store = PendingStore()
        original = Request(
            1, 1, 0, Operation.READ, 5,
            attrs=RequestAttributes(priority=7, sla_class="premium"),
        )
        store.insert_batch([original])
        bare = Request.from_row(original.as_row())
        assert bare.attrs.priority == 0
        hydrated = store.rehydrate(bare)
        assert hydrated.attrs.priority == 7

    def test_rehydrate_unknown_id_passthrough(self):
        store = PendingStore()
        bare = request(99, 1, 0, "r", 5)
        assert store.rehydrate(bare) is bare


class TestHistoryStore:
    def test_status_tracking(self):
        store = HistoryStore()
        store.record_batch(
            [request(1, 1, 0, "w", 5), request(2, 1, 1, "c")]
        )
        assert store.status(1) is TransactionStatus.COMMITTED
        assert store.status(2) is TransactionStatus.ACTIVE

    def test_active_transactions(self):
        store = HistoryStore()
        store.record_batch(
            [
                request(1, 1, 0, "w", 5),
                request(2, 2, 0, "w", 6),
                request(3, 2, 1, "a"),
            ]
        )
        assert store.active_transactions == {1}

    def test_prune_finished(self):
        store = HistoryStore()
        store.record_batch(
            [
                request(1, 1, 0, "w", 5),
                request(2, 1, 1, "c"),
                request(3, 2, 0, "w", 6),
            ]
        )
        pruned = store.prune_finished()
        assert pruned == {1}
        assert len(store) == 1
        assert store.active_transactions == {2}
        assert set(store.table.attrs_by_id) == {3}

    def test_prune_noop(self):
        store = HistoryStore()
        store.record_batch([request(1, 1, 0, "w", 5)])
        assert store.prune_finished() == set()

    def test_total_recorded_monotonic(self):
        store = HistoryStore()
        store.record_batch([request(1, 1, 0, "w", 5), request(2, 1, 1, "c")])
        store.prune_finished()
        assert store.total_recorded == 2
