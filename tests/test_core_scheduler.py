"""DeclarativeScheduler step semantics and the passthrough mode."""

import pytest

import repro.api as api
from repro.core.passthrough import PassthroughScheduler
from repro.core.scheduler import (
    SchedulerConfig,
    SchedulerCostModel,
)
from repro.core.triggers import FillLevelTrigger, HybridTrigger, TimeLapseTrigger
from repro.metrics.collector import MetricsCollector
from repro.model.request import make_transaction
from repro.model.schedule import Schedule, is_conflict_serializable, is_strict

from tests.conftest import request


def submit_transactions(scheduler, *txns):
    for txn in txns:
        for req in txn:
            scheduler.submit(req)


class TestStep:
    def test_step_moves_qualified_to_history(self):
        scheduler = api.make_scheduler("fcfs")
        submit_transactions(
            scheduler, make_transaction(1, [("r", 1)], start_id=1)
        )
        result = scheduler.step()
        assert result.batch_size == 2
        assert len(scheduler.pending) == 0
        # Committed txn pruned from history by default.
        assert len(scheduler.history) == 0

    def test_prune_disabled_keeps_history(self):
        scheduler = api.make_scheduler(
            "fcfs", config=SchedulerConfig(prune_history=False)
        )
        submit_transactions(
            scheduler, make_transaction(1, [("r", 1)], start_id=1)
        )
        scheduler.step()
        assert len(scheduler.history) == 2

    def test_blocked_requests_stay_pending(self):
        scheduler = api.make_scheduler("ss2pl")
        # T1 holds a write lock (open transaction in history).
        scheduler.history.record_batch([request(1, 1, 0, "w", 5)])
        scheduler.submit(request(2, 2, 0, "r", 5))
        result = scheduler.step()
        assert result.batch_size == 0
        assert len(scheduler.pending) == 1

    def test_unblocking_after_commit(self):
        scheduler = api.make_scheduler("ss2pl")
        scheduler.history.record_batch([request(1, 1, 0, "w", 5)])
        scheduler.submit(request(2, 2, 0, "r", 5))
        scheduler.step()
        scheduler.submit(request(3, 1, 1, "c"))
        scheduler.step()  # commit qualifies, then prunes T1
        result = scheduler.step()  # now the read is free
        assert [r.id for r in result.qualified] == [2]

    def test_max_batch_limits_dispatch(self):
        scheduler = api.make_scheduler(
            "fcfs", config=SchedulerConfig(max_batch=1)
        )
        submit_transactions(
            scheduler, make_transaction(1, [("r", 1), ("r", 2)], start_id=1)
        )
        result = scheduler.step()
        assert result.batch_size == 1
        assert len(scheduler.pending) == 2

    def test_metrics_recorded(self):
        metrics = MetricsCollector()
        scheduler = api.make_scheduler("fcfs", metrics=metrics)
        submit_transactions(
            scheduler, make_transaction(1, [("r", 1)], start_id=1)
        )
        scheduler.step()
        assert metrics.counters["scheduler.steps"] == 1
        assert metrics.counters["scheduler.qualified"] == 2
        assert metrics.counters["scheduler.submitted"] == 2

    def test_should_run_respects_trigger(self):
        scheduler = api.make_scheduler(
            "fcfs", trigger=FillLevelTrigger(3)
        )
        scheduler.submit(request(1, 1, 0, "r", 5))
        assert not scheduler.should_run(0.0)
        scheduler.submit(request(2, 1, 1, "r", 6))
        scheduler.submit(request(3, 1, 2, "r", 7))
        assert scheduler.should_run(0.0)

    def test_should_run_false_when_empty(self):
        scheduler = api.make_scheduler("fcfs")
        assert not scheduler.should_run(100.0)


class TestBlockedPendingPacing:
    """Blocked-pending steps must be paced by the trigger, not fire
    unconditionally (the E7 busy-poll bug)."""

    def _blocked_scheduler(self, trigger):
        scheduler = api.make_scheduler("ss2pl", trigger=trigger)
        # T1 holds a write lock; T2's read is blocked behind it.
        scheduler.history.record_batch([request(1, 1, 0, "w", 5)])
        scheduler.submit(request(2, 2, 0, "r", 5), now=0.0)
        scheduler.step(now=1.0)  # drains into pending, dispatches nothing
        assert len(scheduler.pending) == 1
        assert len(scheduler.incoming) == 0
        return scheduler

    def test_time_trigger_paces_blocked_pending(self):
        scheduler = self._blocked_scheduler(TimeLapseTrigger(1.0))
        # The step at t=1 reset the lapse clock: no re-run before t=2.
        assert not scheduler.should_run(1.0)
        assert not scheduler.should_run(1.5)
        assert scheduler.should_run(2.0)
        scheduler.step(now=2.0)
        assert not scheduler.should_run(2.5)
        assert scheduler.should_run(3.0)

    def test_hybrid_trigger_paces_blocked_pending(self):
        scheduler = self._blocked_scheduler(HybridTrigger(1.0, 3))
        assert not scheduler.should_run(1.2)
        assert scheduler.should_run(2.0)

    def test_fill_trigger_stays_enqueue_driven_when_blocked(self):
        scheduler = self._blocked_scheduler(FillLevelTrigger(2))
        # Nothing queued: a pure fill trigger never fires on time alone.
        assert not scheduler.should_run(100.0)
        scheduler.submit(request(3, 3, 0, "r", 9), now=100.0)
        assert not scheduler.should_run(100.0)  # below threshold
        scheduler.submit(request(4, 3, 1, "r", 10), now=100.0)
        assert scheduler.should_run(100.0)

    def test_unblocking_commit_still_reaches_pending(self):
        scheduler = self._blocked_scheduler(TimeLapseTrigger(1.0))
        scheduler.submit(request(3, 1, 1, "c"), now=2.0)
        assert scheduler.should_run(2.0)
        scheduler.step(now=2.0)  # commit executes, T1's lock released
        assert scheduler.should_run(3.0)
        result = scheduler.step(now=3.0)
        assert [r.id for r in result.qualified] == [2]


class TestRunUntilDrained:
    def test_emits_serializable_strict_schedule(self):
        scheduler = api.make_scheduler("ss2pl")
        submit_transactions(
            scheduler,
            make_transaction(1, [("r", 1), ("w", 1)], start_id=1),
            make_transaction(2, [("w", 1), ("w", 2)], start_id=101),
            make_transaction(3, [("r", 2), ("w", 3)], start_id=201),
        )
        emitted = Schedule()
        for result in scheduler.run_until_drained():
            emitted.extend(result.qualified)
        assert len(emitted) == 9
        assert is_conflict_serializable(emitted)
        assert is_strict(emitted)

    def test_stall_detection(self):
        scheduler = api.make_scheduler("ss2pl")
        # A pending request permanently blocked by an open transaction
        # that never commits.
        scheduler.history.record_batch([request(1, 1, 0, "w", 5)])
        scheduler.submit(request(2, 2, 0, "w", 5))
        with pytest.raises(RuntimeError, match="stalled"):
            scheduler.run_until_drained()


class TestSchedulerCostModel:
    def test_linear_in_rows(self):
        cost = SchedulerCostModel(fixed_cost=1.0, per_row_cost=0.1)
        assert cost.step_cost(10, 20) == pytest.approx(1.0 + 3.0)


class TestPassthrough:
    def test_forwards_everything_in_order(self):
        scheduler = PassthroughScheduler()
        txn = make_transaction(1, [("r", 1), ("w", 2)], start_id=1)
        for req in txn:
            scheduler.submit(req)
        assert scheduler.should_run(0.0)
        result = scheduler.step()
        assert [r.id for r in result.qualified] == [1, 2, 3]
        assert not scheduler.should_run(0.0)

    def test_zero_query_time(self):
        scheduler = PassthroughScheduler()
        scheduler.submit(request(1, 1, 0, "r", 5))
        assert scheduler.step().query_seconds == 0.0
