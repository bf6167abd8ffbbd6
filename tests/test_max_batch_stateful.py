"""``max_batch`` truncation against stateful backends.

The scheduler truncates the qualified set *before* removing from
pending, recording into history, and calling ``observe_executed`` — so
a stateful evaluator (maintained delta plans, incremental lock views,
imperative lock walk) must only ever see the dispatched prefix.  These
tests pin that contract: truncated-out requests stay pending, every
backend emits the identical truncated sequence, and re-evaluation
re-qualifies the leftovers on the next step.
"""

import random

import pytest

import repro.api as api
from repro.core.scheduler import DeclarativeScheduler, SchedulerConfig
from repro.model.request import make_transaction
from repro.model.schedule import Schedule, is_conflict_serializable, is_strict

#: Every backend that can lower the flagship spec, stateless and stateful.
BACKENDS = (
    "interpreted", "compiled", "compiled-delta", "incremental", "imperative"
)
STATEFUL = ("compiled-delta", "incremental", "imperative")


def build_scheduler(backend: str, max_batch=None) -> DeclarativeScheduler:
    return api.make_scheduler(
        "ss2pl", backend, config=SchedulerConfig(max_batch=max_batch)
    )


def conflicting_transactions():
    return (
        make_transaction(1, [("r", 1), ("w", 1)], start_id=1),
        make_transaction(2, [("w", 1), ("w", 2)], start_id=101),
        make_transaction(3, [("r", 2), ("w", 3)], start_id=201),
    )


def submit_all(scheduler, transactions) -> int:
    count = 0
    for txn in transactions:
        for request in txn:
            scheduler.submit(request)
            count += 1
    return count


class TestTruncationKeepsPending:
    @pytest.mark.parametrize("backend", STATEFUL)
    def test_truncated_out_requests_remain_pending(self, backend):
        scheduler = build_scheduler(backend, max_batch=1)
        total = submit_all(scheduler, conflicting_transactions())
        result = scheduler.step()
        assert result.batch_size == 1
        assert result.pending_after == total - 1

    @pytest.mark.parametrize("backend", STATEFUL)
    def test_next_step_requalifies_leftovers(self, backend):
        scheduler = build_scheduler(backend, max_batch=1)
        submit_all(scheduler, conflicting_transactions())
        first = scheduler.step()
        second = scheduler.step()
        assert first.batch_size == 1 and second.batch_size == 1
        # Arrival order: T1's read went first, its write goes next.
        assert [r.id for r in first.qualified] == [1]
        assert [r.id for r in second.qualified] == [2]

    @pytest.mark.parametrize("backend", STATEFUL)
    def test_observe_state_matches_dispatched_prefix(self, backend):
        """A truncated step must leave the stateful evaluator holding
        locks for the dispatched prefix only: T2's write on object 1
        stays blocked until T1 *actually* committed, not merely
        qualified."""
        scheduler = build_scheduler(backend, max_batch=1)
        submit_all(
            scheduler,
            (
                make_transaction(1, [("w", 1)], start_id=1),
                make_transaction(2, [("w", 1)], start_id=101),
            ),
        )
        emitted = []
        for result in scheduler.run_until_drained():
            emitted.extend(r.id for r in result.qualified)
        # T1: write+commit fully dispatched before T2's write qualifies.
        assert emitted.index(101) > emitted.index(2)  # 2 == T1's commit


class TestTruncatedEquivalenceAcrossBackends:
    def drain(self, backend, transactions, max_batch):
        scheduler = build_scheduler(backend, max_batch=max_batch)
        submit_all(scheduler, transactions)
        emitted = Schedule()
        per_step = []
        for result in scheduler.run_until_drained():
            emitted.extend(result.qualified)
            per_step.append([r.id for r in result.qualified])
        return emitted, per_step

    @pytest.mark.parametrize("max_batch", [1, 2, 3])
    def test_same_truncated_sequence_on_every_backend(self, max_batch):
        reference, reference_steps = self.drain(
            "interpreted", conflicting_transactions(), max_batch
        )
        assert is_conflict_serializable(reference)
        assert is_strict(reference)
        for backend in BACKENDS[1:]:
            emitted, steps = self.drain(
                backend, conflicting_transactions(), max_batch
            )
            assert steps == reference_steps, (
                f"{backend} diverged from interpreted at max_batch={max_batch}"
            )

    def test_truncated_run_commits_same_work_as_unbounded(self):
        unbounded, __ = self.drain(
            "incremental", conflicting_transactions(), None
        )
        truncated, __ = self.drain(
            "incremental", conflicting_transactions(), 1
        )
        assert sorted(r.id for r in unbounded) == sorted(
            r.id for r in truncated
        )

    def test_randomized_workloads_agree_under_truncation(self):
        rng = random.Random(77)
        for trial in range(8):
            objects = rng.randrange(2, 5)
            transactions = []
            start_id = 1
            for ta in range(1, rng.randrange(3, 6)):
                accesses = [
                    (rng.choice(["r", "w"]), rng.randrange(objects))
                    for __ in range(rng.randrange(1, 4))
                ]
                # ss2pl assumes one access per object per transaction.
                seen = set()
                accesses = [
                    (op, obj)
                    for op, obj in accesses
                    if not (obj in seen or seen.add(obj))
                ]
                transactions.append(
                    make_transaction(ta, accesses, start_id=start_id)
                )
                start_id += len(accesses) + 1
            max_batch = rng.randrange(1, 4)
            reference, reference_steps = self.drain(
                "interpreted", transactions, max_batch
            )
            for backend in STATEFUL:
                __, steps = self.drain(backend, transactions, max_batch)
                assert steps == reference_steps, (
                    f"trial {trial}: {backend} diverged at "
                    f"max_batch={max_batch}"
                )
