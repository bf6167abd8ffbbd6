"""Tests of :mod:`repro.shard` — partitioning, the sharded facade, and
the cross-shard two-phase grant."""

import random

import pytest

import repro.api as api
from repro.core.scheduler import SchedulerConfig, SchedulerStalledError
from repro.faults.invariants import (
    InvariantMonitor,
    InvariantViolation,
    lock_model_of,
)
from repro.metrics.collector import MetricsCollector
from repro.model.request import (
    NO_OBJECT,
    Operation,
    Request,
    RequestAttributes,
)
from repro.model.schedule import Schedule, is_conflict_serializable, is_strict
from repro.shard.partition import HashPartitioner, shard_of_object
from repro.shard.scheduler import CrossShardPolicy, ShardedScheduler


def _emitted(result):
    """What one step hands the caller, in order: its grants, then the
    aborts it surfaced.  With no shard recovery policy every abort is
    the facade's reserve sweep, which runs after all shards stepped."""
    stream = list(result.qualified)
    for entries in (result.recovery.timeouts, result.recovery.orphans,
                    result.recovery.sheds):
        stream += [abort for __, abort in entries]
    return stream


def _txn(ta, ops, start_id, client_id=0):
    """Build one transaction's requests: ops like [("w", 3), ("c", None)]."""
    attrs = RequestAttributes(client_id=client_id)
    requests = []
    for intrata, (op, obj) in enumerate(ops):
        requests.append(
            Request(
                id=start_id + intrata,
                ta=ta,
                intrata=intrata,
                operation=Operation(op),
                obj=NO_OBJECT if obj is None else obj,
                attrs=attrs,
            )
        )
    return requests


def _objects_for(partitioner, shard, count, start=0):
    """First `count` object ids owned by `shard`."""
    found = []
    obj = start
    while len(found) < count:
        if partitioner.shard_of(obj) == shard:
            found.append(obj)
        obj += 1
    return found


class TestPartitioner:
    def test_golden_placements_are_pinned(self):
        # Changing the mix constants silently re-partitions recorded
        # runs; these goldens pin the current splitmix32 placement.
        assert [shard_of_object(o, 2) for o in range(12)] == [
            0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0,
        ]
        assert [shard_of_object(o, 4) for o in range(12)] == [
            2, 3, 3, 3, 0, 1, 2, 1, 1, 2, 3, 0,
        ]
        assert [shard_of_object(o, 8) for o in range(12)] == [
            6, 3, 3, 3, 0, 1, 6, 1, 1, 2, 7, 0,
        ]

    def test_stable_and_in_range(self):
        rng = random.Random(2026)
        for __ in range(500):
            obj = rng.randrange(1 << 31)
            for shards in (1, 2, 3, 4, 8, 16):
                owner = shard_of_object(obj, shards)
                assert 0 <= owner < shards
                assert owner == shard_of_object(obj, shards)

    def test_one_shard_owns_everything(self):
        assert shard_of_object(0, 1) == 0
        assert shard_of_object(123456789, 1) == 0

    def test_hottest_ids_separate(self):
        # The property the scaling curve depends on: the two heaviest
        # Zipf ids (0 and 1) never co-locate, at any bench shard count.
        # Object 0 alone is ~40 % of the quadratic bucket weight, so
        # pairing it with the runner-up would sink the makespan model.
        for shards in (2, 4, 8):
            assert shard_of_object(0, shards) != shard_of_object(1, shards)

    def test_partitioner_validates(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        p = HashPartitioner(4)
        assert p.shard_of(7) == shard_of_object(7, 4)
        assert 0 <= p.fallback_for(99) < 4


class TestConstruction:
    def test_make_scheduler_plain_vs_sharded(self):
        flat = api.make_scheduler("ss2pl", "compiled")
        assert not isinstance(flat, ShardedScheduler)
        sharded = api.make_scheduler("ss2pl", "compiled", shards=4)
        assert isinstance(sharded, ShardedScheduler)
        assert len(sharded.shards) == 4

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            api.make_scheduler("ss2pl", "compiled", shards=0)

    def test_live_protocol_instance_rejected(self):
        live = api.make_protocol("ss2pl", "compiled")
        with pytest.raises(ValueError, match="live Protocol"):
            api.make_scheduler(live, shards=2)

    def test_live_trigger_instance_rejected(self):
        trigger = api.make_trigger("fill:4")
        with pytest.raises(ValueError, match="TriggerPolicy"):
            api.make_scheduler("ss2pl", "compiled", shards=2, trigger=trigger)

    def test_unknown_route_rejected(self):
        for route in ("home", "everywhere"):
            with pytest.raises(ValueError, match="shard_route .* was removed"):
                api.make_scheduler("ss2pl", "compiled", shards=2,
                                   shard_route=route)
        # The one route keeps its spelling, sharded or not.
        for shards in (None, 2):
            api.make_scheduler("ss2pl", "compiled", shards=shards,
                               shard_route="two-phase")

    def test_cross_shard_policy_validation(self):
        with pytest.raises(ValueError):
            CrossShardPolicy(reserve_timeout=0.0)
        with pytest.raises(ValueError):
            CrossShardPolicy(retry_backoff=-1.0)
        for mode in ("parallel", "ordered", "eager"):
            with pytest.raises(ValueError, match="reserve_mode .* was removed"):
                CrossShardPolicy(reserve_mode=mode)
        policy = CrossShardPolicy(reserve_timeout=0.2, reserve_mode="escalate")
        assert policy == CrossShardPolicy(reserve_timeout=0.2)
        with pytest.raises(TypeError):
            CrossShardPolicy(max_retries=3)

    def test_monitor_conflict_interval_validation(self):
        with pytest.raises(ValueError, match="conflict_interval"):
            InvariantMonitor(conflict_interval=0)


class TestSingleShardRouting:
    def test_single_object_transactions_never_cross_shards(self):
        # prune_history=False keeps finished transactions' rows around
        # so the end-of-run placement audit can see them.
        scheduler = api.make_scheduler(
            "ss2pl", "compiled", shards=4,
            config=SchedulerConfig(prune_history=False),
        )
        partitioner = scheduler.partitioner
        next_id = 1
        for ta in range(1, 25):
            obj = ta * 7 % 40
            ops = [("r", obj), ("w", obj), ("c", None)]
            for request in _txn(ta, ops, start_id=next_id):
                scheduler.submit(request, 0.0)
            next_id += len(ops)
        scheduler.run_until_drained()
        for index, shard in enumerate(scheduler.shards):
            pos = shard.history.table.schema.resolve("object")
            for row in shard.history.table.rows:
                if row[pos] == NO_OBJECT:
                    continue
                assert partitioner.shard_of(row[pos]) == index

    def test_one_shard_is_byte_identical_to_unsharded(self):
        # The facade with shards=1 must be a pure pass-through: same
        # qualified batches, step for step, over a randomized sweep.
        rng = random.Random(2026)
        for __ in range(50):
            plain = api.make_scheduler("ss2pl", "compiled")
            sharded = api.make_scheduler("ss2pl", "compiled", shards=1)
            next_id = 1
            queues = []
            for ta in range(1, rng.randint(3, 9)):
                length = rng.randint(1, 5)
                ops = [
                    (rng.choice(["r", "w"]), rng.randrange(12))
                    for __ in range(length)
                ] + [("c", None)]
                queues.append(_txn(ta, ops, start_id=next_id))
                next_id += len(ops)
            # Random interleave across transactions, program order
            # preserved within each.
            submissions = []
            while queues:
                queue = rng.choice(queues)
                submissions.append(queue.pop(0))
                if not queue:
                    queues.remove(queue)
            for request in submissions:
                plain.submit(request, 0.0)
                sharded.submit(request, 0.0)
            plain_steps = [
                [str(r) for r in result.qualified]
                for result in plain.run_until_drained()
            ]
            sharded_steps = [
                [str(r) for r in result.qualified]
                for result in sharded.run_until_drained()
            ]
            # The facade routes one step after submission, so strip
            # empty steps before comparing the grant sequences.
            assert [s for s in plain_steps if s] == [
                s for s in sharded_steps if s
            ]


class TestTwoPhase:
    def _coordinated_pair(self, scheduler):
        """Objects on two different shards of `scheduler`."""
        partitioner = scheduler.partitioner
        (a,) = _objects_for(partitioner, 0, 1)
        (b,) = _objects_for(partitioner, 1, 1)
        return a, b

    def test_commit_broadcasts_after_all_reserves(self):
        monitor = InvariantMonitor(
            lock_model_of(api.make_protocol("ss2pl", "compiled"))
        )
        scheduler = api.make_scheduler(
            "ss2pl", "compiled", shards=2,
            config=SchedulerConfig(prune_history=False),
        )
        scheduler.monitor = monitor
        a, b = self._coordinated_pair(scheduler)
        ops = [("w", a), ("w", b), ("c", None)]
        for request in _txn(1, ops, start_id=1):
            scheduler.submit(request, 0.0)
        results = scheduler.run_until_drained()
        granted = [str(r) for result in results for r in result.qualified]
        assert granted == [f"w1[{a}]", f"w1[{b}]", "c1"]
        # The commit reached both owning shards' histories.
        for shard in scheduler.shards:
            ops_pos = shard.history.table.schema.resolve("operation")
            assert "c" in [row[ops_pos] for row in shard.history.table.rows]
        # Facade bookkeeping is fully cleaned up.
        assert not scheduler._states
        assert not scheduler._requests
        monitor.final_check(set(), 1_000.0)

    def test_grants_released_in_program_order(self):
        scheduler = api.make_scheduler("ss2pl", "compiled", shards=2)
        a, b = self._coordinated_pair(scheduler)
        # Program order visits shard 1's object first; even if shard 0
        # grants earlier in the merged step, the caller must see b, a.
        ops = [("w", b), ("w", a), ("r", b), ("c", None)]
        for request in _txn(1, ops, start_id=1):
            scheduler.submit(request, 0.0)
        granted = [
            str(r)
            for result in scheduler.run_until_drained()
            for r in result.qualified
        ]
        assert granted == [f"w1[{b}]", f"w1[{a}]", f"r1[{b}]", "c1"]

    def _stall_behind_blocker(self, scheduler):
        """ta 3 (single-shard) holds ``a``; ta 1 then submits
        ``w1[a] w1[b] c1`` as one burst, so its reserve on ``b`` is
        granted while ``w1[a]`` waits: a granted reserve nothing of
        which was reported, stalled.  Returns (objects, ta 3's commit,
        the emitted stream so far)."""
        a, b = self._coordinated_pair(scheduler)
        blocker = _txn(3, [("w", a), ("c", None)], start_id=30, client_id=3)
        scheduler.submit(blocker[0], 0.0)
        stream = _emitted(scheduler.step(0.0))
        for request in _txn(1, [("w", a), ("w", b), ("c", None)],
                            start_id=1, client_id=1):
            scheduler.submit(request, 0.0)
        return (a, b), blocker[1], stream

    def test_cross_shard_deadlock_aborts_and_retries(self):
        metrics = MetricsCollector()
        scheduler = api.make_scheduler(
            "ss2pl", "compiled", shards=2,
            cross_shard=CrossShardPolicy(reserve_timeout=0.05,
                                         retry_backoff=0.01),
            metrics=metrics,
        )
        monitor = InvariantMonitor(lock_model_of(scheduler.protocol))
        scheduler.monitor = monitor
        (a, b), commit3, stream = self._stall_behind_blocker(scheduler)
        now = 0.0
        commit_sent = False
        for __ in range(200):
            now += 0.02
            if not commit_sent and scheduler._states[1].parked_until is not None:
                # ta 1 is parked: the blocker may now finish.
                scheduler.submit(commit3, now)
                commit_sent = True
            stream += _emitted(scheduler.step(now))
            if not scheduler._states:
                break
        schedule = Schedule(stream)
        # The stall was taken for a cross-shard deadlock and broken by
        # one invisible abort-and-retry: the caller saw ta 1 only once.
        assert str(schedule) == f"w3[{a}] c3 w1[{a}] w1[{b}] c1"
        assert metrics.counters["scheduler.xshard.retries"] == 1
        assert "scheduler.xshard.giveups" not in metrics.counters
        assert is_conflict_serializable(schedule) and is_strict(schedule)
        monitor.final_check(set(), now)

    @pytest.mark.parametrize("backend", ["compiled", "compiled-delta"])
    def test_crossed_deadlock_with_reported_grants_aborts(self, backend):
        metrics = MetricsCollector()
        scheduler = api.make_scheduler(
            "ss2pl", backend, shards=2,
            cross_shard=CrossShardPolicy(reserve_timeout=0.05,
                                         retry_backoff=0.01),
            metrics=metrics,
        )
        monitor = InvariantMonitor(lock_model_of(scheduler.protocol))
        scheduler.monitor = monitor
        a, b = self._coordinated_pair(scheduler)
        # Classic crossed order, interleaved over two steps so each
        # transaction holds (and has reported) its first lock before
        # requesting the other: ta 1 holds a wants b, ta 2 holds b
        # wants a.  Retrying either would re-grant a write the caller
        # already executed after its lock was dropped.
        t1 = _txn(1, [("w", a), ("w", b), ("c", None)], start_id=1,
                  client_id=1)
        t2 = _txn(2, [("w", b), ("w", a), ("c", None)], start_id=10,
                  client_id=2)
        scheduler.submit(t1[0], 0.0)
        scheduler.submit(t2[0], 0.0)
        stream = _emitted(scheduler.step(0.0))
        for request in t1[1:] + t2[1:]:
            scheduler.submit(request, 0.0)
        now = 0.0
        for __ in range(200):
            now += 0.02
            stream += _emitted(scheduler.step(now))
            if not scheduler._states:
                break
        schedule = Schedule(stream)
        assert str(schedule) == f"w1[{a}] w2[{b}] a1 a2"
        assert is_conflict_serializable(schedule) and is_strict(schedule)
        assert metrics.counters["scheduler.xshard.giveups"] == 2
        assert "scheduler.xshard.retries" not in metrics.counters
        monitor.final_check(set(), now)

    def test_crash_while_parked_is_reaped_as_orphan(self):
        scheduler = api.make_scheduler(
            "ss2pl", "compiled", shards=2,
            cross_shard=CrossShardPolicy(
                reserve_timeout=0.05, retry_backoff=5.0,
            ),
        )
        __, commit3, __ = self._stall_behind_blocker(scheduler)
        # Step past the reserve timeout: ta 1 is parked (long backoff
        # keeps it parked), the blocker proceeds.
        now = 0.0
        parked = None
        for __ in range(50):
            now += 0.02
            scheduler.step(now)
            parked = scheduler._states[1]
            if parked.parked_until is not None:
                break
        assert parked.parked_until is not None
        # The parked transaction's client dies: the facade must reap it
        # as an orphan (no shard knows about a parked transaction).
        scheduler.note_client_crashed(1, now)
        scheduler.submit(commit3, now)
        # Orphaned parked transactions are reaped when the park expires.
        orphaned = []
        survivor_committed = False
        for __ in range(400):
            now += 0.02
            result = scheduler.step(now)
            orphaned.extend(ta for ta, __r in result.recovery.orphans)
            for request in result.qualified:
                if request.operation.is_termination:
                    survivor_committed = True
            if orphaned and survivor_committed:
                break
        assert orphaned == [1]
        assert survivor_committed
        assert not scheduler._states

    def test_stall_raises_promptly_with_shard_denials(self):
        # The imperative backend attributes lock denials, not only
        # program-order ones.
        scheduler = api.make_scheduler("ss2pl", "imperative", shards=2)
        a, b = self._coordinated_pair(scheduler)
        # Two single-shard blockers that never commit, and one
        # coordinated transaction behind both: it holds no granted
        # reserve, so no facade timer can ever free it.
        for request in (
            _txn(1, [("w", a)], start_id=1)
            + _txn(2, [("w", b)], start_id=10)
            + _txn(3, [("w", a), ("w", b), ("c", None)], start_id=20)
        ):
            scheduler.submit(request, 0.0)
        with pytest.raises(SchedulerStalledError) as raised:
            scheduler.run_until_drained()
        stalled = raised.value
        assert "stalled" in str(stalled)
        assert stalled.steps_run <= 3
        # The shards' denial reasons, keyed by the caller's own ids.
        assert stalled.denials == {
            20: "conflicting lock held", 21: "conflicting lock held",
        }


class _HomeRouted(ShardedScheduler):
    """A knowingly unsound router, kept only to be caught: every
    statement goes to the shard owning its transaction's *first*
    object, so a transaction never spans shards and is never
    coordinated, and two transactions with different home shards can
    both be granted writes on one object."""

    def _owner_of(self, state, request):
        return self.partitioner.shard_of(state.statements[0].obj)


class TestHomeRouteUnsoundness:
    def test_union_check_catches_home_mode_conflict(self):
        monitor = InvariantMonitor(
            lock_model_of(api.make_protocol("ss2pl", "compiled"))
        )
        scheduler = _HomeRouted(
            api.make_scheduler("ss2pl", "compiled", shards=2).shards
        )
        scheduler.monitor = monitor
        partitioner = scheduler.partitioner
        (a,) = _objects_for(partitioner, 0, 1)
        (b,) = _objects_for(partitioner, 1, 1)
        # Different home shards (first object differs), same second
        # object: both writes of `b` are granted — a conflict only the
        # cross-shard grant-union check can see.
        t1 = _txn(1, [("w", a), ("w", b), ("c", None)], start_id=1)
        t2 = _txn(2, [("w", b), ("w", a), ("c", None)], start_id=10)
        for request in (t1[0], t1[1], t2[0], t2[1]):
            scheduler.submit(request, 0.0)
        with pytest.raises(InvariantViolation, match="conflicting-grants"):
            for step in range(5):
                scheduler.step(float(step))

    def test_two_phase_same_shape_is_sound(self):
        monitor = InvariantMonitor(
            lock_model_of(api.make_protocol("ss2pl", "compiled"))
        )
        scheduler = api.make_scheduler("ss2pl", "compiled", shards=2)
        scheduler.monitor = monitor
        partitioner = scheduler.partitioner
        (a,) = _objects_for(partitioner, 0, 1)
        (b,) = _objects_for(partitioner, 1, 1)
        t1 = _txn(1, [("w", a), ("w", b), ("c", None)], start_id=1)
        t2 = _txn(2, [("w", b), ("w", a), ("c", None)], start_id=10)
        for request in t1 + t2:
            scheduler.submit(request, 0.0)
        scheduler.run_until_drained()  # raises on any violation
        monitor.final_check(set(), 1_000.0)


def _drive_random(seed, shards, backend, transactions=12, objects=8):
    """Run a seeded random workload through a sharded SS2PL scheduler on
    a virtual clock and return (emitted stream, xshard counters).

    Every transaction touches objects on at least two shards and its
    client pipelines: each step it submits its next one or two
    statements with probability 1/2, without waiting for grants.  So
    reserves are acquired over several steps and cross-shard cycles
    form, some holding reported grants (given up) and some holding
    only unreported ones (parked and retried).  No shard recovery
    policy is set, so every abort is the facade's own."""
    rng = random.Random(seed)
    metrics = MetricsCollector()
    scheduler = api.make_scheduler(
        "ss2pl", backend, shards=shards,
        cross_shard=CrossShardPolicy(reserve_timeout=0.05, retry_backoff=0.01),
        metrics=metrics,
    )
    monitor = InvariantMonitor(lock_model_of(scheduler.protocol))
    scheduler.monitor = monitor
    owner = scheduler.partitioner.shard_of
    programs = {}
    next_id = 1
    for ta in range(1, transactions + 1):
        objs = []
        while len({owner(obj) for obj in objs}) < 2:
            objs = rng.sample(range(objects), rng.randint(2, 4))
        ops = [(rng.choice("rww"), obj) for obj in objs] + [("c", None)]
        programs[ta] = _txn(ta, ops, start_id=next_id, client_id=ta)
        next_id += len(ops)
    submitted = dict.fromkeys(programs, 0)
    ended = set()
    stream = []
    now = 0.0
    for __ in range(5_000):
        for ta, program in programs.items():
            if ta in ended or submitted[ta] == len(program) or rng.random() < 0.5:
                continue
            burst = program[submitted[ta]: submitted[ta] + rng.randint(1, 2)]
            for request in burst:
                scheduler.submit(request, now)
            submitted[ta] += len(burst)
        emitted = _emitted(scheduler.step(now))
        stream += emitted
        ended |= {r.ta for r in emitted if r.operation.is_termination}
        if len(ended) == len(programs):
            break
        now += 0.02
    assert len(ended) == len(programs), f"seed {seed} did not finish"
    assert not scheduler._states
    counts = monitor.final_check(set(), now)
    submitted_n = sum(submitted.values())
    assert sum(counts.values()) == submitted_n
    return stream, {
        key.rsplit(".", 1)[1]: value
        for key, value in metrics.counters.items()
        if key.startswith("scheduler.xshard.")
    }


class TestEmittedSchedules:
    """ROADMAP item 4's sharded slice: check what the facade *emits*,
    not only that nothing was lost."""

    SEEDS = range(12)

    @pytest.mark.parametrize("backend", ["compiled", "compiled-delta"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_random_schedules_are_serializable_and_strict(self, shards, backend):
        both_seen = False
        for seed in self.SEEDS:
            stream, counters = _drive_random(seed, shards, backend)
            schedule = Schedule(stream)
            assert is_conflict_serializable(schedule), (seed, str(schedule))
            assert is_strict(schedule), (seed, str(schedule))
            # Each transaction's grants arrive in program order, and its
            # termination (commit or surfaced abort) comes last.
            for ta in schedule.transactions:
                own = schedule.of_transaction(ta)
                data = [r.intrata for r in own[:-1]]
                assert data == list(range(len(data))), (seed, ta)
                assert own[-1].operation.is_termination, (seed, ta)
            both_seen |= bool(counters.get("retries") and counters.get("giveups"))
        # The sweep's two outcomes were both exercised by some seed.
        assert both_seen


class TestServiceIntegration:
    def test_sharded_service_smoke(self):
        import asyncio

        async def main():
            async with api.open_service(
                "ss2pl", "compiled", shards=4, check_invariants=True
            ) as service:
                async with service.pool.session() as session:
                    for op, obj in [("w", 2), ("w", 5), ("c", None)]:
                        if obj is None:
                            ticket = await session.request(op)
                        else:
                            ticket = await session.request(op, obj)
                        await service.await_grant(ticket)
                        service.release(ticket)
            return service.stats()

        stats = asyncio.run(main())
        assert stats["granted"] == 3
