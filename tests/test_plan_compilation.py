"""The compile-once plan layer: correctness of codegen, cached builds,
plan caching, and randomized cross-strategy protocol equivalence."""

import random

import pytest

import repro.api as api
from repro.bench.incremental_ablation import drive_steps
from repro.core.scheduler import DeclarativeScheduler
from repro.model.request import Request
from repro.protocols.base import Protocol
from repro.backends.base import spec_plan
from repro.protocols.library import LISTING1_SPEC
from repro.relalg.expressions import col, compile_expr, is_null, lit, or_
from repro.relalg.plan import (
    CompiledPlan,
    PAntiJoin,
    PHashJoin,
    PlanCache,
    _CachedBuild,
    _IndexBuild,
)
from repro.relalg.query import Query, cte
from repro.relalg.schema import Column, Schema
from repro.relalg.sql import SqlPlanner
from repro.relalg.table import Table


def request(rid, ta, intrata, op, obj):
    return Request.from_row((rid, ta, intrata, op, obj))


def make_history(rows):
    table = Table("history", ["id", "ta", "intrata", "operation", "object"])
    table.create_index("ta")
    table.create_index("object")
    table.insert_many(rows)
    return table


def make_requests(rows):
    table = Table("requests", ["id", "ta", "intrata", "operation", "object"])
    table.insert_many(rows)
    return table


class TestCompiledExpressions:
    SCHEMA = Schema(
        [Column("ta", "r"), Column("op", "r"), Column("obj", "r"),
         Column("ta", "h"), Column("op", "h"), Column("obj", "h")]
    )

    EXPRS = [
        (col("r.ta") == col("h.ta")) & (col("r.obj") != col("h.obj")),
        or_(col("r.op") == lit("w"), col("h.op") == lit("w")),
        ~((col("r.ta") > col("h.ta")) | is_null(col("h.obj"))),
        (col("r.ta") + col("h.ta")) * lit(2) > lit(5),
        col("r.op").in_(["a", "c"]),
        is_null(col("r.ta") - col("h.ta")),
    ]

    def rows(self):
        rng = random.Random(11)
        ints = [None, 0, 1, 2, 3]
        ops = [None, "w", "r", "a", "c"]
        return [
            (rng.choice(ints), rng.choice(ops), rng.choice(ints),
             rng.choice(ints), rng.choice(ops), rng.choice(ints))
            for __ in range(200)
        ]

    @pytest.mark.parametrize("expr", EXPRS, ids=repr)
    def test_compiled_matches_bound(self, expr):
        bound = expr.bind(self.SCHEMA)
        compiled = compile_expr(expr, self.SCHEMA)
        for row in self.rows():
            assert bound(row) == compiled(row)

    @pytest.mark.parametrize("expr", EXPRS, ids=repr)
    def test_predicate_mode_matches_truthiness(self, expr):
        bound = expr.bind(self.SCHEMA)
        compiled = compile_expr(expr, self.SCHEMA, predicate=True)
        for row in self.rows():
            assert bool(bound(row)) == bool(compiled(row))

    def test_generated_source_is_attached(self):
        fn = compile_expr(col("r.ta") == lit(3), self.SCHEMA)
        assert "_row[0] == 3" in fn.__relalg_source__


class TestCompiledPlanExecution:
    def test_reexecutes_against_current_table_contents(self):
        table = make_requests([(1, 1, 0, "r", 5), (2, 2, 0, "w", 6)])
        query = (
            Query.from_(table, alias="r")
            .where(col("r.operation") == lit("w"))
            .select("r.id")
        )
        plan = query.compile()
        assert plan.execute().rows == [(2,)]
        table.insert((3, 3, 0, "w", 7))
        assert plan.execute().rows == [(2,), (3,)]
        table.delete_rows([(2, 2, 0, "w", 6)])
        assert plan.execute().rows == [(3,)]

    def test_matches_interpreted_through_mutations(self):
        rng = random.Random(5)
        history = make_history([])
        requests = make_requests([])
        finished = cte(
            Query.from_(history, alias="f")
            .where(or_(col("f.operation") == lit("a"),
                       col("f.operation") == lit("c")))
            .select("f.ta")
            .distinct(),
            "finished",
        )
        query = (
            Query.from_(requests, alias="r")
            .anti_join(Query.from_(finished, alias="fin"),
                       on=col("r.ta") == col("fin.ta"))
            .select("r.id", "r.ta")
            .order_by("id")
        )
        plan = query.compile()
        rid = 1
        for __ in range(30):
            if rng.random() < 0.7 or not len(history):
                op = rng.choice(["r", "w", "c", "a"])
                history.insert((rid, rng.randrange(5), 0, op, rng.randrange(8)))
                rid += 1
            else:
                history.delete_rows([rng.choice(history.rows)])
            if rng.random() < 0.5:
                requests.insert((rid, rng.randrange(5), 0, "r", rng.randrange(8)))
                rid += 1
            assert plan.execute().rows == query.execute().rows

    def test_index_build_used_for_indexed_base_table(self):
        history = make_history([(1, 1, 0, "w", 5)])
        requests = make_requests([(2, 2, 0, "r", 5)])
        query = Query.from_(requests, alias="r").join(
            Query.from_(history, alias="h"),
            on=col("r.object") == col("h.object"),
        )
        plan = query.compile()
        joins = [
            node
            for node in _walk(plan.physical)
            if isinstance(node, PHashJoin)
        ]
        assert joins and isinstance(joins[0].build, _IndexBuild)
        assert plan.execute().rows == query.execute().rows

    def test_cached_build_applies_deltas_without_rebuild(self):
        history = make_history([(i, i, 0, "w", i) for i in range(1, 6)])
        requests = make_requests([(10, 9, 0, "r", 3)])
        writes = cte(
            Query.from_(history, alias="h")
            .where(col("h.operation") == lit("w"))
            .select("h.object"),
            "writes",
        )
        query = Query.from_(requests, alias="r").anti_join(
            Query.from_(writes, alias="w"),
            on=col("r.object") == col("w.object"),
        )
        plan = query.compile()
        caches = [
            node.build
            for node in _walk(plan.physical)
            if isinstance(node, PAntiJoin)
            and isinstance(node.build, _CachedBuild)
        ]
        assert caches
        cache = caches[0]
        plan.execute()
        assert cache.rebuilds == 1
        history.insert((6, 6, 0, "w", 9))
        history.insert((7, 7, 0, "r", 3))
        plan.execute()
        assert cache.rebuilds == 1  # deltas applied, no rebuild
        assert cache.delta_rows_applied >= 2
        assert plan.execute().rows == query.execute().rows

    def test_outer_join_reduction_preserves_semantics(self):
        history = make_history(
            [(1, 1, 0, "w", 5), (2, 1, 1, "c", -1), (3, 2, 0, "w", 6),
             (4, 3, 0, "r", 6), (5, 4, 0, "w", 5)]
        )
        finished = cte(
            Query.from_(history, alias="f")
            .where(or_(col("f.operation") == lit("a"),
                       col("f.operation") == lit("c")))
            .select("f.ta")
            .distinct(),
            "finished",
        )
        w_locked = (
            Query.from_(history, alias="a")
            .left_join(Query.from_(finished, alias="fin"),
                       on=col("a.ta") == col("fin.ta"))
            .where((col("a.operation") == lit("w")) & is_null(col("fin.ta")))
            .select("a.object", "a.ta")
            .distinct()
        )
        plan = w_locked.compile()
        assert "AntiJoin" in plan.explain()
        assert plan.execute().rows == w_locked.execute().rows

    def test_outer_join_reduction_with_null_join_keys(self):
        # A NULL left key *matches* a NULL build key under hash-join
        # semantics, so the original LEFT JOIN ... IS NULL keeps such
        # rows; the reduction must too (build filtered to non-NULL
        # keys + DISTINCT above).
        history = make_history(
            [(1, None, 0, "w", 5), (2, None, 1, "c", -1),
             (3, 2, 0, "w", 6), (4, 3, 0, "w", 7), (5, 3, 1, "c", -1)]
        )
        finished = cte(
            Query.from_(history, alias="f")
            .where(or_(col("f.operation") == lit("a"),
                       col("f.operation") == lit("c")))
            .select("f.ta")
            .distinct(),
            "finished",
        )
        w_locked = (
            Query.from_(history, alias="a")
            .left_join(Query.from_(finished, alias="fin"),
                       on=col("a.ta") == col("fin.ta"))
            .where((col("a.operation") == lit("w")) & is_null(col("fin.ta")))
            .select("a.object", "a.ta")
            .distinct()
        )
        plan = w_locked.compile()
        assert "AntiJoin" in plan.explain()
        assert plan.execute().rows == w_locked.execute().rows
        history.insert((6, None, 2, "w", 9))
        history.insert((7, 4, 0, "w", 9))
        assert plan.execute().rows == w_locked.execute().rows

    def test_no_reduction_without_distinct(self):
        # Without a DISTINCT above, multiplicities can differ for NULL
        # keys; the rewrite must not fire.
        history = make_history([(1, 1, 0, "w", 5)])
        finished = cte(
            Query.from_(history, alias="f")
            .where(col("f.operation") == lit("c"))
            .select("f.ta"),
            "finished",
        )
        query = (
            Query.from_(history, alias="a")
            .left_join(Query.from_(finished, alias="fin"),
                       on=col("a.ta") == col("fin.ta"))
            .where(is_null(col("fin.ta")))
            .select("a.object", "a.ta")
        )
        plan = query.compile()
        assert "AntiJoin" not in plan.explain()
        assert plan.execute().rows == query.execute().rows

    def test_empty_tables(self):
        requests = make_requests([])
        history = make_history([])
        plan = CompiledPlan(spec_plan(LISTING1_SPEC, requests, history))
        assert plan.execute().rows == []


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


class TestPlanCache:
    def test_caches_per_table_identity(self):
        cache = PlanCache(lambda t: Query.from_(t).order_by("id"))
        a = make_requests([(1, 1, 0, "r", 5)])
        b = make_requests([(2, 2, 0, "w", 6)])
        plan_a = cache.get(a)
        assert cache.get(a) is plan_a
        assert cache.get(b) is not plan_a
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PlanCache(lambda t: Query.from_(t).order_by("id"), capacity=2)
        tables = [make_requests([]) for __ in range(3)]
        plans = [cache.get(t) for t in tables]
        assert len(cache) == 2
        assert cache.get(tables[0]) is not plans[0]  # evicted, rebuilt


class TestListing1Compiled:
    def test_one_shot_identical_to_pipeline(self):
        from repro.bench.declarative_overhead import paper_snapshot
        from repro.core.stores import HistoryStore, PendingStore

        incoming, history = paper_snapshot(40, seed=3)
        pending_store, history_store = PendingStore(), HistoryStore()
        pending_store.insert_batch(incoming)
        history_store.record_batch(history)
        interpreted = SqlPlanner(
            {"requests": pending_store.table, "history": history_store.table}
        ).execute(LISTING1_SPEC.sql).rows
        compiled = (
            api.make_protocol("ss2pl-listing1", "compiled")
            .evaluator.plans.get(pending_store.table, history_store.table)
            .execute()
            .rows
        )
        assert sorted(interpreted) == sorted(compiled)


class TestRandomizedEquivalence:
    """~50 random workloads: the interpreted (eager-CTE) plan, the compiled
    plan, and the incrementally maintained protocol emit identical
    qualified batches on every scheduler step."""

    def test_fifty_random_workloads(self):
        rng = random.Random(2026)
        for trial in range(50):
            clients = rng.randrange(3, 10)
            steps = rng.randrange(4, 9)
            ops_per_txn = rng.randrange(2, 6)
            table_rows = rng.choice([4, 10, 50])
            seed = rng.randrange(10_000)
            kwargs = dict(
                clients=clients,
                steps=steps,
                ops_per_txn=ops_per_txn,
                table_rows=table_rows,
                seed=seed,
            )
            interpreted = drive_steps(
                api.make_protocol("ss2pl-listing1", "interpreted"), **kwargs
            )
            compiled = drive_steps(
                api.make_protocol("ss2pl-listing1", "compiled"), **kwargs
            )
            incremental = drive_steps(
                api.make_protocol("ss2pl-listing1", "incremental"), **kwargs
            )
            assert interpreted.batches == compiled.batches, (
                f"trial {trial}: compiled diverged ({kwargs})"
            )
            assert interpreted.batches == incremental.batches, (
                f"trial {trial}: incremental diverged ({kwargs})"
            )

    def test_ss2pl_relalg_modes_agree(self):
        rng = random.Random(7)
        for trial in range(10):
            kwargs = dict(
                clients=rng.randrange(3, 10),
                steps=rng.randrange(4, 8),
                ops_per_txn=rng.randrange(2, 5),
                table_rows=rng.choice([5, 25]),
                seed=rng.randrange(10_000),
            )
            interpreted = drive_steps(
                api.make_protocol("ss2pl", "interpreted"), **kwargs
            )
            compiled = drive_steps(
                api.make_protocol("ss2pl", "compiled"), **kwargs
            )
            assert interpreted.batches == compiled.batches, (
                f"trial {trial}: {kwargs}"
            )


class TestSchedulerShortCircuit:
    def test_empty_pending_skips_protocol_query(self):
        class ExplodingProtocol(Protocol):
            def schedule(self, requests, history):  # pragma: no cover
                raise AssertionError("protocol queried on empty pending")

        scheduler = DeclarativeScheduler(ExplodingProtocol())
        result = scheduler.step()
        assert result.batch_size == 0
        assert result.query_seconds == 0.0
        assert scheduler.steps_run == 1

    def test_nonempty_pending_still_queries(self):
        scheduler = api.make_scheduler("fcfs")
        scheduler.submit(request(1, 1, 0, "r", 5))
        result = scheduler.step()
        assert [r.id for r in result.qualified] == [1]
