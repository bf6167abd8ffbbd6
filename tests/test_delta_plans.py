"""Incremental delta plans vs full recomputation.

The delta engine (:mod:`repro.relalg.delta`) claims that after any
sequence of base-table inserts and deletes, ``DeltaPlan.refresh()``
yields exactly the relation a from-scratch evaluation of the same
logical plan would — per operator, under bag semantics, including
retraction paths.  These property tests drive every lowered operator
through randomized insert/delete sequences over small value domains
(forcing duplicate rows, group churn, and join-key collisions) and
compare multisets against the interpreted reference each step.

A second group pins the lowering *refusals* (order-dependent or
key-less shapes the engine cannot maintain exactly) and the bounded
delta journal the plans consume.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.relalg.delta import (
    DeltaLoweringError,
    DeltaPlan,
    lower_delta_plan,
)
from repro.relalg.expressions import col, is_null, lit
from repro.relalg.query import Query, cte
from repro.relalg.table import Table

COLUMNS = ["id", "ta", "intrata", "operation", "object"]


def _random_row(rng: random.Random) -> tuple:
    # Tiny domains on purpose: duplicates, key collisions and group
    # churn are the retraction-heavy paths worth exercising.
    return (
        rng.randrange(10),
        rng.randrange(1, 5),
        rng.randrange(3),
        rng.choice(["r", "w", "c"]),
        rng.randrange(6),
    )


def _decode(row: tuple) -> tuple:
    return ("decoded", row)


def _mutate(rng: random.Random, tables: list[Table]) -> None:
    table = rng.choice(tables)
    action = rng.random()
    if action < 0.55 or not table.rows:
        table.insert_many(_random_row(rng) for __ in range(rng.randrange(1, 4)))
    elif action < 0.9:
        victim = rng.choice(table.rows)
        table.delete_rows([victim])
    else:
        obj = rng.randrange(6)
        pos = table.schema.resolve("object")
        table.delete_where(lambda row: row[pos] == obj)


def assert_incremental_matches(
    make_query, tables: list[Table], seed: int = 0, steps: int = 40
) -> DeltaPlan:
    """Drive *steps* random mutations; after each, the maintained plan
    must equal a fresh interpreted execution as a multiset."""
    rng = random.Random(seed)
    plan = lower_delta_plan(make_query())
    plan.decode_with(_decode)
    for step in range(steps):
        _mutate(rng, tables)
        got = Counter(plan.refresh().rows)
        want = Counter(make_query().execute().rows)
        assert got == want, f"divergence after mutation {step}"
        # The decode-once view is the same multiset, row for row.
        assert plan.decoded_rows() == [_decode(row) for row in plan.rows()]
    # The whole run must have been pure delta maintenance: one rebuild
    # (the initial seeding), never a fallback recomputation.
    assert plan.stats["rebuilds"] == 1
    return plan


@pytest.fixture
def requests() -> Table:
    return Table("requests", COLUMNS)


@pytest.fixture
def history() -> Table:
    return Table("history", COLUMNS)


class TestUnaryOperators:
    def test_filter_project(self, requests):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .where(col("r.operation") == lit("w"))
            .select("r.id", "r.object"),
            [requests],
        )

    def test_project_keeps_duplicates(self, requests):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r").select(
                "r.operation", "r.object"
            ),
            [requests],
            seed=1,
        )

    def test_extend(self, requests):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .extend("load", col("r.object") + col("r.ta"))
            .select("r.ta", "load"),
            [requests],
            seed=2,
        )

    def test_distinct(self, requests):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .select("r.operation", "r.object")
            .distinct(),
            [requests],
            seed=3,
        )

    def test_order_by_is_an_unordered_multiset(self, requests):
        # ORDER BY lowers to identity: delta outputs are unordered
        # multisets, equality is multiset equality.
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .select("r.id", "r.ta")
            .order_by("id"),
            [requests],
            seed=4,
        )


class TestAggregates:
    def test_grouped_aggregates(self, requests):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r").aggregate(
                ["r.ta"],
                [
                    ("count", "*", "n"),
                    ("sum", "r.object", "total"),
                    ("min", "r.id", "lo"),
                    ("max", "r.id", "hi"),
                    ("avg", "r.object", "mean"),
                ],
            ),
            [requests],
            seed=5,
        )

    def test_global_aggregate_emits_empty_input_row(self, requests):
        # SQL semantics: a global aggregate yields one row even over an
        # empty input — including after deletions empty the table again.
        make = lambda: Query.from_(requests, "r").aggregate(
            [], [("count", "*", "n"), ("sum", "r.object", "total")]
        )
        plan = lower_delta_plan(make())
        assert Counter(plan.refresh().rows) == Counter(make().execute().rows)
        assert_incremental_matches(make, [requests], seed=6)


class TestJoins:
    def test_inner_join_with_residual(self, requests, history):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .join(
                Query.from_(history, "h"),
                on=(col("r.object") == col("h.object"))
                & (col("r.ta") != col("h.ta")),
            )
            .select("r.id", "h.id"),
            [requests, history],
            seed=7,
        )

    def test_self_join(self, requests):
        assert_incremental_matches(
            lambda: Query.from_(requests, "a")
            .join(
                Query.from_(requests, "b"),
                on=(col("a.object") == col("b.object"))
                & (col("a.id") != col("b.id")),
            )
            .select("a.id", "b.id"),
            [requests],
            seed=8,
        )

    def test_left_join_pads_and_unpads(self, requests, history):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .left_join(
                Query.from_(history, "h"),
                on=col("r.object") == col("h.object"),
            )
            .select("r.id", "h.id"),
            [requests, history],
            seed=9,
        )

    def test_left_join_null_filter_reduction(self, requests, history):
        # The NOT-EXISTS idiom: left join + IS NULL.  The optimizer's
        # outer-join reduction may rewrite this; either lowering must
        # match the interpreted result.
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .left_join(
                Query.from_(history, "h"),
                on=col("r.object") == col("h.object"),
            )
            .where(is_null(col("h.id")))
            .select("r.id"),
            [requests, history],
            seed=10,
        )

    def test_semi_join(self, requests, history):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .semi_join(
                Query.from_(history, "h"),
                on=col("r.object") == col("h.object"),
            )
            .select("r.id"),
            [requests, history],
            seed=11,
        )

    def test_anti_join_equi(self, requests, history):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .anti_join(
                Query.from_(history, "h"),
                on=col("r.object") == col("h.object"),
            )
            .select("r.id"),
            [requests, history],
            seed=12,
        )

    def test_anti_join_with_residual(self, requests, history):
        assert_incremental_matches(
            lambda: Query.from_(requests, "r")
            .anti_join(
                Query.from_(history, "h"),
                on=(col("r.object") == col("h.object"))
                & (col("r.ta") != col("h.ta")),
            )
            .select("r.id"),
            [requests, history],
            seed=13,
        )


class TestSetOps:
    @pytest.mark.parametrize(
        "kind", ["union_all", "union", "except_", "except_all", "intersect"]
    )
    def test_setop_matches_reference(self, kind, requests, history):
        def make():
            left = Query.from_(requests, "r").select("r.ta", "r.object")
            right = Query.from_(history, "h").select("h.ta", "h.object")
            return getattr(left, kind)(right)

        assert_incremental_matches(make, [requests, history], seed=14)


class TestCtes:
    def test_shared_cte_computed_once_and_consistent(self, requests):
        def make():
            writers = cte(
                Query.from_(requests, "r")
                .where(col("r.operation") == lit("w"))
                .select("r.ta", "r.object"),
                "Writers",
            )
            left = Query.from_(writers, "a").select("a.ta")
            right = Query.from_(writers, "b").select("b.ta")
            return left.union_all(right)

        assert_incremental_matches(make, [requests], seed=15)


class TestLoweringRefusals:
    def test_limit_refused(self, requests):
        query = Query.from_(requests, "r").limit(3)
        with pytest.raises(DeltaLoweringError):
            lower_delta_plan(query)

    def test_left_join_without_equi_keys_refused(self, requests, history):
        query = Query.from_(requests, "r").left_join(
            Query.from_(history, "h"),
            on=col("r.ta") != col("h.ta"),
        )
        with pytest.raises(DeltaLoweringError):
            lower_delta_plan(query)


class TestDecodeOnce:
    """``decoded_rows`` builds each result row's object once per stay
    in the result and drops it exactly when the row leaves."""

    @pytest.fixture
    def writes(self, requests):
        plan = lower_delta_plan(
            Query.from_(requests, "r")
            .where(col("r.operation") == lit("w"))
            .select("r.id", "r.object")
        )
        calls = []

        def decode(row):
            calls.append(row)
            return ["decoded", row]  # a list: identity is observable

        plan.decode_with(decode)
        return plan, calls

    def test_read_twice_decodes_once(self, requests, writes):
        plan, calls = writes
        requests.insert((1, 1, 0, "w", 5))
        requests.insert((2, 1, 1, "r", 6))
        plan.refresh()
        first = plan.decoded_rows()
        plan.refresh()
        again = plan.decoded_rows()
        assert first == [["decoded", (1, 5)]]
        assert again[0] is first[0] and again is not first
        assert calls == [(1, 5)]

    def test_row_that_leaves_and_reenters_is_decoded_afresh(self, requests, writes):
        plan, calls = writes
        requests.insert((1, 1, 0, "w", 5))
        plan.refresh()
        (before,) = plan.decoded_rows()
        requests.delete_rows([(1, 1, 0, "w", 5)])
        plan.refresh()
        assert plan.decoded_rows() == []
        assert plan.materialized.decoded == {}
        requests.insert((1, 1, 0, "w", 5))
        plan.refresh()
        (after,) = plan.decoded_rows()
        assert after == before and after is not before
        assert calls == [(1, 5), (1, 5)]

    def test_duplicates_share_one_decoded_object(self, requests, writes):
        plan, calls = writes
        requests.insert_many([(1, 1, 0, "w", 5), (1, 2, 0, "w", 5)])
        plan.refresh()
        one, two = plan.decoded_rows()
        assert one is two and calls == [(1, 5)]
        requests.delete_rows([(1, 1, 0, "w", 5)])  # 2 -> 1: still there
        plan.refresh()
        assert plan.decoded_rows() == [one] and calls == [(1, 5)]

    def test_rebuild_serves_nothing_stale(self, requests, writes):
        plan, calls = writes
        requests.insert_many([(1, 1, 0, "w", 5), (2, 2, 0, "w", 6)])
        plan.refresh()
        stale = plan.decoded_rows()
        # A retraction of a row the state never held is an impossible
        # transition: maintenance raises DeltaStateError and rebuilds.
        requests.delete_rows([(1, 1, 0, "w", 5)])
        requests._log.append((False, (9, 9, 0, "w", 9)))
        plan.refresh()
        assert plan.last["rebuild"] and plan.stats["rebuilds"] == 2
        fresh = plan.decoded_rows()
        assert fresh == [["decoded", (2, 6)]]
        assert all(obj is not old for obj in fresh for old in stale)
        assert set(plan.materialized.decoded) == {(2, 6)}


class TestJournalStaysBounded:
    def test_bounded_over_ten_thousand_steps(self):
        """The regression the delta journal redesign pins: with a live
        plan consuming deltas every step — and a laggard cursor that
        stops consuming — a 10^4-step insert/delete run must not grow
        the journal past its compaction bound."""
        table = Table("requests", COLUMNS)
        rng = random.Random(42)
        plan = lower_delta_plan(
            Query.from_(table, "r")
            .where(col("r.operation") == lit("w"))
            .select("r.id", "r.object")
        )
        laggard = table.delta_cursor()
        laggard.take()  # positioned once, then never advanced again
        for step in range(10_000):
            table.insert(_random_row(rng))
            if len(table.rows) > 50:
                table.delete_rows([rng.choice(table.rows)])
            plan.refresh()
            bound = max(256, 4 * len(table.rows))
            assert len(table._log) <= bound, f"journal unbounded at {step}"
        # The laggard was compacted past, not kept as a leak: its next
        # take() reports a lost position (None) rather than stale data.
        assert laggard.take() is None
        assert plan.stats["rebuilds"] == 1


class TestWorkFollowsDeltaNotDepth:
    """The O(|delta|) claim as operation counts: the same steady stream
    over a 30x deeper committed history seeds once and then maintains
    exactly as many rows per step."""

    @staticmethod
    def _drive(backend: str, history_rows: int):
        """``ss2pl`` x *backend* over ``large_history_snapshot`` through
        the E13 driver.  Returns the batches, the bound protocol, and
        its ``inserts + retracts`` after each ``schedule`` call."""
        from repro.backends import build_protocol
        from repro.bench.scheduler_step import (
            drive_step_costs,
            large_history_snapshot,
        )

        incoming, history, table_rows = large_history_snapshot(
            active_clients=20, history_rows=history_rows, seed=7
        )
        protocol = build_protocol("ss2pl", backend)
        delta_rows = []
        schedule = protocol.schedule

        def recording_schedule(requests, history_table):
            decision = schedule(requests, history_table)
            last = (protocol.maintenance_stats() or {}).get("last", {})
            delta_rows.append(last.get("inserts", 0) + last.get("retracts", 0))
            return decision

        protocol.schedule = recording_schedule
        result = drive_step_costs(
            protocol, incoming, history, steps=6, seed=7,
            table_rows=table_rows,
        )
        return result.batches, protocol, delta_rows

    def test_same_delta_rows_per_step_at_both_depths(self):
        per_depth = {}
        for history_rows in (1_000, 30_000):
            reference, __, ___ = self._drive("compiled", history_rows)
            batches, protocol, delta_rows = self._drive(
                "compiled-delta", history_rows
            )
            assert batches == reference
            assert any(batches)
            # The seeding, nothing after.
            assert protocol.maintenance_stats()["rebuilds"] == 1
            per_depth[history_rows] = delta_rows
        shallow, deep = per_depth[1_000], per_depth[30_000]
        assert shallow[1:] == deep[1:]
        assert all(rows > 0 for rows in deep[1:])
