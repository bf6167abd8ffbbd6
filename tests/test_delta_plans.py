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

A third states the O(|delta|) claim as operation counts — inside the
plan (work follows the delta, not the depth of history) and around it
(the hand-off, the program-order gate and the recovery bookkeeping read
what a step changed, and are checked against the walk-everything code
they replaced).
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.model.request import NO_OBJECT, Operation, Request
from repro.relalg.delta import (
    DAntiKeyJoin,
    DeltaLoweringError,
    DeltaPlan,
    DSemiJoin,
    DSetOp,
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


def _mutate_every_table(objects: int):
    """A mutation that changes *each* table before the refresh, over
    ``objects`` join keys: a join gets a left and a right delta in one
    ``apply``."""

    def mutate(rng: random.Random, tables: list[Table]) -> None:
        pos = tables[0].schema.resolve("object")
        for table in tables:
            action = rng.random()
            if action < 0.55 or not table.rows:
                table.insert_many(
                    _random_row(rng)[:4] + (rng.randrange(objects),)
                    for __ in range(rng.randrange(1, 4))
                )
            elif action < 0.9:
                table.delete_rows([rng.choice(table.rows)])
            else:
                obj = rng.choice(table.rows)[pos]
                table.delete_where(lambda row: row[pos] == obj)

    return mutate


def assert_incremental_matches(
    make_query, tables: list[Table], seed: int = 0, steps: int = 40,
    mutate=_mutate,
) -> DeltaPlan:
    """Drive *steps* random mutations; after each, the maintained plan
    must equal a fresh interpreted execution as a multiset."""
    rng = random.Random(seed)
    plan = lower_delta_plan(make_query())
    plan.decode_with(_decode)
    for step in range(steps):
        mutate(rng, tables)
        plan.refresh()
        got = Counter(plan.rows())
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
        plan.refresh()
        assert Counter(plan.rows()) == Counter(make().execute().rows)
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


#: Two-table shapes covering every join operator the lowering emits.
TWO_SIDED = {
    "semi": lambda r, h: Query.from_(r, "r")
    .semi_join(Query.from_(h, "h"), on=col("r.object") == col("h.object"))
    .select("r.id"),
    "anti": lambda r, h: Query.from_(r, "r")
    .anti_join(Query.from_(h, "h"), on=col("r.object") == col("h.object"))
    .select("r.id"),
    "anti-residual": lambda r, h: Query.from_(r, "r")
    .anti_join(
        Query.from_(h, "h"),
        on=(col("r.object") == col("h.object")) & (col("r.ta") != col("h.ta")),
    )
    .select("r.id"),
    "left": lambda r, h: Query.from_(r, "r")
    .left_join(Query.from_(h, "h"), on=col("r.object") == col("h.object"))
    .select("r.id", "h.id"),
    "left-residual": lambda r, h: Query.from_(r, "r")
    .left_join(
        Query.from_(h, "h"),
        on=(col("r.object") == col("h.object")) & (col("r.ta") != col("h.ta")),
    )
    .select("r.id", "h.id"),
    "left-is-null": lambda r, h: Query.from_(r, "r")
    .left_join(Query.from_(h, "h"), on=col("r.object") == col("h.object"))
    .where(is_null(col("h.id")))
    .select("r.id"),
    # IS NULL on the right key under DISTINCT: reduced to an anti join.
    "left-is-null-reduced": lambda r, h: Query.from_(r, "r")
    .left_join(Query.from_(h, "h"), on=col("r.object") == col("h.object"))
    .where(is_null(col("h.object")))
    .select("r.id")
    .distinct(),
    "inner": lambda r, h: Query.from_(r, "r")
    .join(Query.from_(h, "h"), on=col("r.object") == col("h.object"))
    .select("r.id", "h.id"),
    "inner-residual": lambda r, h: Query.from_(r, "r")
    .join(
        Query.from_(h, "h"),
        on=(col("r.object") == col("h.object")) & (col("r.ta") != col("h.ta")),
    )
    .select("r.id", "h.id"),
}


class TestBothSidesInOneRefresh:
    """Both inputs of a join change before one refresh: the case where
    the order the two deltas are applied in decides the answer."""

    @pytest.mark.parametrize(
        "objects", [400, 3], ids=["one-row-keys", "colliding-keys"]
    )
    @pytest.mark.parametrize("shape", sorted(TWO_SIDED))
    def test_random_two_sided_deltas(self, shape, objects, requests, history):
        make = TWO_SIDED[shape]
        assert_incremental_matches(
            lambda: make(requests, history),
            [requests, history],
            seed=sorted(TWO_SIDED).index(shape) * 1_000 + objects,
            steps=60,
            mutate=_mutate_every_table(objects),
        )

    @staticmethod
    def _refresh_and_check(plan, make) -> None:
        plan.refresh()
        assert Counter(plan.rows()) == Counter(make().execute().rows)

    @pytest.mark.parametrize("shape", sorted(TWO_SIDED))
    def test_row_arrives_and_leaves_with_its_gate(self, shape, requests, history):
        make = lambda: TWO_SIDED[shape](requests, history)
        plan = lower_delta_plan(make())
        requests.insert_many([(1, 1, 0, "w", 5), (2, 2, 0, "w", 6)])
        history.insert((8, 2, 0, "w", 6))
        self._refresh_and_check(plan, make)
        # A left row and the right row that gates it, in one refresh ...
        requests.insert((3, 1, 0, "w", 7))
        history.insert((9, 2, 0, "w", 7))
        self._refresh_and_check(plan, make)
        assert plan.rows()
        # ... and both retracted in one refresh.
        requests.delete_rows([(3, 1, 0, "w", 7)])
        history.delete_rows([(9, 2, 0, "w", 7)])
        self._refresh_and_check(plan, make)
        # A left row leaving while its gate arrives, and the reverse.
        requests.delete_rows([(1, 1, 0, "w", 5)])
        history.insert((10, 2, 0, "w", 5))
        self._refresh_and_check(plan, make)
        requests.insert((1, 1, 0, "w", 5))
        history.delete_rows([(10, 2, 0, "w", 5)])
        self._refresh_and_check(plan, make)
        assert plan.stats["rebuilds"] == 1

    @pytest.mark.parametrize("shape", ["semi", "anti"])
    def test_one_row_key_transitions(self, shape, requests, history):
        """A key's left entry is ``(row, count)`` while it holds one
        distinct row and a dict from two; the gate reads either form."""
        make = lambda: TWO_SIDED[shape](requests, history)
        plan = lower_delta_plan(make())
        (node,) = [
            node for node in plan.order
            if isinstance(node, (DSemiJoin, DAntiKeyJoin))
        ]
        gate = (9, 3, 0, "w", 5)
        a, b = (1, 1, 0, "w", 5), (2, 2, 0, "r", 5)

        def held():
            # Flip the gate both ways so the entry is read as it stands.
            self._refresh_and_check(plan, make)
            history.insert(gate)
            self._refresh_and_check(plan, make)
            history.delete_rows([gate])
            self._refresh_and_check(plan, make)
            return node.left_index.get(5)

        def one_row(entry, count):
            return type(entry) is tuple and entry[1] == count

        requests.insert(a)
        assert one_row(held(), 1)
        requests.insert(b)
        two = held()
        assert type(two) is dict and sorted(two.values()) == [1, 1]
        requests.delete_rows([a])
        assert one_row(held(), 1)
        requests.delete_rows([b])
        assert held() is None
        requests.insert_many([a, a])  # one distinct row, count 2
        assert one_row(held(), 2)
        requests.insert(b)
        assert sorted(held().values()) == [1, 2]
        requests.delete_rows([b])
        assert one_row(held(), 2)
        requests.delete_rows([a, a])
        assert held() is None and node.left_index == {}
        assert plan.stats["rebuilds"] == 1


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


class TestRebuildBuildsNotChurns:
    """A rebuild costs what it builds: seeding ``ss2pl`` over 3·10⁴
    history rows, no gated join (semi, anti, left) emits a row it then
    retracts, and no one-row key of a transition-only index is a dict."""

    GATED = ("DSemiJoin", "DAntiKeyJoin", "DAntiResidualJoin", "DLeftJoin")
    TRANSITION_ONLY = ("DSemiJoin", "DAntiKeyJoin")

    def test_seeding_emits_only_what_it_keeps(self, monkeypatch):
        from repro.backends import build_protocol
        from repro.bench.scheduler_step import (
            drive_step_costs,
            large_history_snapshot,
        )
        from repro.relalg import delta

        # Every row a gated join emits goes through ``_merge``; count
        # them per node while its ``apply`` runs.
        emitted: dict[int, list[int]] = {}
        running: list = []
        live_merge = delta._merge

        def counting_merge(target, row, count):
            if running:
                emitted[id(running[-1])].append(count)
            live_merge(target, row, count)

        monkeypatch.setattr(delta, "_merge", counting_merge)
        gated: list = []
        outputs: dict[int, dict] = {}
        live_rebuild = delta.DeltaPlan._rebuild

        def watched_rebuild(plan, op_s=None):
            if gated:  # only the seeding
                return live_rebuild(plan, op_s)
            for node in plan.order:
                if type(node).__name__ not in self.GATED:
                    continue
                gated.append(node)
                emitted[id(node)] = []

                def apply(slots, node=node, live=node.apply):
                    running.append(node)
                    try:
                        outputs[id(node)] = live(slots)
                    finally:
                        running.pop()
                    return outputs[id(node)]

                node.apply = apply
            try:
                return live_rebuild(plan, op_s)
            finally:
                for node in gated:
                    del node.apply

        monkeypatch.setattr(delta.DeltaPlan, "_rebuild", watched_rebuild)
        incoming, history, table_rows = large_history_snapshot(
            active_clients=20, history_rows=30_000, seed=7
        )
        protocol = build_protocol("ss2pl", "compiled-delta")
        try:
            drive_step_costs(
                protocol, incoming, history, steps=1, seed=7,
                table_rows=table_rows,
            )
            assert protocol.maintenance_stats()["rebuilds"] == 1
        finally:
            protocol.reset()
        assert len(gated) >= 3
        biggest = 0
        for node in gated:
            counts = emitted[id(node)]
            label = f"{type(node).__name__} {node.schema.names}"
            assert all(c > 0 for c in counts), f"{label} retracted"
            kept = sum(outputs.get(id(node), {}).values())
            # Emitted == kept also proves the count saw every emission.
            assert sum(counts) == kept, f"{label} emitted more than it holds"
            biggest = max(biggest, kept)
            if type(node).__name__ in self.TRANSITION_ONLY:
                entries = list(node.left_index.values())
                held = sum(
                    sum(e.values()) if isinstance(e, dict) else e[1]
                    for e in entries
                )
                assert kept <= held
                assert entries and not any(
                    isinstance(e, dict) and len(e) < 2 for e in entries
                ), f"{label} keeps a dict for a one-row key"
        assert biggest >= 10_000  # the seeding really ran through them


class TestStepCostsWhatChanged:
    """What surrounds the delta query, as counts: with ~10^3 blocked
    rows pending, a steady-state step never walks the pending table
    (``delete_rows``' own scan aside), never materializes the result as
    rows, and formats no denial text it has formatted before."""

    BLOCKED = 125  # transactions, 8 rows each

    def _contended_scheduler(self):
        from repro import api

        scheduler = api.make_scheduler(
            "ss2pl", "compiled-delta",
            recovery=api.RecoveryPolicy(request_timeout=1e6, orphan_lease=1e6),
        )
        ids = iter(range(1, 1 << 30))

        def submit(ta, intrata, operation, obj):
            scheduler.submit(Request(next(ids), ta, intrata, operation, obj))

        # Transaction 1 takes write locks on the hot objects and stays
        # open; everyone else's first statement waits for one of them,
        # so their later statements are lock-free but out of order.
        for intrata in range(8):
            submit(1, intrata, Operation.WRITE, intrata)
        scheduler.step(0.0)
        for ta in range(2, 2 + self.BLOCKED):
            submit(ta, 0, Operation.WRITE, ta % 8)
            for intrata in range(1, 8):
                submit(ta, intrata, Operation.WRITE, 1_000 * ta + intrata)
        scheduler.step(0.0)
        assert len(scheduler.pending) == 8 * self.BLOCKED
        return scheduler, submit

    def test_steady_state_step_reads_what_changed(self, monkeypatch):
        from repro.relalg import delta

        scheduler, submit = self._contended_scheduler()
        pending = scheduler.pending.table
        walks: list[str] = []
        live_rows = Table.rows.fget
        live_iter = Table.__iter__

        def rows(table):
            if table is pending:
                walks.append("rows")
            return live_rows(table)

        def iterate(table):
            if table is pending:
                walks.append("__iter__")
            return live_iter(table)

        monkeypatch.setattr(Table, "rows", property(rows))
        monkeypatch.setattr(Table, "__iter__", iterate)
        monkeypatch.setattr(
            delta.DMaterialize, "rows", lambda self: walks.append("result rows")
        )
        texts: dict[str, str] = {}
        granted = 0
        for step in range(1, 21):
            # A short transaction on fresh objects: real work every step.
            ta = 10_000 + step
            submit(ta, 0, Operation.WRITE, 10_000_000 + step)
            submit(ta, 1, Operation.COMMIT, NO_OBJECT)
            result = scheduler.step(float(step))
            granted += result.batch_size
            assert len(result.denials) >= 7 * self.BLOCKED
            for text in result.denials.values():
                assert text.startswith("out of program order")
                assert texts.setdefault(text, text) is text
        assert granted == 40
        assert len(texts) == 7  # intrata 1..7 over executed 0
        assert walks == []
        scheduler.protocol.reset()


class TestRecoveryBookkeepingFollowsTheStep:
    """Arming the pending clocks from the step's own drained and
    granted requests, and skipping the timeout sweep under the floor,
    is the old walk-everything bookkeeping, step for step."""

    @staticmethod
    def _reference_class():
        from repro.core.scheduler import DeclarativeScheduler

        class WalksEverything(DeclarativeScheduler):
            """The bookkeeping as it was: arm by walking every pending
            row, sweep every tracked transaction every step."""

            def _note_progress(self, drained, qualified, now):
                for request in qualified:
                    self._pending_since.pop(request.ta, None)
                    if request.operation.is_termination:
                        client = self._client_of_ta.pop(request.ta, None)
                        self._arrival_of_ta.pop(request.ta, None)
                        self._priority_of_ta.pop(request.ta, None)
                        if request.is_commit and client is not None:
                            self._retries_of_client.pop(client, None)
                if len(self.pending):
                    ta_pos = self.pending.table.schema.resolve("ta")
                    for row in self.pending.table.rows:
                        self._pending_since.setdefault(row[ta_pos], now)

            def _recover(self, now, actions):
                policy = self.recovery
                for ta, since in list(self._pending_since.items()):
                    client = self._client_of_ta.get(ta, 0)
                    timeout = policy.timeout_for(
                        self._retries_of_client.get(client, 0)
                    )
                    if now - since > timeout:
                        abort = self.abort_transaction(ta, now, reason="timeout")
                        self._retries_of_client[client] = (
                            self._retries_of_client.get(client, 0) + 1
                        )
                        actions.timeouts.append((ta, abort))
                for ta, orphaned_at in list(self._orphaned_at.items()):
                    if ta not in self._client_of_ta:
                        self._orphaned_at.pop(ta)
                        continue
                    if now - orphaned_at >= policy.orphan_lease:
                        self._orphaned_at.pop(ta)
                        abort = self.abort_transaction(ta, now, reason="orphan")
                        actions.orphans.append((ta, abort))

        return WalksEverything

    def test_same_clocks_timeouts_orphans_and_batches(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro import api
        from repro.core.scheduler import DeclarativeScheduler
        from repro.model.request import RequestAttributes

        reference_class = self._reference_class()
        tas = st.integers(1, 6)
        action = st.one_of(
            st.tuples(st.just("access"), tas, st.sampled_from("rw"), st.integers(0, 3)),
            st.tuples(st.just("commit"), tas),
            st.tuples(st.just("step")),
            # Negative: ``now`` is the caller's and need not be monotone.
            st.tuples(st.just("advance"), st.sampled_from([0.2, 0.6, 1.1, 2.5, -0.7])),
            st.tuples(st.just("crash"), st.integers(0, 2)),
            st.tuples(st.just("abort"), tas),
        )

        @settings(max_examples=60, deadline=None)
        @given(st.lists(action, min_size=4, max_size=60))
        def run(script):
            policy = api.RecoveryPolicy(
                request_timeout=1.0, backoff_factor=2.0, orphan_lease=1.5
            )
            pair = [
                cls(api.make_protocol("ss2pl", "compiled-delta"), recovery=policy)
                for cls in (DeclarativeScheduler, reference_class)
            ]
            try:
                now = 0.0
                next_id = 0
                intrata_of: dict[int, int] = {}

                def submit(ta, operation, obj):
                    nonlocal next_id
                    next_id += 1
                    intrata = intrata_of.get(ta, 0)
                    intrata_of[ta] = intrata + 1
                    request = Request(
                        next_id, ta, intrata, operation, obj,
                        RequestAttributes(client_id=ta % 3),
                    )
                    for scheduler in pair:
                        scheduler.submit(request, now)

                for kind, *args in script + [("advance", 40.0), ("step",)]:
                    if kind == "access":
                        ta, code, obj = args
                        submit(ta, Operation.from_code(code), obj)
                    elif kind == "commit":
                        submit(args[0], Operation.COMMIT, NO_OBJECT)
                    elif kind == "advance":
                        now += args[0]
                    elif kind == "crash":
                        for scheduler in pair:
                            scheduler.note_client_crashed(args[0], now)
                    elif kind == "abort":
                        aborts = [s.abort_transaction(args[0], now) for s in pair]
                        assert aborts[0] == aborts[1]
                    else:
                        new, old = (scheduler.step(now) for scheduler in pair)
                        assert new.qualified == old.qualified
                        assert new.denials == old.denials
                        assert new.recovery == old.recovery
                    new, old = pair
                    # Items, not the dict: the order is the order a
                    # sweep aborts in.
                    assert list(new._pending_since.items()) == list(
                        old._pending_since.items()
                    )
                    assert new._orphaned_at == old._orphaned_at
                    assert new._retries_of_client == old._retries_of_client
                    assert new._pending_since_floor <= min(
                        new._pending_since.values(), default=math.inf
                    )
                    assert set(new._drain_seq) == set(new.pending.table.attrs_by_id)
            finally:
                for scheduler in pair:
                    scheduler.protocol.reset()

        run()


def _gate_as_it_was(decision, requests, history):
    """``gate_program_order`` before it became one pass, verbatim."""
    from repro.protocols.base import ProtocolDecision

    if not decision.qualified:
        return decision
    candidate_tas = {request.ta for request in decision.qualified}
    executed: dict[int, int] = {}
    ta_index = history.index_on("ta")
    if ta_index is not None:
        for ta in candidate_tas:
            bucket = ta_index.buckets.get((ta,))
            if bucket:
                executed[ta] = len(bucket)
    else:
        history_ta_pos = history.schema.resolve("ta")
        for row in history.rows:
            ta = row[history_ta_pos]
            if ta in candidate_tas:
                executed[ta] = executed.get(ta, 0) + 1
    gated = ProtocolDecision(denials=dict(decision.denials))
    progress = dict(executed)
    for request in decision.qualified:
        done = progress.get(request.ta, 0)
        if request.intrata != done:
            gated.denials[request.id] = (
                f"out of program order: intrata {request.intrata}, "
                f"executed {done}"
            )
            continue
        if request.operation.is_termination or request.operation.is_data_access:
            gated.qualified.append(request)
            progress[request.ta] = done + 1
    return gated


class TestGateIsOnePass:
    @pytest.mark.parametrize("indexed", [True, False], ids=["ta-index", "bare"])
    def test_same_grants_and_denials_as_the_old_gate(self, indexed):
        from repro.protocols.base import ProtocolDecision
        from repro.protocols.library import gate_program_order

        rng = random.Random(24)
        for __ in range(300):
            history = Table("history", COLUMNS)
            if indexed:
                history.create_index("ta")
            rid = 0
            for ta in range(1, 7):
                for intrata in range(rng.randrange(4)):
                    rid += 1
                    history.insert((rid, ta, intrata, "w", rid))
            candidates = []
            for __ in range(rng.randrange(12)):
                rid += 1
                if rng.random() < 0.25:  # commits, some before their data accesses
                    operation, obj = Operation.COMMIT, NO_OBJECT
                else:
                    operation, obj = rng.choice([Operation.READ, Operation.WRITE]), rid
                # Gaps and duplicate intratas on purpose.
                candidates.append(
                    Request(rid, rng.randrange(1, 9), rng.randrange(5), operation, obj)
                )
            earlier = {-rid: "held elsewhere" for rid in range(rng.randrange(3))}
            if candidates and rng.random() < 0.3:
                earlier[candidates[0].id] = "overwritten when out of order"
            new = gate_program_order(
                ProtocolDecision(list(candidates), dict(earlier)), None, history
            )
            old = _gate_as_it_was(
                ProtocolDecision(list(candidates), dict(earlier)), None, history
            )
            assert new.qualified == old.qualified
            assert list(new.denials.items()) == list(old.denials.items())


class TestStatelessUnionAndSharedRouting:
    def test_union_all_keeps_no_rows(self, requests, history):
        def make():
            left = Query.from_(requests, "r").select("r.ta", "r.object")
            right = Query.from_(history, "h").select("h.ta", "h.object")
            return left.union_all(right).union_all(left)

        plan = assert_incremental_matches(make, [requests, history], seed=21)
        unions = [node for node in plan.order if isinstance(node, DSetOp)]
        assert [node.kind for node in unions] == ["union_all", "union_all"]
        assert plan.rows()  # the script left something to forget
        for node in unions:
            assert node.left_counts == {} and node.right_counts == {}

    def test_one_output_routed_to_two_parents(self, requests, history):
        # A shared CTE feeding a join and a set operation: both parents
        # are handed the same delta dict, under inserts and retractions.
        def make():
            writers = cte(
                Query.from_(requests, "r")
                .where(col("r.operation") == lit("w"))
                .select("r.ta", "r.object"),
                "Writers",
            )
            joined = (
                Query.from_(writers, "a")
                .join(Query.from_(history, "h"), on=col("a.object") == col("h.object"))
                .select("a.ta", "h.object")
            )
            return joined.union_all(
                Query.from_(writers, "b").select("b.ta", "b.object")
            ).except_(Query.from_(history, "g").select("g.ta", "g.object"))

        plan = assert_incremental_matches(make, [requests, history], seed=22, steps=80)
        fan_out = [
            node for node in plan.order
            if node.arity and len(plan.parents.get(id(node), ())) > 1
        ]
        assert fan_out, plan.explain()
