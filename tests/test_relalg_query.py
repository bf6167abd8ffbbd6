"""Query builder and the optimizer."""

import pytest

from repro.relalg.expressions import col, lit
from repro.relalg.query import Query
from repro.relalg.table import Table


@pytest.fixture
def requests() -> Table:
    t = Table("requests", ["id", "ta", "intrata", "operation", "object"])
    t.insert_many(
        [
            (1, 1, 0, "r", 5),
            (2, 2, 0, "w", 5),
            (3, 3, 0, "r", 9),
            (4, 3, 1, "w", 9),
        ]
    )
    return t


@pytest.fixture
def history() -> Table:
    t = Table("history", ["id", "ta", "intrata", "operation", "object"])
    t.insert_many([(100, 9, 0, "w", 9), (101, 9, 1, "c", -1)])
    return t


class TestBuilder:
    def test_where_select(self, requests):
        out = (
            Query.from_(requests, alias="r")
            .where(col("r.operation") == lit("w"))
            .select("r.id")
            .execute()
        )
        assert out.rows == [(2,), (4,)]

    def test_join_with_equi_and_residual(self, requests, history):
        out = (
            Query.from_(requests, alias="r")
            .join(
                Query.from_(history, alias="h"),
                on=(col("r.object") == col("h.object"))
                & (col("r.ta") != col("h.ta")),
            )
            .select("r.id")
            .execute()
        )
        assert sorted(out.rows) == [(3,), (4,)]

    def test_left_join_is_null_idiom(self, requests, history):
        from repro.relalg.expressions import is_null

        out = (
            Query.from_(requests, alias="r")
            .left_join(
                Query.from_(history, alias="h"),
                on=col("r.object") == col("h.object"),
            )
            .where(is_null(col("h.id")))
            .select("r.id")
            .execute()
        )
        assert sorted(out.rows) == [(1,), (2,)]

    def test_anti_join(self, requests, history):
        out = (
            Query.from_(requests, alias="r")
            .anti_join(
                Query.from_(history, alias="h"),
                on=col("r.object") == col("h.object"),
            )
            .select("r.id")
            .execute()
        )
        assert sorted(out.rows) == [(1,), (2,)]

    def test_semi_join(self, requests, history):
        out = (
            Query.from_(requests, alias="r")
            .semi_join(
                Query.from_(history, alias="h"),
                on=col("r.object") == col("h.object"),
            )
            .select("r.id")
            .execute()
        )
        assert sorted(out.rows) == [(3,), (4,)]

    def test_set_operations(self, requests):
        reads = (
            Query.from_(requests, alias="r")
            .where(col("r.operation") == lit("r"))
            .select("r.ta")
        )
        writes = (
            Query.from_(requests, alias="r")
            .where(col("r.operation") == lit("w"))
            .select("r.ta")
        )
        assert sorted(reads.union(writes).execute().rows) == [(1,), (2,), (3,)]
        assert sorted(reads.except_(writes).execute().rows) == [(1,)]
        assert sorted(reads.intersect(writes).execute().rows) == [(3,)]

    def test_aggregate_and_order(self, requests):
        out = (
            Query.from_(requests, alias="r")
            .aggregate(["r.ta"], [("count", "*", "n")])
            .order_by(("n", True), "ta")
            .execute()
        )
        assert out.rows == [(3, 2), (1, 1), (2, 1)]

    def test_extend_and_limit(self, requests):
        out = (
            Query.from_(requests, alias="r")
            .extend("next_id", col("r.id") + lit(1))
            .limit(1)
            .execute()
        )
        assert out.rows == [(1, 1, 0, "r", 5, 2)]

    def test_distinct(self, requests):
        out = (
            Query.from_(requests, alias="r").select("r.operation").distinct().execute()
        )
        assert sorted(out.rows) == [("r",), ("w",)]

    def test_subquery_alias(self, requests):
        inner = Query.from_(requests, alias="r").select("r.ta").distinct()
        out = Query.from_(inner, alias="sub").where(
            col("sub.ta") > lit(1)
        ).execute()
        assert sorted(out.rows) == [(2,), (3,)]


class TestOptimizer:
    def test_pushdown_preserves_results(self, requests, history):
        q = (
            Query.from_(requests, alias="r")
            .join(
                Query.from_(history, alias="h"),
                on=col("r.object") == col("h.object"),
            )
            .where(
                (col("r.operation") == lit("w"))
                & (col("h.operation") == lit("w"))
            )
            .select("r.id")
        )
        optimized = q.execute(optimize=True)
        unoptimized = q.execute(optimize=False)
        assert sorted(optimized.rows) == sorted(unoptimized.rows) == [(4,)]

    def test_pushdown_visible_in_plan(self, requests, history):
        q = (
            Query.from_(requests, alias="r")
            .join(
                Query.from_(history, alias="h"),
                on=col("r.object") == col("h.object"),
            )
            .where(col("r.operation") == lit("w"))
        )
        plan = q.explain(optimize=True)
        # The filter should appear under the join, on the source side.
        join_line = next(
            i for i, line in enumerate(plan.splitlines()) if "Join" in line
        )
        filter_line = next(
            i for i, line in enumerate(plan.splitlines()) if "Filter" in line
        )
        assert filter_line > join_line

    def test_explain_unoptimized_keeps_filter_on_top(self, requests, history):
        q = (
            Query.from_(requests, alias="r")
            .join(
                Query.from_(history, alias="h"),
                on=col("r.object") == col("h.object"),
            )
            .where(col("r.operation") == lit("w"))
        )
        plan = q.explain(optimize=False)
        assert plan.splitlines()[0].startswith("Filter")
