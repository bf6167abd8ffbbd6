"""Optimizer soundness: optimized and unoptimized plans agree.

Covers the rewrites that matter for the paper's workloads — predicate
pushdown, join-predicate merging (comma joins) and NOT EXISTS
decorrelation — on randomized instances, plus the SQL frontend against
sqlite3 as an independent oracle for Listing 1.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.library import LISTING1_SQL
from repro.relalg.expressions import col, lit
from repro.relalg.query import Query
from repro.relalg.relation import rows_equal_as_bags
from repro.relalg.sql import SqlPlanner
from repro.relalg.table import Table
from repro.sqlbridge.bridge import SqliteScheduler

from tests.conftest import random_scheduling_instance

small = st.integers(0, 4)
rows3 = st.lists(st.tuples(small, small, small), max_size=20)


def table(name, rows):
    t = Table(name, ["a", "b", "c"])
    t.insert_many(rows)
    return t


class TestPlanEquivalence:
    @given(rows3, rows3)
    @settings(max_examples=80, deadline=None)
    def test_filter_over_join_pushdown(self, left_rows, right_rows):
        t1 = table("t1", left_rows)
        t2 = table("t2", right_rows)
        q = (
            Query.from_(t1, alias="x")
            .join(Query.from_(t2, alias="y"), on=None)
            .where(
                (col("x.a") == col("y.a"))
                & (col("x.b") > lit(1))
                & (col("y.c") < lit(3))
            )
        )
        optimized = q.execute(optimize=True)
        plain = q.execute(optimize=False)
        assert rows_equal_as_bags(optimized.rows, plain.rows)

    @given(rows3, rows3)
    @settings(max_examples=60, deadline=None)
    def test_anti_join_residual(self, left_rows, right_rows):
        t1 = table("t1", left_rows)
        t2 = table("t2", right_rows)
        q = Query.from_(t1, alias="x").anti_join(
            Query.from_(t2, alias="y"),
            on=(col("x.a") == col("y.a")) & (col("y.b") > col("x.b")),
        )
        # Reference: brute-force NOT EXISTS.
        kept = [
            lr
            for lr in left_rows
            if not any(
                lr[0] == rr[0] and rr[1] > lr[1] for rr in right_rows
            )
        ]
        assert rows_equal_as_bags(q.execute().rows, kept)


class TestSqlFrontendAgainstSqlite:
    def test_listing1_agrees_with_sqlite(self):
        rng = random.Random(77)
        for __ in range(10):
            requests, history = random_scheduling_instance(
                rng,
                pending=rng.randint(1, 25),
                history_transactions=rng.randint(1, 15),
            )
            ours = sorted(
                SqlPlanner(
                    {"requests": requests, "history": history}
                ).execute(LISTING1_SQL).rows
            )
            with SqliteScheduler() as backend:
                backend.load_rows("requests", requests.rows)
                backend.load_rows("history", history.rows)
                theirs = sorted(
                    r.as_row() for r in backend.qualified_requests()
                )
            assert ours == theirs

    def test_simple_queries_agree_with_sqlite(self):
        import sqlite3

        rng = random.Random(13)
        requests, history = random_scheduling_instance(rng, pending=20)
        queries = [
            "SELECT ta, intrata FROM requests WHERE operation = 'w'",
            "SELECT DISTINCT operation FROM requests",
            "SELECT r.id FROM requests r, history h "
            "WHERE r.object = h.object AND r.ta <> h.ta",
            "SELECT ta FROM requests EXCEPT SELECT ta FROM history",
            "SELECT id FROM requests ORDER BY object DESC, id ASC",
        ]
        conn = sqlite3.connect(":memory:")
        conn.execute(
            "CREATE TABLE requests (id INT, ta INT, intrata INT, "
            "operation TEXT, object INT)"
        )
        conn.execute(
            "CREATE TABLE history (id INT, ta INT, intrata INT, "
            "operation TEXT, object INT)"
        )
        conn.executemany(
            "INSERT INTO requests VALUES (?,?,?,?,?)", requests.rows
        )
        conn.executemany(
            "INSERT INTO history VALUES (?,?,?,?,?)", history.rows
        )
        planner = SqlPlanner({"requests": requests, "history": history})
        for query in queries:
            ours = sorted(planner.execute(query).rows)
            theirs = sorted(tuple(r) for r in conn.execute(query).fetchall())
            assert ours == theirs, query
        conn.close()
