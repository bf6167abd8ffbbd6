"""SQL frontend: lexing, parsing, planning, and Listing 1 execution."""

import random

import pytest

import repro.api as api
from repro.protocols.library import LISTING1_SQL
from repro.relalg.sql import SqlError, SqlPlanner, execute_sql
from repro.relalg.table import Table

from tests.conftest import random_scheduling_instance


@pytest.fixture
def db():
    people = Table("people", ["id", "dept", "salary"])
    people.insert_many(
        [(1, "db", 100), (2, "db", 120), (3, "os", 90), (4, "pl", 90)]
    )
    depts = Table("depts", ["dept", "floor"])
    depts.insert_many([("db", 1), ("os", 2)])
    return {"people": people, "depts": depts}


def sql(source, db):
    return execute_sql(source, db)


class TestSelectBasics:
    def test_select_star(self, db):
        out = sql("SELECT * FROM people", db)
        assert len(out) == 4 and out.schema.arity == 3

    def test_projection_and_where(self, db):
        out = sql("SELECT id FROM people WHERE dept = 'db'", db)
        assert sorted(out.rows) == [(1,), (2,)]

    def test_qualified_star(self, db):
        out = sql(
            "SELECT p.* FROM people p, depts d WHERE p.dept = d.dept", db
        )
        assert out.schema.arity == 3 and len(out) == 3

    def test_alias_with_as(self, db):
        out = sql("SELECT p.salary AS pay FROM people AS p WHERE p.id = 1", db)
        assert out.schema.names == ("pay",)
        assert out.rows == [(100,)]

    def test_distinct(self, db):
        out = sql("SELECT DISTINCT dept FROM people", db)
        assert sorted(out.rows) == [("db",), ("os",), ("pl",)]

    def test_comparison_operators(self, db):
        assert len(sql("SELECT id FROM people WHERE salary >= 100", db)) == 2
        assert len(sql("SELECT id FROM people WHERE salary <> 90", db)) == 2
        assert len(sql("SELECT id FROM people WHERE salary != 90", db)) == 2
        assert len(sql("SELECT id FROM people WHERE salary < 100", db)) == 2

    def test_and_or_parens(self, db):
        out = sql(
            "SELECT id FROM people WHERE (dept = 'db' AND salary > 110) "
            "OR dept = 'pl'",
            db,
        )
        assert sorted(out.rows) == [(2,), (4,)]

    def test_order_by(self, db):
        out = sql("SELECT id FROM people ORDER BY salary DESC, id ASC", db)
        assert [r[0] for r in out.rows] == [2, 1, 3, 4]

    def test_string_escape(self, db):
        table = Table("t", ["s"])
        table.insert(("it's",))
        out = sql("SELECT s FROM t WHERE s = 'it''s'", {"t": table})
        assert len(out) == 1


class TestJoins:
    def test_comma_join_with_where(self, db):
        out = sql(
            "SELECT p.id, d.floor FROM people p, depts d "
            "WHERE p.dept = d.dept",
            db,
        )
        assert sorted(out.rows) == [(1, 1), (2, 1), (3, 2)]

    def test_left_join_is_null(self, db):
        out = sql(
            "SELECT p.id FROM people p LEFT JOIN depts d "
            "ON p.dept = d.dept WHERE d.floor IS NULL",
            db,
        )
        assert out.rows == [(4,)]

    def test_left_join_subquery(self, db):
        out = sql(
            "SELECT p.id FROM people p LEFT JOIN "
            "(SELECT dept FROM depts WHERE floor = 1) AS ground "
            "ON p.dept = ground.dept WHERE ground.dept IS NOT NULL",
            db,
        )
        assert sorted(out.rows) == [(1,), (2,)]


class TestExists:
    def test_not_exists(self, db):
        out = sql(
            "SELECT p.id FROM people p WHERE NOT EXISTS "
            "(SELECT * FROM depts d WHERE d.dept = p.dept)",
            db,
        )
        assert out.rows == [(4,)]

    def test_exists(self, db):
        out = sql(
            "SELECT p.id FROM people p WHERE EXISTS "
            "(SELECT * FROM depts d WHERE d.dept = p.dept)",
            db,
        )
        assert sorted(out.rows) == [(1,), (2,), (3,)]

    def test_not_exists_with_or_decorrelates(self, db):
        # NOT EXISTS(P1 OR P2) == NOT EXISTS(P1) AND NOT EXISTS(P2).
        # p4 (pl, 90) survives P1 (no pl dept) and P2 (salary != 100);
        # everyone else is caught by P1, and a salary-100 pl person
        # would be caught by P2.
        out = sql(
            "SELECT p.id FROM people p WHERE NOT EXISTS "
            "(SELECT * FROM depts d WHERE d.dept = p.dept "
            " OR (d.floor = 2 AND p.salary = 100))",
            db,
        )
        assert out.rows == [(4,)]

    def test_exists_combined_with_plain_predicate(self, db):
        out = sql(
            "SELECT p.id FROM people p WHERE p.salary > 95 AND EXISTS "
            "(SELECT * FROM depts d WHERE d.dept = p.dept)",
            db,
        )
        assert sorted(out.rows) == [(1,), (2,)]

    def test_exists_under_or_rejected(self, db):
        with pytest.raises(SqlError, match="top-level conjunct"):
            sql(
                "SELECT p.id FROM people p WHERE p.id = 1 OR EXISTS "
                "(SELECT * FROM depts d WHERE d.dept = p.dept)",
                db,
            )


class TestSetOpsAndCtes:
    def test_union_all_except(self, db):
        out = sql(
            "(SELECT dept FROM people) EXCEPT (SELECT dept FROM depts)", db
        )
        assert out.rows == [("pl",)]

    def test_union_distinct(self, db):
        out = sql(
            "(SELECT dept FROM depts) UNION (SELECT dept FROM people)", db
        )
        assert len(out) == 3

    def test_with_chain(self, db):
        out = sql(
            "WITH rich AS (SELECT id, dept FROM people WHERE salary > 95), "
            "grounded AS (SELECT r.id FROM rich r, depts d "
            "             WHERE r.dept = d.dept AND d.floor = 1) "
            "SELECT * FROM grounded",
            db,
        )
        assert sorted(out.rows) == [(1,), (2,)]

    def test_semicolon_tolerated(self, db):
        assert len(sql("SELECT id FROM people;", db)) == 4


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(SqlError, match="unknown table"):
            sql("SELECT * FROM missing", db)

    def test_trailing_garbage(self, db):
        with pytest.raises(SqlError, match="trailing"):
            sql("SELECT id FROM people people2 people3", db)

    def test_unexpected_character(self, db):
        with pytest.raises(SqlError, match="unexpected character"):
            sql("SELECT id FROM people WHERE id ~ 3", db)

    def test_missing_from(self, db):
        with pytest.raises(SqlError, match="expected FROM"):
            sql("SELECT id", db)


class TestListing1:
    def test_matches_reference_on_random_instances(self):
        rng = random.Random(31)
        reference = api.make_protocol("ss2pl-listing1")
        for __ in range(15):
            requests, history = random_scheduling_instance(
                rng,
                pending=rng.randint(1, 20),
                history_transactions=rng.randint(1, 12),
            )
            ours = sorted(
                execute_sql(
                    LISTING1_SQL, {"requests": requests, "history": history}
                ).rows
            )
            expected = sorted(
                q.as_row()
                for q in reference.schedule(requests, history).qualified
            )
            assert ours == expected

    def test_planner_reusable(self, db):
        planner = SqlPlanner(db)
        a = planner.execute("SELECT id FROM people WHERE dept = 'db'")
        b = planner.execute("SELECT id FROM people WHERE dept = 'os'")
        assert len(a) == 2 and len(b) == 1
