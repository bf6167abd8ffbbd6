"""Table storage, indexes and the catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relalg.table import Catalog, Table, TableError


@pytest.fixture
def table() -> Table:
    t = Table("t", ["id", "ta", "object"])
    t.insert_many([(1, 10, 5), (2, 10, 6), (3, 11, 5)])
    return t


class TestMutation:
    def test_insert_checks_arity(self, table):
        with pytest.raises(TableError, match="arity"):
            table.insert((4, 12))

    def test_delete_where(self, table):
        removed = table.delete_where(lambda row: row[1] == 10)
        assert removed == 2
        assert len(table) == 1

    def test_delete_rows_bag_semantics(self):
        t = Table("t", ["a"])
        t.insert_many([(1,), (1,), (2,)])
        assert t.delete_rows([(1,)]) == 1
        assert sorted(t.rows) == [(1,), (2,)]

    def test_delete_missing_row_is_noop(self, table):
        assert table.delete_rows([(99, 99, 99)]) == 0

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0


class TestIndexes:
    def test_lookup_with_index(self, table):
        table.create_index("ta")
        assert sorted(table.lookup(["ta"], [10])) == [(1, 10, 5), (2, 10, 6)]

    def test_lookup_without_index_scans(self, table):
        assert sorted(table.lookup(["object"], [5])) == [(1, 10, 5), (3, 11, 5)]

    def test_index_maintained_on_insert(self, table):
        table.create_index("ta")
        table.insert((4, 10, 7))
        assert len(table.lookup(["ta"], [10])) == 3

    def test_index_maintained_on_delete(self, table):
        table.create_index("ta")
        table.delete_where(lambda row: row[0] == 1)
        assert len(table.lookup(["ta"], [10])) == 1

    def test_composite_index(self, table):
        table.create_index("ta", "object")
        assert table.lookup(["ta", "object"], [11, 5]) == [(3, 11, 5)]

    def test_unknown_index_column(self, table):
        with pytest.raises(Exception):
            table.create_index("nope")


class TestRelationView:
    def test_as_relation_snapshot(self, table):
        relation = table.as_relation()
        assert relation.cardinality == 3
        assert relation.schema.resolve("ta", "t") == 1

    def test_as_relation_with_alias(self, table):
        relation = table.as_relation("x")
        assert relation.schema.resolve("ta", "x") == 1

    def test_column_values(self, table):
        assert table.as_relation().column_values("ta") == [10, 10, 11]

    def test_snapshot_ignores_later_inserts_and_deletes(self, table):
        # The live list would take the insert (append) and miss the
        # delete (which rebinds the list): a state the table never held.
        before = list(table.rows)
        snapshot = table.as_relation()
        table.insert((4, 12, 7))
        table.delete_rows([(1, 10, 5)])
        assert snapshot.rows == before
        snapshot = table.as_relation()
        table.insert((5, 12, 8))
        table.delete_where(lambda row: row[0] == 2)
        assert snapshot.rows == [(2, 10, 6), (3, 11, 5), (4, 12, 7)]
        assert table.rows == [(3, 11, 5), (4, 12, 7), (5, 12, 8)]


class TestCatalog:
    def test_create_get_drop(self):
        catalog = Catalog()
        created = catalog.create("t", ["a"])
        assert catalog.get("t") is created
        assert "t" in catalog
        catalog.drop("t")
        assert "t" not in catalog

    def test_duplicate_create_rejected(self):
        catalog = Catalog()
        catalog.create("t", ["a"])
        with pytest.raises(TableError, match="already exists"):
            catalog.create("t", ["a"])

    def test_unknown_get_raises(self):
        with pytest.raises(TableError, match="unknown table"):
            Catalog().get("missing")


class TestDeltaJournalLifetime:
    """A table must not accumulate journal deltas for consumers that no
    longer exist (regression: a registered-then-dropped compiled plan
    used to leave journaling on forever)."""

    def test_journal_records_while_consumer_alive(self, table):
        cursor = table.delta_cursor()
        table.insert((4, 12, 7))
        assert cursor.take() == [(True, (4, 12, 7))]

    def test_journal_pruned_after_consumer_dropped(self, table):
        import gc

        cursor = table.delta_cursor()
        mark = (cursor.epoch, cursor.position)
        table.insert((4, 12, 7))
        assert table._log  # journaling active
        del cursor
        gc.collect()
        assert table._log == []  # pruned immediately, not on next write
        assert table._log_enabled is False
        for i in range(300):
            table.insert((100 + i, 13, 8))
        assert table._log == []  # and never grows again
        # The old marker span is gone: a late reader must rebuild.
        late = table.delta_cursor()
        late.epoch, late.position = mark
        assert late.take() is None

    def test_journal_survives_while_one_of_two_consumers_lives(self, table):
        import gc

        first, second = table.delta_cursor(), table.delta_cursor()
        del first
        gc.collect()
        table.insert((4, 12, 7))
        assert table._log_enabled is True
        assert table._log  # still recording for the survivor
        assert second.take() == [(True, (4, 12, 7))]

    def test_compiled_plan_is_a_registered_consumer(self):
        """End-to-end: a PlanCache-owned plan keeps the journal alive;
        dropping the cache and plan prunes it."""
        import gc

        from repro.relalg.expressions import col, lit
        from repro.relalg.plan import PlanCache
        from repro.relalg.query import Query

        requests = Table(
            "requests", ["id", "ta", "intrata", "operation", "object"]
        )
        history = Table(
            "history", ["id", "ta", "intrata", "operation", "object"]
        )

        def build(requests, history):
            finished = (
                Query.from_(history, alias="f")
                .where(col("f.operation") == lit("c"))
                .select("f.ta")
                .distinct()
            )
            return Query.from_(requests, alias="r").anti_join(
                Query.from_(finished, alias="fin"),
                on=col("r.ta") == col("fin.ta"),
            )

        cache = PlanCache(build)
        plan = cache.get(requests, history)
        plan.execute()
        history.insert((1, 1, 0, "c", -1))
        plan.execute()
        assert history._log_consumers  # the cached build registered
        del plan
        cache.clear()
        gc.collect()
        assert history._log_consumers == []
        assert history._log_enabled is False
        history.insert((2, 2, 0, "c", -1))
        assert history._log == []


# -- deletes maintain the indexes incrementally -------------------------------

INDEXES = (("ta",), ("object",), ("ta", "object"))

_cell = st.integers(0, 2)
_row = st.tuples(st.integers(0, 3), _cell, _cell)  # few values: duplicates
_operation = st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("delete_rows"), st.lists(_row, max_size=4)),
    # delete_where(row[column] == value)
    st.tuples(st.just("delete_where"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("take")),
)


def _fresh_buckets(rows, columns):
    fresh = Table("t", ["id", "ta", "object"], rows)
    fresh.create_index(*columns)
    return fresh.index_on(*columns).buckets


class TestDeletesMaintainIndexes:
    @given(st.lists(_row, max_size=12), st.lists(_operation, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_indexes_rows_and_journal_track_a_list_model(self, initial, script):
        table = Table("t", ["id", "ta", "object"], initial)
        for columns in INDEXES:
            table.create_index(*columns)
        held = {c: table.index_on(*c).buckets for c in INDEXES}
        cursor = table.delta_cursor()
        model = list(initial)  # the table as a plain insertion-ordered list
        journal = []  # what a rebuild-everything delete would have logged
        for operation in script:
            kind = operation[0]
            if kind == "insert":
                table.insert(operation[1])
                model.append(operation[1])
                journal.append((True, operation[1]))
            elif kind == "delete_rows":
                doomed = list(operation[1])
                kept = []
                for row in model:
                    if row in doomed:
                        doomed.remove(row)
                        journal.append((False, row))
                    else:
                        kept.append(row)
                assert table.delete_rows(operation[1]) == len(model) - len(kept)
                model = kept
            elif kind == "delete_where":
                __, column, value = operation
                gone = [row for row in model if row[column] == value]
                journal.extend((False, row) for row in gone)
                model = [row for row in model if row[column] != value]
                assert table.delete_where(lambda r: r[column] == value) == len(gone)
            else:
                assert cursor.take() == journal
                journal = []
            assert table.rows == model
            for columns in INDEXES:
                index = table.index_on(*columns)
                # Compiled plans hold the buckets dict live.
                assert index.buckets is held[columns]
                # Same keys, same rows, same order inside each bucket.
                assert index.buckets == _fresh_buckets(model, columns)
        assert cursor.take() == journal
