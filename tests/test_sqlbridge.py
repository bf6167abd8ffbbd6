"""sqlite3 bridge: loading, the paper's query, batch maintenance."""

import random
import sqlite3

import repro.api as api
from repro.protocols.spec import SPEC_REGISTRY, spec_names
from repro.sqlbridge.bridge import SqliteScheduler

from tests.conftest import (
    empty_history_table,
    empty_requests_table,
    random_scheduling_instance,
    request,
)


class TestQuery:
    def test_empty_tables_qualify_nothing(self):
        with SqliteScheduler() as backend:
            assert backend.qualified_requests() == []

    def test_simple_qualification(self):
        with SqliteScheduler() as backend:
            backend.insert_pending([request(1, 1, 0, "r", 5)])
            qualified = backend.qualified_requests()
            assert [r.id for r in qualified] == [1]

    def test_write_lock_blocks(self):
        with SqliteScheduler() as backend:
            backend.insert_history([request(1, 1, 0, "w", 5)])
            backend.insert_pending([request(2, 2, 0, "r", 5)])
            assert backend.qualified_requests() == []

    def test_matches_relalg_on_random_instances(self):
        rng = random.Random(99)
        reference = api.make_protocol("ss2pl-listing1")
        for __ in range(10):
            requests, history = random_scheduling_instance(rng)
            with SqliteScheduler() as backend:
                backend.load_rows("requests", requests.rows)
                backend.load_rows("history", history.rows)
                sql_ids = sorted(r.id for r in backend.qualified_requests())
            expected = sorted(
                r.id for r in reference.schedule(requests, history).qualified
            )
            assert sql_ids == expected


class TestSchedulerStep:
    def test_step_moves_qualified_to_history(self):
        with SqliteScheduler() as backend:
            qualified = backend.scheduler_step([request(1, 1, 0, "r", 5)])
            assert [r.id for r in qualified] == [1]
            pending, history = backend.counts()
            assert (pending, history) == (0, 1)

    def test_blocked_requests_stay_pending(self):
        with SqliteScheduler() as backend:
            backend.insert_history([request(1, 1, 0, "w", 5)])
            qualified = backend.scheduler_step([request(2, 2, 0, "w", 5)])
            assert qualified == []
            pending, history = backend.counts()
            assert (pending, history) == (1, 1)

    def test_multi_step_progression(self):
        with SqliteScheduler() as backend:
            backend.insert_history([request(1, 1, 0, "w", 5)])
            backend.scheduler_step([request(2, 2, 0, "w", 5)])
            # T1 commits; next step frees T2's write.
            backend.scheduler_step([request(3, 1, 1, "c")])
            backend.prune_finished_history()
            qualified = backend.scheduler_step([])
            assert [r.id for r in qualified] == [2]

    def test_prune_finished_history(self):
        with SqliteScheduler() as backend:
            backend.insert_history(
                [
                    request(1, 1, 0, "w", 5),
                    request(2, 1, 1, "c"),
                    request(3, 2, 0, "w", 6),
                ]
            )
            removed = backend.prune_finished_history()
            assert removed == 2
            assert backend.counts() == (0, 1)

    def test_load_rows_validates_table(self):
        import pytest

        with SqliteScheduler() as backend:
            with pytest.raises(ValueError, match="unknown table"):
                backend.load_rows("other", [])

    def test_clear(self):
        with SqliteScheduler() as backend:
            backend.insert_pending([request(1, 1, 0, "r", 5)])
            backend.insert_history([request(2, 2, 0, "w", 6)])
            backend.clear()
            assert backend.counts() == (0, 0)


class TestSpecSqlVerbatim:
    """Every shipped spec's ``sql`` text, run on sqlite3 as written.

    A spec carries a ``sqlite_sql`` rendition only because sqlite3
    cannot parse its text; when sqlite learns to, the rendition goes."""

    def test_only_listing1_needs_a_sqlite_rendition(self):
        rejected = set()
        for name in spec_names():
            spec = SPEC_REGISTRY[name]
            if spec.sql is None:
                continue
            with SqliteScheduler() as backend:
                backend.insert_history([request(1, 1, 0, "w", 5)])
                backend.insert_pending([request(2, 2, 0, "r", 5)])
                try:
                    backend.execute(spec.sql)
                except sqlite3.OperationalError:
                    rejected.add(name)
        with_rendition = {
            name
            for name in spec_names()
            if SPEC_REGISTRY[name].sqlite_sql is not None
        }
        assert rejected == with_rendition == {"ss2pl", "ss2pl-listing1"}
