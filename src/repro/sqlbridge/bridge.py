"""In-memory sqlite3 execution of the scheduling query."""

from __future__ import annotations

import sqlite3
from typing import Iterable, Sequence

from repro.model.request import Request

#: Listing 1 as sqlite3 will run it.  sqlite rejects the paper's text
#: (``near "(": syntax error``): ``QualifiedSS2PLOps`` parenthesises the
#: operands of its compound ``SELECT``, which sqlite's grammar does not
#: allow.  This rendition writes the ``EXCEPT`` operand as a subquery
#: over an unparenthesised ``UNION ALL``, names every CTE column with
#: ``AS``, and orders the result by id.  The protocol spec layer feeds
#: it to the sqlite backend as the ``sqlite_sql`` dialect.
LISTING1_SQLITE = """\
WITH RLockedObjects AS
 (SELECT a.object AS object, a.ta AS ta, a.operation AS operation
  FROM history a
  WHERE NOT EXISTS
   (SELECT * FROM history b
    WHERE (a.ta=b.ta AND a.object=b.object AND b.operation='w')
       OR (a.ta=b.ta AND (b.operation='a' OR b.operation='c')))),
WLockedObjects AS
 (SELECT DISTINCT a.object AS object, a.ta AS ta, a.operation AS operation
  FROM history a LEFT JOIN
   (SELECT ta FROM history
    WHERE operation='a' OR operation='c') AS finishedTAs
   ON a.ta = finishedTAs.ta
  WHERE a.operation='w' AND finishedTAs.ta IS NULL),
OperationsOnWLockedObjects AS
 (SELECT r.ta AS ta, r.intrata AS intrata
  FROM requests r, WLockedObjects wlo
  WHERE r.object=wlo.object AND r.ta<>wlo.ta),
OperationsOnRLockedObjects AS
 (SELECT wOpsOnRLObj.ta AS ta, wOpsOnRLObj.intrata AS intrata
  FROM requests wOpsOnRLObj, RLockedObjects rl
  WHERE wOpsOnRLObj.object=rl.object
    AND wOpsOnRLObj.operation='w'
    AND wOpsOnRLObj.ta<>rl.ta),
OpsOnSameObjAsPriorSelectOps AS
 (SELECT r2.ta AS ta, r2.intrata AS intrata
  FROM requests r2, requests r1
  WHERE r2.object=r1.object AND r2.ta>r1.ta
    AND ((r1.operation='w') OR (r2.operation='w'))),
QualifiedSS2PLOps AS
 (SELECT ta, intrata FROM requests
  EXCEPT
  SELECT ta, intrata FROM
   (SELECT * FROM OperationsOnWLockedObjects
    UNION ALL
    SELECT * FROM OpsOnSameObjAsPriorSelectOps
    UNION ALL
    SELECT * FROM OperationsOnRLockedObjects))
SELECT r2.id, r2.ta, r2.intrata, r2.operation, r2.object
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta=ss2PL.ta AND r2.intrata=ss2PL.intrata
ORDER BY r2.id
"""

_SCHEMA = """\
CREATE TABLE requests (
    id       INTEGER PRIMARY KEY,
    ta       INTEGER NOT NULL,
    intrata  INTEGER NOT NULL,
    operation TEXT NOT NULL,
    object   INTEGER NOT NULL
);
CREATE TABLE history (
    id       INTEGER PRIMARY KEY,
    ta       INTEGER NOT NULL,
    intrata  INTEGER NOT NULL,
    operation TEXT NOT NULL,
    object   INTEGER NOT NULL
);
CREATE INDEX history_obj ON history(object);
CREATE INDEX history_ta ON history(ta);
CREATE INDEX requests_obj ON requests(object);
"""


class SqliteScheduler:
    """Pending/history tables in an in-memory sqlite database, with the
    paper's scheduling query and batch maintenance operations.

    Mirrors the paper's measured loop (Section 4.3.1): insert the
    incoming batch into ``requests``, run the SS2PL query, delete the
    qualified rows from ``requests`` and insert them into ``history``.
    """

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- loading ---------------------------------------------------------------

    def insert_pending(self, requests: Iterable[Request]) -> None:
        self._conn.executemany(
            "INSERT INTO requests VALUES (?, ?, ?, ?, ?)",
            [r.as_row() for r in requests],
        )

    def insert_history(self, requests: Iterable[Request]) -> None:
        self._conn.executemany(
            "INSERT INTO history VALUES (?, ?, ?, ?, ?)",
            [r.as_row() for r in requests],
        )

    def load_rows(self, table: str, rows: Iterable[Sequence]) -> None:
        if table not in ("requests", "history"):
            raise ValueError(f"unknown table {table!r}")
        self._conn.executemany(
            f"INSERT INTO {table} VALUES (?, ?, ?, ?, ?)", [tuple(r) for r in rows]
        )

    def clear(self) -> None:
        self._conn.execute("DELETE FROM requests")
        self._conn.execute("DELETE FROM history")

    # -- the paper's scheduler step ---------------------------------------------

    def execute(self, sql: str) -> list[tuple]:
        """Run an arbitrary scheduling query over the loaded tables."""
        return [tuple(row) for row in self._conn.execute(sql).fetchall()]

    def qualified_requests(self) -> list[Request]:
        """Run Listing 1; returns qualified requests in id order."""
        rows = self._conn.execute(LISTING1_SQLITE).fetchall()
        return [Request.from_row(row) for row in rows]

    def scheduler_step(self, incoming: Sequence[Request]) -> list[Request]:
        """One full scheduler run as the paper times it: enqueue the
        incoming batch, query, move qualified rows requests→history."""
        self.insert_pending(incoming)
        qualified = self.qualified_requests()
        self._conn.executemany(
            "DELETE FROM requests WHERE id = ?", [(r.id,) for r in qualified]
        )
        self._conn.executemany(
            "INSERT INTO history VALUES (?, ?, ?, ?, ?)",
            [r.as_row() for r in qualified],
        )
        return qualified

    def prune_finished_history(self) -> int:
        """Remove history of committed/aborted transactions (the paper
        stores only "relevant prior executed requests")."""
        cursor = self._conn.execute(
            "DELETE FROM history WHERE ta IN "
            "(SELECT ta FROM history WHERE operation IN ('a','c'))"
        )
        return cursor.rowcount

    def counts(self) -> tuple[int, int]:
        pending = self._conn.execute("SELECT COUNT(*) FROM requests").fetchone()[0]
        history = self._conn.execute("SELECT COUNT(*) FROM history").fetchone()[0]
        return pending, history
