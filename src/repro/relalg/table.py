"""Mutable base tables with hash indexes.

The scheduler's ``requests`` (pending) and ``history`` stores are
instances of :class:`Table`.  Tables support batch insert/delete — the
paper empties the incoming queue "as a batch job" into the pending table
and moves qualified requests into history the same way (Section 3.3) —
and maintain optional hash indexes used by index-nested-loop joins.
"""

from __future__ import annotations

import operator
import weakref
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.relalg.relation import Relation
from repro.relalg.schema import Column, Schema


class TableError(Exception):
    """Raised for arity mismatches and unknown index columns."""


class DeltaCursor:
    """An O(1) consumer position into a table's delta journal.

    A cursor records the absolute journal offset its owner has consumed
    up to; :meth:`take` returns everything appended since, advances the
    cursor to the journal's end in O(1), and lets the table prune the
    consumed prefix eagerly.  The table holds cursors weakly — when the
    owning consumer (a cached build, a delta plan) is collected, its
    cursor dies with it and journaling stops once no consumer remains.

    ``take()`` returns ``None`` when the cursor's span is gone (journal
    truncation overtook a laggard, or :meth:`Table.clear` replaced the
    contents); the consumer must then rebuild from :attr:`Table.rows`.
    The cursor is repositioned at the journal's end either way, so the
    rebuild-then-resume sequence needs no extra bookkeeping.
    """

    __slots__ = ("table", "epoch", "position", "__weakref__")

    def __init__(self, table: "Table") -> None:
        self.table = table
        self.epoch = table._log_epoch
        self.position = table._log_base + len(table._log)

    def take(self) -> Optional[list[tuple[bool, tuple]]]:
        """Entries appended since the last take (advancing past them),
        or ``None`` when the span is gone and the owner must rebuild."""
        return self.table._take_since(self)


def row_projector(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """Tuple-producing projector (itemgetter except for arity 1/0)."""
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


class HashIndex:
    """Equality hash index over one or more columns of a table."""

    __slots__ = ("positions", "buckets", "key_of")

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(positions)
        self.buckets: dict[tuple, list[tuple]] = {}
        #: row -> its key in ``buckets`` (always a tuple).
        self.key_of = row_projector(self.positions)

    def add(self, row: tuple) -> None:
        self.buckets.setdefault(self.key_of(row), []).append(row)

    def remove(self, row: tuple) -> None:
        key = self.key_of(row)
        bucket = self.buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(row)
        except ValueError:
            return
        if not bucket:
            del self.buckets[key]

    def lookup(self, key: tuple) -> list[tuple]:
        return self.buckets.get(key, [])

    def clear(self) -> None:
        self.buckets.clear()


class Table:
    """A named, mutable bag of rows with a fixed schema.

    >>> t = Table("requests", ["id", "ta", "intrata", "operation", "object"])
    >>> t.insert((1, 7, 0, "r", 42))
    >>> len(t)
    1
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str | Column],
        rows: Iterable[tuple] = (),
    ) -> None:
        self.name = name
        self.schema = Schema(
            [c if isinstance(c, Column) else Column(c, name) for c in columns]
        )
        self._rows: list[tuple] = []
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        # Delta journal: (added, row) entries.  Cached physical-plan and
        # delta-plan state (repro.relalg.plan / repro.relalg.delta)
        # replays it to stay in sync with the table instead of
        # rebuilding per step.  Positions are *absolute* (``_log_base``
        # is the offset of ``_log[0]``), so the consumed prefix can be
        # pruned without moving anyone's mark; the epoch bumps only when
        # the table's contents are replaced wholesale (``clear``).
        # Recording starts lazily on the first delta_cursor() call, so
        # tables with no journal consumer pay nothing per mutation.
        self._log: list[tuple[bool, tuple]] = []
        self._log_base = 0
        self._log_epoch = 0
        self._log_enabled = False
        # Weak references to the live :class:`DeltaCursor` consumers:
        # when the last one is collected, journaling stops and the log
        # is pruned, so a table never accumulates deltas for plans that
        # no longer exist.
        self._log_consumers: list[weakref.ref] = []
        self.insert_many(rows)

    # -- mutation ---------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> None:
        if len(row) != self.schema.arity:
            raise TableError(
                f"{self.name}: row arity {len(row)} != schema arity "
                f"{self.schema.arity}"
            )
        tup = tuple(row)
        self._rows.append(tup)
        if self._log_enabled:
            self._log.append((True, tup))
            self._maybe_compact_log()
        for index in self._indexes.values():
            index.add(tup)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete all rows satisfying *predicate*; returns rows removed."""
        kept: list[tuple] = []
        removed: list[tuple] = []
        for row in self._rows:
            (removed if predicate(row) else kept).append(row)
        if removed:
            self._rows = kept
            if self._log_enabled:
                self._log.extend((False, row) for row in removed)
                self._maybe_compact_log()
            self._unindex(removed)
        return len(removed)

    def delete_rows(self, rows: Iterable[tuple]) -> int:
        """Bag-delete specific rows (each listed row removes one copy)."""
        to_remove: dict[tuple, int] = {}
        for row in rows:
            to_remove[tuple(row)] = to_remove.get(tuple(row), 0) + 1
        if not to_remove:
            return 0
        kept: list[tuple] = []
        removed: list[tuple] = []
        for row in self._rows:
            pending = to_remove.get(row, 0)
            if pending > 0:
                to_remove[row] = pending - 1
                removed.append(row)
            else:
                kept.append(row)
        if removed:
            self._rows = kept
            self._unindex(removed)
            if self._log_enabled:
                self._log.extend((False, row) for row in removed)
                self._maybe_compact_log()
        return len(removed)

    def clear(self) -> None:
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        self._log_base += len(self._log)
        self._log.clear()
        self._log_epoch += 1

    # -- delta journal ----------------------------------------------------

    def delta_cursor(self) -> DeltaCursor:
        """A new :class:`DeltaCursor` positioned at the journal's end.

        The first cursor turns journaling on; mutations before that
        are never needed (a consumer full-builds from :attr:`rows`
        before its first take).  The cursor doubles as the
        journal-lifetime token: the table holds it weakly — journaling
        stops and the log is pruned when the last one is collected —
        and uses live cursor positions to prune the consumed journal
        prefix eagerly."""
        cursor = DeltaCursor(self)
        self._log_consumers.append(
            weakref.ref(cursor, self._on_consumer_collected)
        )
        self._log_enabled = True
        return cursor

    def _on_consumer_collected(self, ref: weakref.ref) -> None:
        try:
            self._log_consumers.remove(ref)
        except ValueError:  # pragma: no cover - defensive
            pass
        if not self._log_consumers:
            self._log_enabled = False
            self._log_base += len(self._log)
            self._log.clear()
            self._log_epoch += 1

    def _take_since(
        self, cursor: DeltaCursor
    ) -> Optional[list[tuple[bool, tuple]]]:
        end = self._log_base + len(self._log)
        if cursor.epoch != self._log_epoch or cursor.position < self._log_base:
            cursor.epoch = self._log_epoch
            cursor.position = end
            self._prune_consumed()
            return None
        entries = self._log[cursor.position - self._log_base:]
        cursor.position = end
        if entries:
            self._prune_consumed()
        return entries

    def _prune_consumed(self) -> None:
        """Drop the journal prefix every live consumer has consumed.

        O(consumers) per take — consumers are a handful of plans, not
        rows."""
        low: Optional[int] = None
        for ref in self._log_consumers:
            consumer = ref()
            if consumer is None:
                continue
            if consumer.epoch != self._log_epoch:
                return  # stale cursor; its next take() resynchronizes
            position = (
                consumer.position if low is None
                else min(low, consumer.position)
            )
            low = position
        if low is None:
            return
        drop = low - self._log_base
        if drop > 0:
            del self._log[:drop]
            self._log_base = low

    def _maybe_compact_log(self) -> None:
        # Keep the journal bounded at max(256, 4·|rows|).  First truncate
        # up to the freshest live cursor: consumers at that position stay
        # valid, laggards behind it will rebuild.  If the entries since
        # even the freshest cursor exceed the bound — one step's churn
        # on a small table, such as a pending table that inserts and
        # deletes more rows between two steps than four times what it
        # holds — drop them all, which invalidates *every* cursor, the
        # freshest included: each consumer's next take() returns None
        # and its plan rebuilds from the table contents.  That branch is
        # why a small pending table beside a large history (the
        # ledger's deep-history) rebuilds its delta plan every other
        # step.
        if len(self._log) <= max(256, 4 * len(self._rows)):
            return
        high = self._log_base
        for ref in self._log_consumers:
            consumer = ref()
            if consumer is not None and consumer.epoch == self._log_epoch:
                high = max(high, consumer.position)
        drop = high - self._log_base
        if drop > 0:
            del self._log[:drop]
            self._log_base = high
        if len(self._log) > max(256, 4 * len(self._rows)):
            # Even the freshest cursor lags beyond the bound: drop all.
            self._log_base += len(self._log)
            self._log.clear()

    # -- indexing ---------------------------------------------------------

    def create_index(self, *column_names: str) -> None:
        """Create (or refresh) a hash index over the given columns."""
        positions = [self.schema.resolve(n) for n in column_names]
        index = HashIndex(positions)
        for row in self._rows:
            index.add(row)
        self._indexes[tuple(column_names)] = index

    def index_on(self, *column_names: str) -> Optional[HashIndex]:
        return self._indexes.get(tuple(column_names))

    def lookup(self, column_names: Sequence[str], key: Sequence[Any]) -> list[tuple]:
        """Index lookup; falls back to a scan when no index exists."""
        index = self._indexes.get(tuple(column_names))
        if index is not None:
            return list(index.lookup(tuple(key)))
        positions = [self.schema.resolve(n) for n in column_names]
        key_t = tuple(key)
        return [
            row
            for row in self._rows
            if tuple(row[p] for p in positions) == key_t
        ]

    def _unindex(self, removed: Sequence[tuple]) -> None:
        # Deletes cost what was deleted: each index drops exactly the
        # removed rows from their buckets.  ``removed`` is in table
        # order and a bucket drops its first equal copy, so surviving
        # rows keep insertion order inside every bucket; the
        # ``buckets`` dict itself is mutated in place because compiled
        # plans hold it live (``repro.relalg.plan._IndexBuild``).
        for index in self._indexes.values():
            for row in removed:
                index.remove(row)

    # -- reading ----------------------------------------------------------

    def as_relation(self, alias: Optional[str] = None) -> Relation:
        """Snapshot the table as a relation, optionally re-qualified.

        The row list is copied — O(|rows|) — so the relation stays what
        the table held at this call whatever is inserted or deleted
        later; the row tuples themselves are shared (operators never
        mutate input rows).  :attr:`rows` is the live list.
        """
        schema = self.schema.qualify(alias) if alias else self.schema
        return Relation(schema, list(self._rows))

    @property
    def rows(self) -> list[tuple]:
        return self._rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._rows)} rows)"


class Catalog:
    """A named collection of tables — the scheduler's "database"."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create(self, name: str, columns: Sequence[str | Column]) -> Table:
        if name in self._tables:
            raise TableError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> list[str]:
        return sorted(self._tables)
