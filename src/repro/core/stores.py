"""Pending-request and history stores on relational tables.

Both stores use the paper's Table 2 schema.  Because the Table 2 row
carries only scheduling-relevant columns, the stores keep the request
side-car attributes (client, SLA class, deadline) in an ``attrs_by_id``
map exposed on the table object, so SLA protocols can re-hydrate
qualified rows into full :class:`~repro.model.request.Request` objects.
"""

from __future__ import annotations

from typing import Iterable

from repro.model.request import Request, RequestAttributes, TransactionStatus
from repro.relalg.table import Table

#: The paper's Table 2 columns.
REQUEST_COLUMNS = ("id", "ta", "intrata", "operation", "object")


def _new_table(name: str) -> Table:
    table = Table(name, list(REQUEST_COLUMNS))
    table.attrs_by_id = {}  # type: ignore[attr-defined]
    return table


def empty_table2_stores() -> tuple[Table, Table]:
    """Fresh, empty ``(requests, history)`` tables on the Table 2 schema.

    What a spec's plan is built against when only its *shape* matters:
    trial lowering, static analysis.  No indexes, no rows.
    """
    return _new_table("requests"), _new_table("history")


class PendingStore:
    """The pending-request database."""

    def __init__(self) -> None:
        self.table = _new_table("requests")
        self.table.create_index("ta")
        # Listing 1's intra-batch self-join keys on object; the compiled
        # plan (repro.relalg.plan) probes this index directly instead of
        # rebuilding a hash table per scheduler step.
        self.table.create_index("object")

    def insert_batch(self, requests: Iterable[Request]) -> int:
        count = 0
        for request in requests:
            self.table.insert(request.as_row())
            self.table.attrs_by_id[request.id] = request.attrs
            count += 1
        return count

    def remove(self, requests: Iterable[Request]) -> int:
        requests = list(requests)  # iterated twice; may be a generator
        removed = self.table.delete_rows([r.as_row() for r in requests])
        for request in requests:
            self.table.attrs_by_id.pop(request.id, None)
        return removed

    def attrs_of(self, request_id: int) -> RequestAttributes:
        return self.table.attrs_by_id.get(request_id, RequestAttributes())

    def rehydrate(self, request: Request) -> Request:
        """Re-attach side-car attributes to a request reconstructed from
        a Table 2 row."""
        attrs = self.table.attrs_by_id.get(request.id)
        if attrs is None:
            return request
        return Request(
            request.id,
            request.ta,
            request.intrata,
            request.operation,
            request.obj,
            attrs,
        )

    def __len__(self) -> int:
        return len(self.table)


class HistoryStore:
    """The history database of relevant prior executed requests.

    Tracks transaction status incrementally so pruning (dropping rows of
    finished transactions — the paper keeps only "relevant" requests)
    is a single pass.
    """

    def __init__(self) -> None:
        self.table = _new_table("history")
        self.table.create_index("ta")
        self.table.create_index("object")
        self._status: dict[int, TransactionStatus] = {}
        #: Committed/aborted transactions not yet pruned, kept as
        #: ``record_batch`` learns them.
        self._finished: set[int] = set()
        self.total_recorded = 0

    def record_batch(self, requests: Iterable[Request]) -> int:
        count = 0
        for request in requests:
            self.table.insert(request.as_row())
            self.table.attrs_by_id[request.id] = request.attrs
            self._status.setdefault(request.ta, TransactionStatus.ACTIVE)
            if request.is_commit:
                self._status[request.ta] = TransactionStatus.COMMITTED
                self._finished.add(request.ta)
            elif request.is_abort:
                self._status[request.ta] = TransactionStatus.ABORTED
                self._finished.add(request.ta)
            count += 1
        self.total_recorded += count
        return count

    def status(self, ta: int) -> TransactionStatus:
        return self._status.get(ta, TransactionStatus.ACTIVE)

    @property
    def active_transactions(self) -> set[int]:
        return {
            ta
            for ta, status in self._status.items()
            if status is TransactionStatus.ACTIVE
        }

    @property
    def finished_transactions(self) -> set[int]:
        """Committed/aborted transactions not yet pruned."""
        return set(self._finished)

    def prune_finished(self) -> set[int]:
        """Drop rows of committed/aborted transactions; returns the
        transactions dropped."""
        finished = self._finished
        if finished:
            self._finished = set()
            by_ta = self.table.index_on("ta")
            ta_pos = self.table.schema.resolve("ta")
            id_pos = self.table.schema.resolve("id")
            for ta in finished:
                for row in by_ta.lookup((ta,)):
                    self.table.attrs_by_id.pop(row[id_pos], None)
                del self._status[ta]
            self.table.delete_where(lambda row: row[ta_pos] in finished)
        return finished

    def __len__(self) -> int:
        return len(self.table)
