"""Schedules and classical correctness criteria.

The scheduler's contract (paper Section 1, constraint (1)) is that the
order in which it releases requests to the server satisfies a correctness
criterion — classically *conflict serializability*, and for SS2PL also
*strictness*.  This module provides an executable version of those
textbook definitions (Weikum & Vossen, the paper's reference [23]) so the
test suite can verify every schedule our schedulers emit.

A :class:`Schedule` is simply an ordered sequence of
:class:`~repro.model.request.Request` objects — the *output* order of a
scheduler, i.e. the order requests are submitted to the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import networkx as nx

from repro.model.request import Operation, Request


def conflicts(a: Request, b: Request) -> bool:
    """True iff requests *a* and *b* conflict (same object, different
    transactions, at least one write)."""
    return a.conflicts_with(b)


@dataclass
class Schedule:
    """An ordered sequence of requests, with transaction-level views.

    The class is intentionally a thin, append-only container: schedulers
    append requests as they release them, and the analysis functions below
    interpret the sequence.
    """

    requests: list[Request] = field(default_factory=list)

    def append(self, request: Request) -> None:
        self.requests.append(request)

    def extend(self, batch: Iterable[Request]) -> None:
        self.requests.extend(batch)

    @property
    def transactions(self) -> list[int]:
        """Transaction numbers in order of first appearance."""
        seen: dict[int, None] = {}
        for request in self.requests:
            seen.setdefault(request.ta, None)
        return list(seen)

    @property
    def committed(self) -> set[int]:
        return {r.ta for r in self.requests if r.is_commit}

    @property
    def aborted(self) -> set[int]:
        return {r.ta for r in self.requests if r.is_abort}

    @property
    def active(self) -> set[int]:
        terminated = self.committed | self.aborted
        return {r.ta for r in self.requests if r.ta not in terminated}

    def committed_projection(self) -> "Schedule":
        """The sub-schedule containing only requests of committed
        transactions — the object of the serializability definitions."""
        committed = self.committed
        return Schedule([r for r in self.requests if r.ta in committed])

    def of_transaction(self, ta: int) -> list[Request]:
        return [r for r in self.requests if r.ta == ta]

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __str__(self) -> str:
        return " ".join(str(r) for r in self.requests)


def conflict_graph(schedule: Schedule) -> nx.DiGraph:
    """Conflict (serialization) graph of the committed projection.

    Nodes are transaction numbers; an edge ``ti -> tj`` exists when some
    request of ``ti`` precedes and conflicts with a request of ``tj``.
    """
    # Imported where a graph is built: networkx is ~20 MB resident and a
    # scheduler that only schedules never builds one.
    import networkx as nx

    committed = schedule.committed_projection()
    graph = nx.DiGraph()
    graph.add_nodes_from(committed.transactions)
    data_accesses = [r for r in committed if r.operation.is_data_access]
    # Group by object so we only compare requests that can possibly conflict.
    by_object: dict[int, list[Request]] = {}
    for request in data_accesses:
        by_object.setdefault(request.obj, []).append(request)
    for accesses in by_object.values():
        for i, earlier in enumerate(accesses):
            for later in accesses[i + 1 :]:
                if earlier.conflicts_with(later):
                    graph.add_edge(earlier.ta, later.ta)
    return graph


def is_conflict_serializable(schedule: Schedule) -> bool:
    """Conflict-serializability (CSR) test: the conflict graph is acyclic."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(conflict_graph(schedule))


def serialization_order(schedule: Schedule) -> Optional[list[int]]:
    """A topological order of the conflict graph (an equivalent serial
    schedule), or None when the schedule is not conflict-serializable."""
    import networkx as nx

    graph = conflict_graph(schedule)
    if not nx.is_directed_acyclic_graph(graph):
        return None
    return list(nx.topological_sort(graph))


def _termination_index(schedule: Schedule) -> dict[int, int]:
    """Map ta -> position of its commit/abort request (if any)."""
    positions: dict[int, int] = {}
    for index, request in enumerate(schedule):
        if request.operation.is_termination:
            positions[request.ta] = index
    return positions


def _reads_from_pairs(schedule: Schedule) -> list[tuple[int, int, int, int]]:
    """All (reader_pos, reader_ta, writer_ta, obj) where the reader reads
    *obj* from the writer (the last preceding writer of obj in another
    transaction, with no abort of the writer in between)."""
    pairs: list[tuple[int, int, int, int]] = []
    last_writer: dict[int, tuple[int, int]] = {}  # obj -> (writer_ta, pos)
    aborted_before: dict[int, set[int]] = {}
    aborted: set[int] = set()
    for pos, request in enumerate(schedule):
        if request.is_abort:
            aborted.add(request.ta)
        elif request.is_write:
            last_writer[request.obj] = (request.ta, pos)
        elif request.is_read:
            writer = last_writer.get(request.obj)
            if writer is not None and writer[0] != request.ta:
                if writer[0] not in aborted:
                    pairs.append((pos, request.ta, writer[0], request.obj))
        aborted_before[pos] = set(aborted)
    return pairs


def is_recoverable(schedule: Schedule) -> bool:
    """Recoverability (RC): whenever tj reads from ti and commits, ti
    committed before tj's commit."""
    terminations = _termination_index(schedule)
    commits = {r.ta: pos for pos, r in enumerate(schedule) if r.is_commit}
    for __, reader, writer, __obj in _reads_from_pairs(schedule):
        reader_commit = commits.get(reader)
        if reader_commit is None:
            continue
        writer_commit = commits.get(writer)
        if writer_commit is None or writer_commit > reader_commit:
            return False
    # Reading from a later-aborted transaction and committing also
    # violates recoverability.
    aborts = {r.ta: pos for pos, r in enumerate(schedule) if r.is_abort}
    for read_pos, reader, writer, __obj in _reads_from_pairs(schedule):
        reader_commit = commits.get(reader)
        writer_abort = aborts.get(writer)
        if reader_commit is not None and writer_abort is not None:
            return False
    del terminations
    return True


def is_avoiding_cascading_aborts(schedule: Schedule) -> bool:
    """ACA: transactions read only from committed transactions."""
    commits = {r.ta: pos for pos, r in enumerate(schedule) if r.is_commit}
    for read_pos, __reader, writer, __obj in _reads_from_pairs(schedule):
        writer_commit = commits.get(writer)
        if writer_commit is None or writer_commit > read_pos:
            return False
    return True


def is_strict(schedule: Schedule) -> bool:
    """Strictness (ST): no read *or overwrite* of an object written by a
    transaction that has not yet terminated."""
    termination_pos = _termination_index(schedule)
    writes: dict[int, list[tuple[int, int]]] = {}  # obj -> [(pos, ta)]
    for pos, request in enumerate(schedule):
        if not request.operation.is_data_access:
            continue
        for write_pos, writer in writes.get(request.obj, ()):
            if writer == request.ta:
                continue
            term = termination_pos.get(writer)
            if term is None or term > pos:
                return False
        if request.is_write:
            writes.setdefault(request.obj, []).append((pos, request.ta))
    return True


def is_legal_ss2pl_order(schedule: Schedule) -> bool:
    """Check that a schedule could have been produced under SS2PL.

    Under strong strict 2PL every lock is held until the owning
    transaction terminates.  Operationally this means: once transaction
    *ti* accessed object *x*, no conflicting access by *tj* may appear
    before *ti*'s commit/abort.  (This is the invariant the paper's
    Listing 1 enforces set-at-a-time.)
    """
    termination_pos = _termination_index(schedule)
    accesses: dict[int, list[tuple[int, Request]]] = {}
    for pos, request in enumerate(schedule):
        if not request.operation.is_data_access:
            continue
        for earlier_pos, earlier in accesses.get(request.obj, ()):
            if earlier.conflicts_with(request):
                term = termination_pos.get(earlier.ta)
                if term is None or term > pos:
                    return False
        accesses.setdefault(request.obj, []).append((pos, request))
    return True


def interleave(schedules: Sequence[Sequence[Request]], pattern: Sequence[int]) -> Schedule:
    """Build a schedule by interleaving per-transaction sequences.

    ``pattern`` lists indices into ``schedules``; each occurrence consumes
    the next request of that transaction.  Useful for constructing precise
    textbook interleavings in tests.

    >>> from repro.model.request import make_transaction
    >>> t1 = make_transaction(1, [("r", 1)], start_id=1)
    >>> t2 = make_transaction(2, [("w", 1)], start_id=10)
    >>> str(interleave([t1.requests, t2.requests], [0, 1, 0, 1]))
    'r1[1] w2[1] c1 c2'
    """
    cursors = [0] * len(schedules)
    out = Schedule()
    for which in pattern:
        out.append(schedules[which][cursors[which]])
        cursors[which] += 1
    return out
