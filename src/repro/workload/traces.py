"""Trace recording and single-user replay accounting.

The paper's method (Section 4.1): "In a separate run, we also logged the
produced schedule.  We then reran this schedule with a single concurrent
transaction, and locking disabled as much as possible."  A
:class:`Trace` is that logged schedule; :func:`replay_statement_count`
extracts what the single-user rerun needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.model.request import Operation, Request, RequestAttributes


@dataclass
class Trace:
    """An executed-statement log with timestamps.

    ``offset`` is the absolute position of ``entries[0]`` in the log as
    it was recorded: non-zero once :meth:`trim` has dropped a prefix
    (the invariant monitor keeps only a bounded window).
    """

    entries: list[tuple[float, Request]] = field(default_factory=list)
    offset: int = 0

    def record(self, time: float, request: Request) -> None:
        self.entries.append((time, request))

    def trim(self, keep: int) -> None:
        """Forget all but the last *keep* entries."""
        drop = len(self.entries) - keep
        if drop > 0:
            del self.entries[:drop]
            self.offset += drop

    @property
    def requests(self) -> list[Request]:
        return [request for __, request in self.entries]

    def statement_count(self, committed_only: bool = False) -> int:
        """Number of data-access statements in the trace."""
        if not committed_only:
            return sum(
                1 for __, r in self.entries if r.operation.is_data_access
            )
        committed = {
            r.ta for __, r in self.entries if r.operation is Operation.COMMIT
        }
        return sum(
            1
            for __, r in self.entries
            if r.operation.is_data_access and r.ta in committed
        )

    def __iter__(self) -> Iterator[tuple[float, Request]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def record_trace(requests: Iterable[Request], times: Iterable[float]) -> Trace:
    """Zip requests with completion times into a trace."""
    trace = Trace()
    for time, request in zip(times, requests):
        trace.record(time, request)
    return trace


def replay_statement_count(trace: Trace) -> int:
    """Statements the single-user replay must process — the paper replays
    the full logged sequence (committed work; the native run's aborted
    work does not appear in the produced schedule)."""
    return trace.statement_count(committed_only=True)


# -- on-disk trace format -------------------------------------------------
#
# Line-oriented JSON: the first line is a header object (``format``,
# ``version`` plus caller metadata such as scenario name/seed); every
# following line is one dispatched request.  JSON floats round-trip
# exactly (``repr`` shortest-form), so a re-run of the same deterministic
# scenario reproduces the file bit-identically.

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def _entry_fields(time: float, request: Request) -> dict:
    """Every field of one trace entry — the single source for both the
    on-disk line format and the replay comparison key, so divergence
    detection can never silently lag behind what gets recorded."""
    return {
        "t": time,
        "id": request.id,
        "ta": request.ta,
        "intrata": request.intrata,
        "op": request.operation.value,
        "obj": request.obj,
        "client": request.attrs.client_id,
        "sla": request.attrs.sla_class,
        "prio": request.attrs.priority,
    }


def canonical_entries(trace: Trace) -> list[tuple]:
    """The comparison key of a trace: every field replay must reproduce
    (virtual time, the Table 2 row, and the SLA side-car)."""
    return [
        tuple(_entry_fields(time, request).values())
        for time, request in trace.entries
    ]


def _entry_line(label: str, time: float, request: Request) -> str:
    return json.dumps(
        {"cell": label, **_entry_fields(time, request)}, sort_keys=True
    )


def write_trace_file(
    path,
    traces: Sequence[tuple[str, Trace]],
    header: dict | None = None,
) -> int:
    """Write labelled traces as line-oriented JSON; returns the entry
    count.  ``header`` carries caller metadata (scenario name, seed, …)
    so :func:`read_trace_file` callers can re-run the recorded setup."""
    head = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
    head.update(header or {})
    entries = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(head, sort_keys=True) + "\n")
        for label, trace in traces:
            for time, request in trace.entries:
                handle.write(_entry_line(label, time, request) + "\n")
                entries += 1
    return entries


def read_trace_file(path) -> tuple[dict, list[tuple[str, Trace]]]:
    """Inverse of :func:`write_trace_file`: header plus labelled traces
    (labels in first-appearance order)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty trace file: {path}")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"{path} is not a {TRACE_FORMAT} file "
            f"(format={header.get('format')!r})"
        )
    traces: dict[str, Trace] = {}
    for line in lines[1:]:
        record = json.loads(line)
        request = Request(
            id=int(record["id"]),
            ta=int(record["ta"]),
            intrata=int(record["intrata"]),
            operation=Operation.from_code(record["op"]),
            obj=int(record["obj"]),
            attrs=RequestAttributes(
                client_id=int(record.get("client", 0)),
                sla_class=str(record.get("sla", "standard")),
                priority=int(record.get("prio", 0)),
            ),
        )
        traces.setdefault(str(record["cell"]), Trace()).record(
            float(record["t"]), request
        )
    return header, list(traces.items())
