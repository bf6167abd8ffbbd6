"""Runtime invariant monitors for the scheduler.

An :class:`InvariantMonitor` observes every request's lifecycle and
every scheduler step, and asserts the safety properties the paper's
declarative schedulers are supposed to guarantee — properties that are
easy to believe on well-behaved workloads and easy to silently lose
once clients crash, stall, and retry:

1. **No conflicting concurrent grants** — per the protocol's declared
   :class:`~repro.protocols.spec.LockModel`, no two active transactions
   may simultaneously hold grants the model declares incompatible
   (e.g. two writers of one object under SS2PL).
2. **No lost requests** — every submitted request ends in exactly one
   terminal state (granted, aborted, or shed); nothing vanishes and
   nothing terminates twice.
3. **Batch monotonicity** — each transaction's requests are dispatched
   in strictly increasing program (``intrata``) order.

Violations raise :class:`InvariantViolation`, a structured error that
carries the dispatch trace up to the violation as JSONL lines; written
to disk (:meth:`InvariantViolation.write_trace`) the file replays
through the existing ``repro scenario replay``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.model.request import Request
from repro.protocols.spec import LockModel
from repro.workload.traces import Trace, write_trace_file

#: Terminal lifecycle states (invariant 2 asserts exactly one of these).
TERMINAL_STATES = ("granted", "aborted", "shed")

#: Dispatches the violation trace retains: the last this many, with
#: :attr:`Trace.offset` counting the ones dropped before them.
TRACE_WINDOW = 4096

_CHUNK_BITS = 8
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
_FULL_CHUNK = (1 << (1 << _CHUNK_BITS)) - 1


class CompactIdSet:
    """An exact, add-only set of integers as a chunked bitmap.

    Ids are grouped 256 to a chunk and each chunk is one Python int
    used as a bitmap; all full chunks share one int object.  The dense
    ids that the generators, the serve layer and the shard facade
    assign therefore cost a few bits each, and a sparse or negative id
    costs a chunk of its own — a dict entry, like the per-id state
    entry it replaces.
    """

    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: Dict[int, int] = {}

    def add(self, value: int) -> None:
        chunk = value >> _CHUNK_BITS
        bits = self._chunks.get(chunk, 0) | (1 << (value & _CHUNK_MASK))
        self._chunks[chunk] = _FULL_CHUNK if bits == _FULL_CHUNK else bits

    def __contains__(self, value: int) -> bool:
        bits = self._chunks.get(value >> _CHUNK_BITS)
        return bits is not None and bool(bits >> (value & _CHUNK_MASK) & 1)


class InvariantViolation(AssertionError):
    """A broken scheduler safety invariant, with replay context.

    ``kind`` is one of ``conflicting-grants`` / ``lost-request`` /
    ``double-terminal`` / ``non-monotonic-batch``; ``trace`` holds the
    dispatch log up to the violation and ``context`` the scenario
    header (name/seed/duration/clients) when a scenario runner
    attached one.
    """

    def __init__(
        self,
        kind: str,
        detail: str,
        now: float = 0.0,
        step: int = 0,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(
            f"invariant violated [{kind}] at t={now:g} step {step}: {detail}"
        )
        self.kind = kind
        self.detail = detail
        self.now = now
        self.step = step
        self.trace = trace if trace is not None else Trace()
        self.context: dict = {}

    def attach_context(self, **context) -> "InvariantViolation":
        self.context.update(context)
        return self

    def trace_jsonl(self, label: str = "violation") -> List[str]:
        """The dispatch log up to the violation as JSONL lines."""
        from repro.workload.traces import _entry_line

        return [
            _entry_line(label, time, request)
            for time, request in self.trace.entries
        ]

    def write_trace(self, path, label: Optional[str] = None) -> int:
        """Persist the violation's dispatch log as a repro-trace file.

        The header carries the attached scenario context plus
        ``prefix: true`` and the trace's ``offset``, so ``repro
        scenario replay`` re-runs the scenario and verifies the
        recorded dispatches byte-for-byte against the same stretch of
        the produced log — a prefix, unless the monitor's bounded
        window had already forgotten the oldest dispatches.  The
        trace label defaults to the attached cell label, so the replay
        compares against the right cell's dispatch log."""
        if label is None:
            label = self.context.get("cell", "violation")
        header = {
            "prefix": True,
            "violation": self.kind,
            "violation_detail": self.detail,
            "violation_time": self.now,
            "violation_step": self.step,
        }
        header.update(self.context)
        # Where the retained window starts in the cell's full dispatch
        # log, so the replay compares it against the right slice.
        header["offset"] = self.trace.offset
        return write_trace_file(path, [(label, self.trace)], header=header)


def lock_model_of(protocol) -> Optional[LockModel]:
    """Best-effort lock model of a live protocol: spec-bound protocols
    expose their spec; SLA-style decorators expose ``inner``.  Returns
    None (conflict checking disabled) for protocols whose conflict rule
    is not declaratively known — e.g. adaptive switchers."""
    spec = getattr(protocol, "spec", None)
    if spec is not None and getattr(spec, "lock_model", None) is not None:
        return spec.lock_model
    inner = getattr(protocol, "inner", None)
    if inner is not None:
        return lock_model_of(inner)
    return None


class InvariantMonitor:
    """Always-on-in-tests runtime checker (``--check-invariants``).

    Attach to a :class:`~repro.core.scheduler.DeclarativeScheduler` via
    its ``monitor`` attribute; the scheduler calls
    :meth:`note_submitted` / :meth:`note_terminal` / :meth:`after_step`
    at the right lifecycle points.  Drivers report client-side events
    (drops) themselves and call :meth:`final_check` at the end of a
    run.
    """

    def __init__(
        self,
        lock_model: Optional[LockModel] = None,
        conflict_interval: int = 1,
    ) -> None:
        if conflict_interval < 1:
            raise ValueError("conflict_interval must be >= 1")
        self.lock_model = lock_model
        #: Run the conflicting-grants scan every N steps (lifecycle
        #: checks always run every step).  Under lock protocols a
        #: conflicting pair of grants persists until one side commits,
        #: so a cadence > 1 still witnesses persistent violations —
        #: only a conflict both created and resolved inside one
        #: interval can slip through.  Benchmarks use a cadence so the
        #: O(history) scan does not dominate the timed region.
        self.conflict_interval = conflict_interval
        #: The last :data:`TRACE_WINDOW` dispatches; ``trace.offset``
        #: counts the earlier ones already forgotten.
        self.trace = Trace()
        self.checks_run = 0
        self.violations = 0
        # Retained state is O(live): a request or transaction that has
        # ended leaves one bit in a CompactIdSet (so a second ending is
        # still caught, however much later) and a tick in a counter.
        #: live request id -> "pending" | "dropped".
        self._state: Dict[int, str] = {}
        self._terminal_ids = CompactIdSet()
        #: terminal state -> requests that ended in it.
        self._terminal_counts: Dict[str, int] = {}
        #: live ta -> highest dispatched intrata.
        self._last_intrata: Dict[int, int] = {}
        self._finished_tas = CompactIdSet()

    # -- lifecycle notifications ------------------------------------------

    def note_submitted(self, request: Request, now: float = 0.0) -> None:
        if request.id in self._terminal_ids:
            self._fail(
                "double-terminal",
                f"request {request.id} resubmitted after a terminal state",
                now,
            )
        self._state[request.id] = "pending"

    def note_dropped(self, request_id: int, now: float = 0.0) -> None:
        if self._state.get(request_id) == "pending":
            self._state[request_id] = "dropped"

    def note_terminal(
        self, request_ids: Sequence[int], state: str, now: float = 0.0
    ) -> None:
        if state not in TERMINAL_STATES:
            raise ValueError(f"unknown terminal state {state!r}")
        for request_id in request_ids:
            if request_id in self._terminal_ids:
                self._fail(
                    "double-terminal",
                    f"request {request_id} reached {state!r} after an "
                    f"earlier terminal state",
                    now,
                )
            self._state.pop(request_id, None)
            self._end_request(request_id, state)

    def note_dispatch(self, now: float, request: Request) -> None:
        """Record one dispatched/synthesized request into the violation
        trace (the replayable context of any later violation); a
        termination also ends its transaction's program-order mark."""
        self._record(now, request)
        if request.operation.is_termination:
            self._end_transaction(request.ta)

    def _record(self, now: float, request: Request) -> None:
        trace = self.trace
        trace.record(now, request)
        if len(trace.entries) >= 2 * TRACE_WINDOW:
            trace.trim(TRACE_WINDOW)

    def _end_request(self, request_id: int, state: str) -> None:
        self._terminal_ids.add(request_id)
        counts = self._terminal_counts
        counts[state] = counts.get(state, 0) + 1

    def _end_transaction(self, ta: int) -> None:
        self._last_intrata.pop(ta, None)
        self._finished_tas.add(ta)

    # -- per-step checking -------------------------------------------------

    def after_step(self, scheduler, result, now: float) -> None:
        """Run all per-step invariant checks (called by the scheduler at
        the end of every successful step)."""
        self.checks_run += 1
        step = scheduler.steps_run
        for request in result.qualified:
            self._record(now, request)
            if self._state.pop(request.id, None) is None:
                if request.id in self._terminal_ids:
                    self._fail(
                        "double-terminal",
                        f"request {request.id} granted after a terminal "
                        f"state",
                        now,
                        step,
                    )
                self._fail(
                    "lost-request",
                    f"request {request.id} granted but never submitted",
                    now,
                    step,
                )
            self._end_request(request.id, "granted")
            ta = request.ta
            last = self._last_intrata.get(ta)
            if last is None:
                if ta in self._finished_tas:
                    self._fail(
                        "non-monotonic-batch",
                        f"ta {ta} dispatched intrata {request.intrata} "
                        f"after its termination",
                        now,
                        step,
                    )
            elif request.intrata <= last:
                self._fail(
                    "non-monotonic-batch",
                    f"ta {ta} dispatched intrata {request.intrata} "
                    f"after {last}",
                    now,
                    step,
                )
            if request.operation.is_termination:
                self._end_transaction(ta)
            else:
                self._last_intrata[ta] = request.intrata
        if step % self.conflict_interval == 0:
            self._check_conflicting_grants(scheduler, now, step)

    def _check_conflicting_grants(self, scheduler, now: float, step: int) -> None:
        model = self.lock_model
        if model is None:
            return
        history = scheduler.history
        active = history.active_transactions
        if len(active) < 2:
            return
        schema = history.table.schema
        ta_pos = schema.resolve("ta")
        op_pos = schema.resolve("operation")
        obj_pos = schema.resolve("object")
        writers: Dict[int, Set[int]] = {}
        readers: Dict[int, Set[int]] = {}
        for row in history.table.rows:
            ta = row[ta_pos]
            if ta not in active:
                continue
            op = row[op_pos]
            if op == "w" or (op == "r" and model.reads_are_writes):
                writers.setdefault(row[obj_pos], set()).add(ta)
            elif op == "r" and model.reads_take_locks:
                readers.setdefault(row[obj_pos], set()).add(ta)
        for obj, write_tas in writers.items():
            if model.writes_check_writers and len(write_tas) > 1:
                self._fail(
                    "conflicting-grants",
                    f"object {obj} written by concurrent active "
                    f"transactions {sorted(write_tas)}",
                    now,
                    step,
                )
            if model.reads_check_writers or model.writes_check_readers:
                read_tas = readers.get(obj, set()) - write_tas
                if read_tas and write_tas:
                    self._fail(
                        "conflicting-grants",
                        f"object {obj} read by {sorted(read_tas)} while "
                        f"written by {sorted(write_tas)}",
                        now,
                        step,
                    )

    # -- end-of-run checking -----------------------------------------------

    def final_check(self, live_ids: Set[int], now: float) -> dict:
        """Request-lifecycle totality at the end of a run.

        ``live_ids`` are requests the driver can account for outside the
        scheduler (awaiting a stall/retry timer, in flight to the
        server, cut off by the horizon).  Everything else must be in a
        terminal state; a non-terminal request that is neither in the
        scheduler nor accounted for by the driver was *lost*.  Returns
        a state -> count summary."""
        self.checks_run += 1
        counts = dict(self._terminal_counts)
        for request_id, state in self._state.items():
            counts[state] = counts.get(state, 0) + 1
            if request_id not in live_ids:
                self._fail(
                    "lost-request",
                    f"request {request_id} is {state!r} at end of run but "
                    f"neither terminal nor accounted for by the driver",
                    now,
                )
        return counts

    def _fail(
        self, kind: str, detail: str, now: float, step: int = 0
    ) -> None:
        self.violations += 1
        self.trace.trim(TRACE_WINDOW)
        raise InvariantViolation(kind, detail, now=now, step=step, trace=self.trace)
