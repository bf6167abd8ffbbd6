"""The asyncio scheduler service: one engine, wall-clock paced.

:class:`SchedulerService` wraps a
:class:`~repro.core.scheduler.DeclarativeScheduler` (or a
:class:`~repro.shard.scheduler.ShardedScheduler` — anything with the
same step surface) in a long-lived asyncio task.  The scheduler itself is untouched — the same synchronous
``submit``/``step`` engine the simulator drives with virtual time — and
the service supplies the two things open traffic needs around it:

* **Pacing.**  The loop waits on a wake event that every ``submit``
  sets, so enqueue-driven triggers (fill level) fire with no polling;
  when the trigger or the recovery policy has a *time* deadline
  (:meth:`~repro.core.scheduler.DeclarativeScheduler.next_recovery_due`,
  ``trigger.next_check``), the wait carries a timeout so timeout aborts
  and orphan reaping happen even when no client is talking.
* **Completion routing.**  A scheduler step hook resolves each granted
  request's :class:`~repro.serve.session.Ticket` future and fails the
  tickets of every transaction the recovery machinery aborted (timeout
  / orphan / shed) with :class:`~repro.serve.session.TicketRejected`.

Backpressure: when the scheduler has an
:class:`~repro.faults.admission.AdmissionPolicy`, ``submit`` *waits*
while the scheduler already holds ``max_pending`` undispatched rows —
the polite, client-visible half of admission control.  The scheduler's
own shed-on-overload stays armed underneath as the hard backstop (e.g.
a drain racing many submitters), so the cap holds either way.

The wire-ish API is three calls: :meth:`submit` returns a ticket,
:meth:`await_grant` blocks until the scheduler dispatches (or rejects)
it, :meth:`release` acknowledges the grant and frees the session's
pipeline slot.  Construction normally goes through
:func:`repro.api.open_service`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

__all__ = ["SchedulerService"]

from repro.core.scheduler import DeclarativeScheduler, SchedulerStepResult
from repro.faults.invariants import InvariantMonitor, lock_model_of
from repro.metrics.stats import LogHistogram
from repro.model.request import Request
from repro.serve.session import (
    ServiceClosed,
    Session,
    SessionPool,
    Ticket,
    TicketRejected,
    TicketState,
)

#: Slack added to timed waits so a wake-up lands strictly *after* the
#: deadline — recovery timeouts use a strict ``now - since > timeout``
#: comparison, so stepping exactly at the deadline would do nothing.
_DEADLINE_SLACK = 1e-4


class SchedulerService:
    """Run a declarative scheduler as an asyncio service.

    Parameters
    ----------
    scheduler:
        The engine to serve.  The service installs its wall clock as
        the scheduler's ``clock`` and appends a step hook; everything
        else about the scheduler is left alone.
    max_sessions, max_pipeline:
        Bounds of the built-in :class:`~repro.serve.session.SessionPool`
        (``service.pool``).
    max_linger:
        Upper bound (seconds) on how long queued work may sit without a
        step when the trigger policy supplies no time deadline of its
        own — the fill-trigger starvation guard.
    check_invariants:
        Attach an :class:`~repro.faults.invariants.InvariantMonitor`
        so every step is checked and :meth:`final_check` can assert
        request-lifecycle totality (no lost requests) at shutdown.
    """

    def __init__(
        self,
        scheduler: DeclarativeScheduler,
        *,
        max_sessions: int = 8,
        max_pipeline: int = 8,
        max_linger: float = 0.05,
        check_invariants: bool = False,
    ) -> None:
        if max_linger <= 0:
            raise ValueError("max_linger must be positive")
        self.scheduler = scheduler
        self.max_linger = max_linger
        self._epoch = time.monotonic()
        scheduler.clock = self.clock
        scheduler.step_hooks.append(self._on_step)
        if check_invariants and scheduler.monitor is None:
            scheduler.monitor = InvariantMonitor(
                lock_model_of(scheduler.protocol)
            )
        self.pool = SessionPool(
            self, max_sessions=max_sessions, max_pipeline=max_pipeline
        )
        self._running = False
        self._task: Optional[asyncio.Task] = None
        #: Set when the pacing loop died with an exception (clients see
        #: :class:`ServiceClosed` chaining to it; ``stop`` re-raises it).
        self.loop_error: Optional[BaseException] = None
        self._wake = asyncio.Event()
        self._capacity = asyncio.Event()
        self._capacity.set()
        #: request id -> unresolved ticket (granted/rejected ones leave).
        self._tickets: dict[int, Ticket] = {}
        #: ta -> {request id -> ticket} for transaction-level rejection.
        self._tickets_by_ta: dict[int, dict[int, Ticket]] = {}
        self._next_ta = 1
        self._next_request_id = 1
        # Service-level telemetry (wall-clock seconds, service epoch).
        self.submitted = 0
        self.granted = 0
        self.released = 0
        self.rejected: dict[str, int] = {"timeout": 0, "orphan": 0, "shed": 0}
        #: Submit-to-grant seconds, in fixed memory however long it runs.
        self.grant_latency = LogHistogram()
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    # -- clock & ids -------------------------------------------------------

    def clock(self) -> float:
        """Wall-clock seconds since service construction (monotonic)."""
        return time.monotonic() - self._epoch

    def next_ta(self) -> int:
        ta = self._next_ta
        self._next_ta += 1
        return ta

    def next_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "SchedulerService":
        if self._running:
            return self
        self._running = True
        self.started_at = self.clock()
        self._task = asyncio.create_task(self._run_loop(), name="repro-serve")
        self._task.add_done_callback(self._on_loop_done)
        return self

    def _on_loop_done(self, task: asyncio.Task) -> None:
        """The loop died (invariant violation, protocol bug): clients
        must not hang on futures nobody will ever resolve."""
        if task.cancelled():
            return
        error = task.exception()
        if error is None:
            return
        self.loop_error = error
        self._running = False
        self._capacity.set()
        closed = ServiceClosed(f"scheduler loop failed: {error!r}")
        closed.__cause__ = error
        for ticket in list(self._tickets.values()):
            self._resolve_rejection(ticket, closed)
        self._tickets.clear()
        self._tickets_by_ta.clear()

    async def stop(self) -> None:
        """Stop the loop and fail every unresolved ticket with
        :class:`ServiceClosed` (abandoned ones are cancelled)."""
        if not self._running:
            return
        self._running = False
        self.stopped_at = self.clock()
        self._wake.set()
        self._capacity.set()
        if self._task is not None:
            await self._task
            self._task = None
        for ticket in list(self._tickets.values()):
            self._resolve_rejection(ticket, ServiceClosed("service stopped"))
        self._tickets.clear()
        self._tickets_by_ta.clear()
        await self.pool.close()

    async def __aenter__(self) -> "SchedulerService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def is_running(self) -> bool:
        return self._running

    # -- the wire-ish API --------------------------------------------------

    async def submit(
        self, request: Request, session: Optional[Session] = None
    ) -> Ticket:
        """Enqueue one request; returns its ticket.

        Blocks while the scheduler is at its admission cap — the
        backpressure path.  The ticket's future resolves on grant and
        fails with :class:`TicketRejected` on timeout/orphan/shed abort.
        """
        while True:
            if not self._running:
                raise ServiceClosed("service is not running")
            if self._has_capacity():
                break
            self._capacity.clear()
            self._wake.set()  # let the loop drain to make room
            await self._capacity.wait()
        now = self.clock()
        ticket = Ticket(
            request=request,
            session_id=session.client_id if session is not None else -1,
            submitted_at=now,
            future=asyncio.get_running_loop().create_future(),
            session=session,
        )
        self._tickets[request.id] = ticket
        self._tickets_by_ta.setdefault(request.ta, {})[request.id] = ticket
        self.scheduler.submit(request, now)
        self.submitted += 1
        self._wake.set()
        return ticket

    async def await_grant(
        self, ticket: Ticket, timeout: Optional[float] = None
    ) -> Ticket:
        """Wait for the scheduler to dispatch the ticket's request.

        Raises :class:`TicketRejected` when recovery aborted the
        transaction first, :class:`ServiceClosed` on shutdown, and
        ``asyncio.TimeoutError`` on a caller-supplied timeout (the
        ticket stays valid — the grant may still arrive later).
        """
        if timeout is None:
            return await ticket.future
        return await asyncio.wait_for(asyncio.shield(ticket.future), timeout)

    def release(self, ticket: Ticket) -> None:
        """Acknowledge a granted ticket: frees its session pipeline slot."""
        if ticket.state is TicketState.GRANTED:
            ticket.state = TicketState.RELEASED
            self.released += 1
        if ticket.session is not None:
            ticket.session._ticket_done(ticket)

    def note_client_crashed(self, client_id: int) -> None:
        """A session died abnormally; the scheduler's recovery policy
        reaps its transactions after the orphan lease."""
        self.scheduler.note_client_crashed(client_id, self.clock())
        self._wake.set()  # re-arm the pacing deadline for the lease

    # -- the pacing loop ---------------------------------------------------

    async def _run_loop(self) -> None:
        scheduler = self.scheduler
        while self._running:
            self._wake.clear()
            now = self.clock()
            if scheduler.should_run(now):
                await self._drain()
                continue
            deadline = self._next_deadline(now)
            if deadline is None and (
                len(scheduler.incoming) or len(scheduler.pending)
            ):
                # A purely enqueue-driven trigger (fill level) below its
                # threshold with no further arrivals would starve the
                # tail of the queue — and any armed recovery timers —
                # forever.  The linger bounds that wait, like a batch
                # linger in any real server.
                deadline = now + self.max_linger
            try:
                if deadline is None:
                    await self._wake.wait()
                else:
                    delay = max(deadline - self.clock(), 0.0) + _DEADLINE_SLACK
                    await asyncio.wait_for(self._wake.wait(), delay)
            except asyncio.TimeoutError:
                # The timed deadline expired.  Step even if the trigger
                # still declines: timed recovery (timeout aborts, orphan
                # leases) only runs inside a step, and a lingered
                # sub-threshold batch must eventually dispatch.
                await self._drain()

    async def _drain(self) -> None:
        """Step, then keep stepping while steps make progress and work
        remains: a recovery abort (orphan reap) can unblock pending
        requests that no future enqueue would ever re-trigger under a
        purely fill-driven trigger."""
        scheduler = self.scheduler
        result = scheduler.step(self.clock())
        while (
            self._running
            and (result.recovery or result.batch_size)
            and (len(scheduler.pending) or len(scheduler.incoming))
        ):
            await asyncio.sleep(0)  # let submitters interleave
            result = scheduler.step(self.clock())

    def _next_deadline(self, now: float) -> Optional[float]:
        """Earliest future time the loop must re-check without a wake:
        the trigger's own clock (when work is queued or blocked) and the
        recovery policy's next timeout/lease expiry."""
        deadline: Optional[float] = None
        if len(self.scheduler.incoming) or len(self.scheduler.pending):
            next_check = self.scheduler.trigger.next_check(now)
            if next_check is not None:
                deadline = next_check
        recovery_due = self.scheduler.next_recovery_due(now)
        if recovery_due is not None:
            deadline = (
                recovery_due if deadline is None else min(deadline, recovery_due)
            )
        return deadline

    def _has_capacity(self) -> bool:
        admission = self.scheduler.admission
        if admission is None:
            return True
        backlog = len(self.scheduler.incoming) + len(self.scheduler.pending)
        return backlog < admission.max_pending

    # -- step hook: ticket resolution --------------------------------------

    def _on_step(self, result: SchedulerStepResult) -> None:
        metrics = self.scheduler.metrics
        for request in result.qualified:
            ticket = self._pop_ticket(request.ta, request.id)
            if ticket is None:
                continue
            ticket.state = TicketState.GRANTED
            ticket.granted_at = result.now
            self.granted += 1
            latency = result.now - ticket.submitted_at
            self.grant_latency.add(latency)
            if metrics is not None:
                metrics.incr("serve.granted")
                metrics.timer("serve.grant_latency").add(latency)
            if ticket.abandoned:
                ticket.future.cancel()
                # The crashed client will never release(); free the
                # bookkeeping so the session's in-flight map drains.
                if ticket.session is not None:
                    ticket.session._ticket_done(ticket)
            elif not ticket.future.done():
                ticket.future.set_result(ticket)
        for reason, entries in (
            ("timeout", result.recovery.timeouts),
            ("orphan", result.recovery.orphans),
            ("shed", result.recovery.sheds),
        ):
            for ta, _abort in entries:
                self._reject_transaction(ta, reason)
        if self._has_capacity():
            self._capacity.set()

    def _pop_ticket(self, ta: int, request_id: int) -> Optional[Ticket]:
        ticket = self._tickets.pop(request_id, None)
        ta_map = self._tickets_by_ta.get(ta)
        if ta_map is not None:
            ta_map.pop(request_id, None)
            if not ta_map:
                del self._tickets_by_ta[ta]
        return ticket

    def _reject_transaction(self, ta: int, reason: str) -> None:
        """Fail every unresolved ticket of an aborted transaction."""
        ta_map = self._tickets_by_ta.pop(ta, None)
        if not ta_map:
            return
        metrics = self.scheduler.metrics
        for ticket in ta_map.values():
            self._tickets.pop(ticket.request.id, None)
            self.rejected[reason] = self.rejected.get(reason, 0) + 1
            if metrics is not None:
                metrics.incr(f"serve.rejected.{reason}")
            self._resolve_rejection(
                ticket, TicketRejected(ticket, reason), reason=reason
            )

    def _resolve_rejection(
        self, ticket: Ticket, error: Exception, reason: str = "closed"
    ) -> None:
        ticket.state = TicketState.REJECTED
        ticket.reject_reason = reason
        if ticket.abandoned:
            # Nobody will ever await this future; cancelling avoids the
            # event loop's "exception was never retrieved" complaints.
            ticket.future.cancel()
        elif not ticket.future.done():
            ticket.future.set_exception(error)
        if ticket.session is not None:
            ticket.session._ticket_done(ticket)

    # -- end-of-run checking & telemetry -----------------------------------

    def final_check(self) -> Optional[dict]:
        """Run the invariant monitor's request-lifecycle totality check
        (requires ``check_invariants=True``); unresolved tickets are the
        driver-accounted live set.  Returns the state->count summary,
        or None when no monitor is attached."""
        monitor = self.scheduler.monitor
        if monitor is None:
            return None
        live = set(self._tickets)
        live.update(request.id for request in self.scheduler.incoming)
        return monitor.final_check(live, self.clock())

    def stats(self) -> dict:
        """Service-level counters and latency percentiles (seconds,
        each within 1 % of the sample at its rank)."""
        duration = (
            (self.stopped_at if self.stopped_at is not None else self.clock())
            - (self.started_at or 0.0)
        )
        latencies = self.grant_latency
        return {
            "submitted": self.submitted,
            "granted": self.granted,
            "released": self.released,
            "rejected": dict(self.rejected),
            "unresolved": len(self._tickets),
            "steps": self.scheduler.steps_run,
            "duration_s": duration,
            "grants_per_s": (self.granted / duration) if duration > 0 else 0.0,
            "grant_latency_s": {
                "p50": latencies.percentile(50.0) if latencies.count else 0.0,
                "p99": latencies.percentile(99.0) if latencies.count else 0.0,
                "p99.9": latencies.percentile(99.9) if latencies.count else 0.0,
                "max": latencies.maximum if latencies.count else 0.0,
            },
        }
