"""The ledger's two closed-loop drivers.

Both send a client's next transaction only after the previous one
commits, pipeline a transaction's data statements and send the commit
once all of them are granted, and expose the same three phases:
``warm(commits)`` runs until that many transactions committed,
``timed(seconds)`` keeps going for that long and returns what happened
in between, ``drain()`` stops starting transactions and finishes the
ones in flight.  The population never pauses between phases, so the
timed window sees steady state at both ends.

:class:`SyncDriver` steps a scheduler itself in virtual time (no
asyncio anywhere); :class:`ServeDriver` runs session coroutines against
a :class:`~repro.serve.service.SchedulerService` on an event loop it
owns, so callers use it synchronously too.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence

from repro.model.request import NO_OBJECT, Operation, Request, RequestAttributes
from repro.serve.session import TicketRejected

#: Virtual seconds per sync-driver iteration (the bench_shards clock);
#: every timeout of the sync workloads is in this clock, so what the
#: recovery machinery does is a function of the inputs alone.
DT = 0.001


@dataclass
class Timed:
    """What the clients saw during the timed window."""

    wall_s: float
    #: One (seconds into the window, latency in seconds) per grant
    #: received in the window.
    grants: list[tuple[float, float]]


class _Client:
    __slots__ = ("attrs", "ta", "waiting", "committing", "sent")

    def __init__(self, client_id: int) -> None:
        self.attrs = RequestAttributes(client_id=client_id)
        self.ta: Optional[int] = None
        self.waiting: set[int] = set()
        self.committing = False
        self.sent = 0


class SyncDriver:
    """A closed-loop client population stepped in virtual time.

    ``limit`` bounds how many transactions are ever started (the
    correctness pre-check replays a fixed prefix); without it the
    profile pool is cycled until :meth:`drain`.  The batch digest
    covers the first ``digest_steps`` steps: virtual time makes those a
    function of the inputs alone, and a prefix every full-length run
    reaches makes the digests of two runs comparable.
    """

    def __init__(
        self,
        scheduler,
        profiles: Sequence,
        clients: int,
        first_id: int = 1,
        first_ta: int = 1,
        limit: Optional[int] = None,
        digest_steps: int = 1 << 30,
    ) -> None:
        self.scheduler = scheduler
        self.profiles = profiles
        self.pool = [_Client(index + 1) for index in range(clients)]
        self.ids = itertools.count(first_id)
        self.tas = itertools.count(first_ta)
        self.limit = limit
        self.accepting = True
        self.started = self.committed = 0
        self.attempted = self.failed = 0
        self.now = 0.0
        #: live request id -> (owning client, wall time it was submitted).
        self.sent: dict[int, tuple[_Client, float]] = {}
        #: The open window's start and grants, None outside it.
        self.window: Optional[tuple[float, list]] = None
        self.steps = 0
        self.digest_steps = digest_steps
        self.digest = hashlib.sha256()

    # -- one iteration: four calls the tracer can wrap -----------------------

    def start_transactions(self) -> None:
        submit = self.scheduler.submit
        for client in self.pool:
            if client.ta is not None or not self.accepting:
                continue
            if self.limit is not None and self.started >= self.limit:
                continue
            profile = self.profiles[self.started % len(self.profiles)]
            self.started += 1
            client.ta = next(self.tas)
            client.committing = False
            client.sent = len(profile)
            for intrata, statement in enumerate(profile):
                request = Request(
                    id=next(self.ids),
                    ta=client.ta,
                    intrata=intrata,
                    operation=statement.operation,
                    obj=statement.obj,
                    attrs=client.attrs,
                )
                client.waiting.add(request.id)
                self.sent[request.id] = (client, perf_counter())
                submit(request, self.now)
            self.attempted += len(profile)

    def step(self):
        result = self.scheduler.step(self.now)
        if self.steps < self.digest_steps:
            self.digest.update(
                (",".join(str(r.id) for r in result.qualified) + ";").encode()
            )
        self.steps += 1
        return result

    def collect(self, result) -> None:
        done = perf_counter()
        if self.window is not None:
            opened, grants = self.window
        else:
            grants = None
        for request in result.qualified:
            entry = self.sent.pop(request.id, None)
            if entry is None:  # a grant to a transaction aborted meanwhile
                continue
            client, submitted = entry
            if grants is not None:
                grants.append((done - opened, done - submitted))
            client.waiting.discard(request.id)
            if request.operation.is_termination:
                self.committed += 1
                client.ta = None
        recovery = result.recovery
        for ta, __abort in recovery.timeouts + recovery.orphans + recovery.sheds:
            for client in self.pool:
                if client.ta == ta:
                    # Every request of an aborted transaction failed,
                    # granted or not: the client got no commit.
                    self.failed += client.sent
                    for request_id in client.waiting:
                        self.sent.pop(request_id, None)
                    client.waiting.clear()
                    client.ta = None

    def send_commits(self) -> None:
        for client in self.pool:
            if client.ta is None or client.committing or client.waiting:
                continue
            client.committing = True
            commit = Request(
                id=next(self.ids),
                ta=client.ta,
                intrata=client.sent,
                operation=Operation.COMMIT,
                obj=NO_OBJECT,
                attrs=client.attrs,
            )
            client.sent += 1
            client.waiting.add(commit.id)
            self.sent[commit.id] = (client, perf_counter())
            self.scheduler.submit(commit, self.now)
            self.attempted += 1

    def iterate(self) -> None:
        self.start_transactions()
        self.collect(self.step())
        self.send_commits()
        self.now += DT

    # -- phases ----------------------------------------------------------------

    def warm(self, commits: int) -> None:
        while self.committed < commits:
            self.iterate()

    def timed(self, seconds: float) -> Timed:
        started = perf_counter()
        self.window = (started, [])
        deadline = started + seconds
        while perf_counter() < deadline:
            self.iterate()
        timed = Timed(perf_counter() - started, self.window[1])
        self.window = None
        return timed

    def drain(self, max_iterations: int = 4_000_000) -> None:
        self.accepting = False
        for __ in range(max_iterations):
            if all(client.ta is None for client in self.pool):
                return
            self.iterate()
        raise AssertionError("sync driver did not drain")

    def run_to_limit(self) -> None:
        """Start ``limit`` transactions and finish them all."""
        while self.started < self.limit:
            self.iterate()
        self.drain()

    def final_check(self) -> dict:
        """Lifecycle totality: every submitted request is terminal."""
        return self.scheduler.monitor.final_check(set(), self.now + 1_000.0)


class ServeDriver:
    """``sessions`` coroutines, each running transactions back to back
    through the service's public session API."""

    def __init__(self, service, profiles: Sequence, sessions: int) -> None:
        self.service = service
        self.profiles = profiles
        self.sessions = sessions
        self.loop = asyncio.new_event_loop()
        self.accepting = True
        self.started = self.committed = 0
        self.attempted = self.failed = 0
        #: The open window's start and grants, None outside it.
        self.window: Optional[tuple[float, list]] = None
        self._workers: list[asyncio.Task] = []
        self._warm_target = 0
        self._warmed: Optional[asyncio.Event] = None

    # -- one transaction ---------------------------------------------------

    async def _request(self, session, op_code: str, obj: int):
        # Stamped before the call, so a wait for a pipeline slot or for
        # admission counts towards the grant latency the client sees.
        stamp = perf_counter()
        ticket = await session.request(op_code, obj)
        self.attempted += 1
        ticket.future.add_done_callback(functools.partial(self._resolved, stamp))
        return ticket

    def _resolved(self, stamp: float, future: asyncio.Future) -> None:
        if (
            self.window is not None
            and not future.cancelled()
            and future.exception() is None
        ):
            done = perf_counter()
            self.window[1].append((done - self.window[0], done - stamp))

    async def _collect(self, ticket) -> bool:
        try:
            await self.service.await_grant(ticket)
        except TicketRejected:
            return False
        self.service.release(ticket)
        return True

    async def _transaction(self, session, profile) -> None:
        session.begin()
        inflight: deque = deque()
        sent = 0
        granted = True
        for statement in profile:
            # A full pipeline only drains through release(): collect the
            # oldest grant before sending more.
            while granted and len(inflight) >= session.max_pipeline:
                granted = await self._collect(inflight.popleft())
            if not granted:
                break
            inflight.append(
                await self._request(session, statement.operation.value, statement.obj)
            )
            sent += 1
        while inflight:
            granted = await self._collect(inflight.popleft()) and granted
        if granted:
            sent += 1
            granted = await self._collect(
                await self._request(session, Operation.COMMIT.value, NO_OBJECT)
            )
        if granted:
            self.committed += 1
        else:
            self.failed += sent

    async def _worker(self) -> None:
        pool = self.service.pool
        while self.accepting:
            profile = self.profiles[self.started % len(self.profiles)]
            self.started += 1
            session = await pool.acquire()
            try:
                await self._transaction(session, profile)
            finally:
                await session.close()
            if self.committed >= self._warm_target:
                self._warmed.set()

    # -- phases ----------------------------------------------------------------

    async def _warm(self, commits: int) -> None:
        await self.service.start()
        self._warm_target = commits
        self._warmed = asyncio.Event()
        self._workers = [
            asyncio.ensure_future(self._worker()) for __ in range(self.sessions)
        ]
        waiter = asyncio.ensure_future(self._warmed.wait())
        # A worker that dies (service closed under it) must end the wait.
        await asyncio.wait([waiter, *self._workers], return_when=asyncio.FIRST_COMPLETED)
        if not waiter.done():
            waiter.cancel()
            await asyncio.gather(*self._workers)

    async def _timed(self, seconds: float) -> Timed:
        started = perf_counter()
        self.window = (started, [])
        await asyncio.sleep(seconds)
        timed = Timed(perf_counter() - started, self.window[1])
        self.window = None
        return timed

    async def _drain(self) -> None:
        self.accepting = False
        await asyncio.gather(*self._workers)

    def warm(self, commits: int) -> None:
        self.loop.run_until_complete(self._warm(commits))

    def timed(self, seconds: float) -> Timed:
        return self.loop.run_until_complete(self._timed(seconds))

    def drain(self) -> None:
        self.loop.run_until_complete(self._drain())

    def final_check(self) -> dict:
        return self.service.final_check()

    def close(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()
