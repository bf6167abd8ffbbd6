"""Spans recorded from outside the program.

The traced run wraps the public calls of each layer with instance
attributes set from here (and swaps the service's ``step_hooks`` entry
for a timed one); nothing under ``src/`` knows it is being traced.
Spans are aggregated as they close — total, count and self time per
name — because a serve run closes about a million of them.

Two kinds of span:

* *busy* spans wrap synchronous calls and nest on a stack, so a span's
  self time is its duration minus the part its children cover, and the
  depth-0 spans add up to the wall time some layer was running;
* *wait* spans wrap coroutines that may suspend (``pool.acquire``,
  ``await_grant``).  They overlap across sessions, stay off the stack,
  and measure how long work waited, not how long a layer was busy.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any

from ledger_metrics import percentile

#: maintenance_stats()["operator_s"] labels reported as relalg.delta.<label>_s.
_OPERATORS = (
    "antijoin", "join", "filter", "project", "distinct", "setop",
    "identity", "materialize",
)
_MAINTENANCE_KEYS = ("steps", "rebuilds", "inserts", "retracts", "maintain_s", "cache_misses")
_XSHARD_COUNTERS = ("coordinated", "broadcasts", "stale_grants", "retries", "giveups")
_RECOVERY_KINDS = ("timeouts", "orphans", "sheds")


class Window:
    """Everything recorded between two cuts of the tracer."""

    def __init__(self, shards: int) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.count: dict[str, int] = {}
        #: Seconds covered by depth-0 busy spans.
        self.covered = 0.0
        # What the step span reads off each step's own result.
        self.step_seconds: list[float] = []
        self.queue_waits: list[float] = []
        self.granted = self.empty_steps = self.pending_rows = 0
        self.history_rows_max = 0
        self.query_seconds = 0.0
        self.recovery = dict.fromkeys(_RECOVERY_KINDS, 0)
        self.shard_step_totals = [0.0] * shards


class Tracer:
    def __init__(self, shards: int = 0) -> None:
        self._shards = shards
        self.window = Window(shards)
        #: name -> [total seconds, self seconds, count]: one cell per
        #: span name, captured by its wrappers so closing a span is
        #: three additions (a serve run closes ~10 spans per request).
        self._cells: dict[str, list] = {}
        self._covered = [0.0]
        #: Child seconds accumulated per open busy span, innermost last.
        self._stack: list[float] = []
        #: When each not-yet-drained request's ``service.submit`` returned.
        self._submit_returns: list[float] = []

    def _cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0.0, 0.0, 0])

    def cut(self) -> Window:
        """Close the current window and start the next.  Call only
        between busy spans (depth 0)."""
        closed, self.window = self.window, Window(self._shards)
        for name, cell in self._cells.items():
            closed.total[name], closed.self_time[name], closed.count[name] = cell
            cell[:] = (0.0, 0.0, 0)
        closed.covered, self._covered[0] = self._covered[0], 0.0
        return closed

    # -- wrapping ----------------------------------------------------------

    def _timed(self, call: Any, name: str, after=None) -> Any:
        """*call* as busy span *name*; ``after(ended)`` sees when it closed."""
        stack = self._stack
        cell = self._cell(name)
        covered = self._covered

        @functools.wraps(call)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                ended = perf_counter()
                elapsed = ended - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    covered[0] += elapsed
                cell[0] += elapsed
                cell[1] += elapsed - children
                cell[2] += 1
                if after is not None:
                    after(ended)

        return traced

    def busy(self, owner: Any, attribute: str, name: str) -> None:
        """Time every ``owner.attribute(...)`` call as busy span *name*."""
        setattr(owner, attribute, self._timed(getattr(owner, attribute), name))

    def hook(self, hooks: list, index: int, name: str) -> None:
        """Swap ``hooks[index]`` for a timed version of itself."""
        hooks[index] = self._timed(hooks[index], name)

    def service_submit(self, service: Any) -> None:
        """Busy span around ``service.submit``, a coroutine that never
        suspends on these workloads (no admission policy): the span
        covers the synchronous call that runs it to completion.  A
        suspension would interleave other spans into this one's stack
        frame, so it is checked, not assumed.  Its return time starts
        the request's incoming-queue wait."""
        call = service.submit

        def run_to_completion(*args, **kwargs):
            coroutine = call(*args, **kwargs)
            try:
                coroutine.send(None)
            except StopIteration as finished:
                return finished.value
            coroutine.close()
            raise RuntimeError("service.submit suspended inside its span")

        timed = self._timed(run_to_completion, "serve.submit", self._submit_returns.append)

        @functools.wraps(call)
        async def traced(*args, **kwargs):
            return timed(*args, **kwargs)

        service.submit = traced

    def wait(self, owner: Any, attribute: str, name: str) -> None:
        """Time every ``await owner.attribute(...)`` as wait span *name*."""
        call = getattr(owner, attribute)
        cell = self._cell(name)

        @functools.wraps(call)
        async def traced(*args, **kwargs):
            started = perf_counter()
            try:
                return await call(*args, **kwargs)
            finally:
                cell[0] += perf_counter() - started
                cell[2] += 1

        setattr(owner, attribute, traced)

    def step(self, scheduler: Any, name: str) -> None:
        """Busy span around the ``scheduler.step`` the driver or service
        calls.  Entering, it closes the queue wait of every request
        submitted since the last step; leaving, it reads the step's own
        result (batch, table sizes, query seconds, recovery actions)."""
        timed = self._timed(scheduler.step, name)
        returns = self._submit_returns

        @functools.wraps(scheduler.step)
        def traced(*args, **kwargs):
            started = perf_counter()
            window = self.window
            if returns:
                window.queue_waits.extend(started - returned for returned in returns)
                returns.clear()
            result = timed(*args, **kwargs)
            window.step_seconds.append(perf_counter() - started)
            window.granted += len(result.qualified)
            window.empty_steps += not result.qualified
            window.pending_rows += result.pending_before
            window.history_rows_max = max(window.history_rows_max, result.history_rows)
            window.query_seconds += result.query_seconds
            for kind in _RECOVERY_KINDS:
                window.recovery[kind] += len(getattr(result.recovery, kind))
            for index, seconds in enumerate(getattr(scheduler, "shard_step_seconds", ())):
                window.shard_step_totals[index] += seconds
            return result

        scheduler.step = traced


# -- installation ------------------------------------------------------------


def _trace_monitor(tracer: Tracer, monitor: Any) -> None:
    tracer.busy(monitor, "after_step", "faults.monitor_after_step")
    tracer.busy(monitor, "note_submitted", "faults.monitor_note_submitted")
    tracer.busy(monitor, "final_check", "faults.final_check")


def _trace_scheduler(tracer: Tracer, scheduler: Any) -> None:
    """Everything below one DeclarativeScheduler's ``step``/``submit``."""
    tracer.busy(scheduler, "submit", "core.submit")
    tracer.busy(scheduler, "should_run", "core.should_run")
    tracer.busy(scheduler.incoming, "drain", "core.drain")
    tracer.busy(scheduler.pending, "insert_batch", "core.pending_insert")
    tracer.busy(scheduler.pending, "remove", "core.pending_remove")
    tracer.busy(scheduler.history, "record_batch", "core.history_record")
    tracer.busy(scheduler.history, "prune_finished", "core.history_prune")
    tracer.busy(scheduler.protocol, "schedule", "protocols.schedule")
    tracer.busy(scheduler.protocol, "observe_executed", "protocols.observe_executed")
    tracer.busy(scheduler.protocol, "observe_pruned", "protocols.observe_pruned")
    _trace_monitor(tracer, scheduler.monitor)


def install(scheduler: Any, service: Any = None, driver: Any = None) -> Tracer:
    """Wrap every layer boundary reachable from *scheduler* (and from
    the service or the sync driver in front of it)."""
    shards = getattr(scheduler, "shards", None)
    tracer = Tracer(len(shards or ()))
    if shards is None:
        tracer.step(scheduler, "core.step")
        _trace_scheduler(tracer, scheduler)
    else:
        tracer.step(scheduler, "shard.step")
        tracer.busy(scheduler, "submit", "shard.submit")
        _trace_monitor(tracer, scheduler.monitor)
        for shard in shards:
            tracer.busy(shard, "step", "core.step")
            _trace_scheduler(tracer, shard)
    if service is not None:
        tracer.service_submit(service)
        tracer.wait(service.pool, "acquire", "serve.session_acquire_wait")
        tracer.wait(service, "await_grant", "serve.await_grant_wait")
        tracer.busy(service, "release", "serve.release")
        hooks = scheduler.step_hooks
        own = next(i for i, h in enumerate(hooks) if getattr(h, "__self__", None) is service)
        tracer.hook(hooks, own, "serve.resolve")
    if driver is not None:
        for phase in ("start_transactions", "collect", "send_commits"):
            tracer.busy(driver, phase, f"driver.{phase}")
    return tracer


# -- counters the program already keeps ----------------------------------------


def maintenance_snapshot(scheduler: Any) -> dict[str, float]:
    """Cumulative delta-maintenance counters, summed over shards."""
    totals: dict[str, float] = {}
    for shard in getattr(scheduler, "shards", None) or [scheduler]:
        stats = shard.protocol.maintenance_stats() or {}
        for key in _MAINTENANCE_KEYS:
            totals[key] = totals.get(key, 0.0) + stats.get(key, 0)
        for label, seconds in stats.get("operator_s", {}).items():
            totals[f"op.{label}"] = totals.get(f"op.{label}", 0.0) + seconds
    return totals


def difference(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(
    window: Window,
    window_s: float,
    final_check_s: float,
    maintenance: dict[str, float],
    xshard: dict[str, float],
    cross_shard_txn_share: float,
    overhead_share: float,
) -> dict[str, float]:
    """The ``PER_LAYER`` metrics of one traced window, by name.  A layer
    the workload does not run (serve on the sync workloads, shard off
    ``shard4-zipf``) reads 0."""

    def total(name: str) -> float:
        return window.total.get(name, 0.0)

    def count(name: str) -> int:
        return window.count.get(name, 0)

    steps = len(window.step_seconds)
    step_sorted = sorted(window.step_seconds)
    waits_sorted = sorted(window.queue_waits)
    served = count("serve.submit") > 0
    schedule_s = total("protocols.schedule")
    maintain_s = maintenance.get("maintain_s", 0.0)
    delta_rows = maintenance.get("inserts", 0.0) + maintenance.get("retracts", 0.0)
    shard_totals = window.shard_step_totals
    sharded = bool(shard_totals)
    values: dict[str, float] = {
        "serve.submit_s": total("serve.submit"),
        "serve.submit_n": count("serve.submit"),
        "serve.session_acquire_wait_s": total("serve.session_acquire_wait"),
        "serve.await_grant_wait_s": total("serve.await_grant_wait"),
        "serve.release_s": total("serve.release"),
        "serve.resolve_s": total("serve.resolve"),
        "serve.queue_wait_ms_p50": percentile(waits_sorted, 50) * 1e3 if served else 0.0,
        "serve.queue_wait_ms_p99": percentile(waits_sorted, 99) * 1e3 if served else 0.0,
        "serve.grants_per_step": window.granted / steps if served else 0.0,
        "serve.unattributed_share": 1.0 - window.covered / window_s if served else 0.0,
        "core.step_s": total("core.step"),
        "core.step_n": count("core.step"),
        "core.step_self_s": window.self_time.get("core.step", 0.0),
        "core.step_ms_p50": percentile(step_sorted, 50) * 1e3,
        "core.step_ms_p99": percentile(step_sorted, 99) * 1e3,
        "core.submit_s": total("core.submit"),
        "core.should_run_s": total("core.should_run"),
        "core.should_run_n": count("core.should_run"),
        "core.empty_step_share": window.empty_steps / steps,
        "core.drain_s": total("core.drain"),
        "core.pending_insert_s": total("core.pending_insert"),
        "core.pending_remove_s": total("core.pending_remove"),
        "core.history_record_s": total("core.history_record"),
        "core.history_prune_s": total("core.history_prune"),
        "core.pending_rows_mean": window.pending_rows / steps,
        "core.history_rows_max": window.history_rows_max,
        "protocols.schedule_s": schedule_s,
        "protocols.query_seconds_s": window.query_seconds,
        "protocols.post_process_s": schedule_s - maintain_s,
        "protocols.observe_executed_s": total("protocols.observe_executed"),
        "protocols.observe_pruned_s": total("protocols.observe_pruned"),
        "backends.delta.maintain_s": maintain_s,
        "backends.delta.rebuilds": maintenance.get("rebuilds", 0.0),
        "backends.delta.inserts": maintenance.get("inserts", 0.0),
        "backends.delta.retracts": maintenance.get("retracts", 0.0),
        "backends.delta.rows_per_step": (
            delta_rows / maintenance["steps"] if maintenance.get("steps") else 0.0
        ),
        "backends.delta.cache_misses": maintenance.get("cache_misses", 0.0),
        "shard.step_s": total("shard.step"),
        "shard.shard_step_s_sum": sum(shard_totals),
        "shard.shard_step_s_max": max(shard_totals, default=0.0),
        "shard.facade_self_s": total("shard.step") - sum(shard_totals),
        "shard.submit_s": total("shard.submit"),
        "shard.imbalance": (
            max(shard_totals) * len(shard_totals) / sum(shard_totals) if sharded else 0.0
        ),
        "shard.cross_shard_txn_share": cross_shard_txn_share if sharded else 0.0,
        "faults.monitor_after_step_s": total("faults.monitor_after_step"),
        "faults.monitor_note_submitted_s": total("faults.monitor_note_submitted"),
        "faults.final_check_s": final_check_s,
        "faults.timeouts_n": window.recovery["timeouts"],
        "faults.orphans_n": window.recovery["orphans"],
        "faults.sheds_n": window.recovery["sheds"],
        "trace.window_s": window_s,
        "trace.grants_n": window.granted,
        "trace.overhead_share": overhead_share,
        "trace.coverage_share": window.covered / window_s,
    }
    for label in _OPERATORS:
        values[f"relalg.delta.{label}_s"] = maintenance.get(f"op.{label}", 0.0)
    for counter in _XSHARD_COUNTERS:
        values[f"shard.{counter}_n"] = xshard.get(f"scheduler.xshard.{counter}", 0)
    return values
