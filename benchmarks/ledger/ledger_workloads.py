"""The five workloads of the perf ledger and how one run measures them.

Every workload runs ``ss2pl`` on ``compiled-delta`` with the invariant
monitor armed, in one process and one thread, with 4 reads + 4 writes +
1 commit per transaction.  See README.md for why each exists and which
layer it stresses.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Optional

import repro.api as api
from repro.bench.scheduler_step import large_history_snapshot
from repro.faults.invariants import InvariantMonitor, lock_model_of
from repro.serve.client import generate_profiles
from repro.shard.partition import HashPartitioner
from repro.workload.spec import WorkloadSpec

from ledger_drivers import ServeDriver, SyncDriver, Timed
from ledger_metrics import END_TO_END, PER_LAYER, highest_supported, percentile
from ledger_trace import difference, install, layer_metrics, maintenance_snapshot

PROTOCOL = "ss2pl"
BACKEND = "compiled-delta"
#: The backend the sync-zipf pre-check must agree with, batch for batch.
REFERENCE_BACKEND = "compiled"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

UNIFORM = WorkloadSpec(reads_per_txn=4, writes_per_txn=4, table_rows=2_000)
ZIPF = replace(UNIFORM, zipf_theta=0.9)  # the zipf-hotspot scenario's spec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "serve" | "sync"
    spec: WorkloadSpec
    clients: int
    #: Transactions committed before the timed window opens.
    warm_commits: int
    #: Profiles generated per second of run: above what the program
    #: grants today, and cycled if a faster program outruns it.
    profiles_per_s: int
    shards: Optional[int] = None
    preload_rows: int = 0
    prune_history: bool = True
    #: Leading steps the batch digest covers (sync workloads).
    digest_steps: int = 0
    #: Leading transactions replayed on both backends before the run.
    precheck_transactions: int = 0


WORKLOADS = (
    Workload(
        name="serve-uniform",
        why="served, uniform rows, almost no conflicts: ~70% of wall is serve+core "
        "overhead, so a serve or step-overhead change shows and a query-engine change barely does",
        kind="serve", spec=UNIFORM, clients=8, warm_commits=200, profiles_per_s=4_000,
    ),
    Workload(
        name="serve-zipf",
        why="same service, Zipf(0.9) rows: lock waits set the tail and the protocol query is "
        "~55% of wall, so a delta-engine change shows and a serve change barely does",
        kind="serve", spec=ZIPF, clients=8, warm_commits=200, profiles_per_s=4_000,
    ),
    Workload(
        name="sync-zipf",
        why="128 closed-loop clients, no asyncio, ~1000 blocked rows pending: isolates "
        "core+protocols+relalg under contention and is the unsharded control for shard4-zipf",
        kind="sync", spec=ZIPF, clients=128, warm_commits=128, profiles_per_s=1_000,
        digest_steps=1_000, precheck_transactions=200,
    ),
    Workload(
        name="shard4-zipf",
        why="same driver, inputs and policies on 4 two-phase shards: nearly every transaction "
        "spans shards, so it measures what sharding costs or buys on the default backend",
        kind="sync", spec=ZIPF, clients=128, warm_commits=128, profiles_per_s=1_000, shards=4,
    ),
    Workload(
        name="deep-history",
        why="100000 committed rows preloaded, pruning off, 40 clients over 200000 rows: "
        "state far above the working set, so cold start and delta rebuilds cost O(history)",
        kind="sync", spec=replace(UNIFORM, table_rows=200_000), clients=40, warm_commits=40,
        profiles_per_s=400, preload_rows=100_000, prune_history=False, digest_steps=16,
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def scaled(workload: Workload, scale: float) -> Workload:
    """The same workload with fewer clients over a smaller state (the
    smoke test's size)."""
    clients = max(8, int(workload.clients * scale))
    return replace(
        workload,
        clients=clients,
        warm_commits=max(clients, int(workload.warm_commits * scale)),
        preload_rows=int(workload.preload_rows * scale),
        precheck_transactions=int(workload.precheck_transactions * scale),
    )


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the program is fed, a function of (workload, seed)."""

    profiles: list
    filler: list  # committed history rows to preload
    first_id: int
    first_ta: int
    cross_shard_txn_share: float


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    transactions = workload.warm_commits + int(workload.profiles_per_s * seconds) + 1
    profiles = generate_profiles(workload.spec, seed, transactions)
    filler: list = []
    if workload.preload_rows:
        # One active transaction is the fewest the helper builds; only
        # its committed filler (ta > 1) is kept.
        __, history, __ = large_history_snapshot(1, workload.preload_rows, seed=seed)
        filler = [request for request in history if request.ta > 1]
    cross = 0.0
    if workload.shards:
        owner = HashPartitioner(workload.shards).shard_of
        cross = sum(
            len({owner(statement.obj) for statement in profile}) > 1 for profile in profiles
        ) / len(profiles)
    return Inputs(
        profiles=profiles,
        filler=filler,
        first_id=max((r.id for r in filler), default=0) + 1,
        first_ta=max((r.ta for r in filler), default=0) + 1,
        cross_shard_txn_share=cross,
    )


# -- the system under test -------------------------------------------------------


class System:
    """One freshly built scheduler (or service) with its driver."""

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        backend: str = BACKEND,
        metrics: Optional[api.MetricsCollector] = None,
        limit: Optional[int] = None,
    ) -> None:
        self.service = None
        if workload.kind == "serve":
            self.service = api.open_service(
                PROTOCOL, backend, trigger="hybrid:0.005,16",
                max_sessions=workload.clients, max_pipeline=8,
                check_invariants=True, metrics=metrics,
            )
            self.scheduler = self.service.scheduler
            self.driver: Any = ServeDriver(self.service, inputs.profiles, workload.clients)
        else:
            # The bench_shards policies: timeouts far above any convoy
            # wait, armed only as the deadlock backstop.
            self.scheduler = api.make_scheduler(
                PROTOCOL, backend,
                shards=workload.shards, shard_route="two-phase",
                config=api.SchedulerConfig(prune_history=workload.prune_history),
                recovery=api.RecoveryPolicy(
                    request_timeout=30.0, orphan_lease=60.0, retry_delay=0.01
                ),
                cross_shard=api.CrossShardPolicy(
                    reserve_timeout=5.0, retry_backoff=0.005, reserve_mode="escalate"
                ),
                metrics=metrics,
            )
            self.scheduler.monitor = InvariantMonitor(
                lock_model_of(self.scheduler.protocol), conflict_interval=16
            )
            if inputs.filler:
                self.scheduler.history.record_batch(inputs.filler)
                self.scheduler.protocol.observe_executed(inputs.filler)
            self.driver = SyncDriver(
                self.scheduler, inputs.profiles, workload.clients,
                first_id=inputs.first_id, first_ta=inputs.first_ta,
                limit=limit, digest_steps=workload.digest_steps,
            )

    def close(self) -> None:
        """Stop the service and drop the maintained plans, which the
        process-wide plan cache would otherwise keep alive."""
        if self.service is not None:
            self.driver.close()
        for shard in getattr(self.scheduler, "shards", None) or [self.scheduler]:
            shard.protocol.reset()


def lost_requests(driver: Any) -> int:
    """Submitted requests that reached no terminal state (the monitor
    raises on one that is neither terminal nor in flight)."""
    return driver.attempted - sum(driver.final_check().values())


def precheck(workload: Workload, inputs: Inputs) -> str:
    """Replay a fixed prefix on both backends: the batches must match
    step for step.  Returns the shared digest."""
    digests = []
    for backend in (BACKEND, REFERENCE_BACKEND):
        system = System(workload, inputs, backend=backend, limit=workload.precheck_transactions)
        system.driver.run_to_limit()
        if lost_requests(system.driver) or system.driver.failed:
            raise AssertionError(f"pre-check on {backend}: lost or failed requests")
        digests.append(system.driver.digest.hexdigest())
        system.close()
    if digests[0] != digests[1]:
        raise AssertionError(
            f"{BACKEND} and {REFERENCE_BACKEND} batches differ on the first "
            f"{workload.precheck_transactions} transactions"
        )
    return digests[0]


# -- one run -------------------------------------------------------------------


@dataclass
class Measured:
    setup_s: float
    timed: Timed
    attempted: int
    failed: int
    digest: Optional[str]
    digest_steps: int
    #: Traced systems only: the timed window's spans and counters.
    trace: Optional[dict] = None

    @property
    def grants_per_s(self) -> float:
        return len(self.timed.grants) / self.timed.wall_s


def set_up(workload: Workload, inputs: Inputs, traced: bool = False):
    """Everything before the timed window: build the scheduler or
    service, preload history, and run the warm-up transactions (plan
    compile and delta seeding happen there).  Returns the system, its
    tracer and metrics collector (traced only) and the wall seconds all
    of that took."""
    started = perf_counter()
    metrics = api.MetricsCollector() if traced and workload.shards else None
    system = System(workload, inputs, metrics=metrics)
    tracer = None
    if traced:
        tracer = install(
            system.scheduler,
            service=system.service,
            driver=system.driver if workload.kind == "sync" else None,
        )
    system.driver.warm(workload.warm_commits)
    return system, tracer, metrics, perf_counter() - started


def measure(workload: Workload, inputs: Inputs, seconds: float, traced: bool = False) -> Measured:
    """Set up, time, drain and check one fresh system."""
    system, tracer, metrics, setup_s = set_up(workload, inputs, traced)
    driver, scheduler = system.driver, system.scheduler
    trace = None
    if traced:
        tracer.cut()
        maintenance = maintenance_snapshot(scheduler)
        xshard = dict(metrics.counters) if metrics else {}
    timed = driver.timed(seconds)
    if traced:
        trace = {
            "window": tracer.cut(),
            "maintenance": difference(maintenance_snapshot(scheduler), maintenance),
            "xshard": difference(dict(metrics.counters), xshard) if metrics else {},
        }
    driver.drain()
    lost = lost_requests(driver)
    if traced:
        trace["final_check_s"] = tracer.cut().total.get("faults.final_check", 0.0)
    system.close()
    return Measured(
        setup_s=setup_s,
        timed=timed,
        attempted=driver.attempted,
        failed=driver.failed + lost,
        digest=driver.digest.hexdigest() if workload.digest_steps else None,
        digest_steps=min(getattr(driver, "steps", 0), workload.digest_steps),
        trace=trace,
    )


def latency_percentiles_ms(timed: Timed, *quantiles: float) -> list[float]:
    """Each quantile as the median over sub-windows of the sub-window's
    percentile, which one slow second (a neighbour on the machine, one
    long collection) cannot move the way it moves a whole-window tail.
    Sub-windows are a second wide, or wider where a second holds under
    1000 grants: the fewest with which p99 keeps ten samples beyond it."""
    count = max(1, min(int(timed.wall_s), len(timed.grants) // 1_000))
    width = timed.wall_s / count
    windows: list[list[float]] = [[] for __ in range(count)]
    for offset, latency in timed.grants:
        windows[min(count - 1, int(offset / width))].append(latency * 1e3)
    ordered = [sorted(window) for window in windows if window]
    return [
        statistics.median(percentile(window, q) for window in ordered) for q in quantiles
    ]


def run_untraced(workload: Workload, inputs: Inputs, seconds: float):
    """Set up ``SETUP_REPEATS`` fresh systems, time the last one for
    *seconds*: the end-to-end metrics, the systems checked, and what
    the ledger file keeps beside them."""
    setups = []
    for __ in range(SETUP_REPEATS - 1):
        system, _tracer, _metrics, setup_s = set_up(workload, inputs)
        setups.append(setup_s)
        system.driver.drain()
        system.close()
        del system
        gc.collect()
    measured = measure(workload, inputs, seconds)
    setups.append(measured.setup_s)
    p50, p99 = latency_percentiles_ms(measured.timed, 50, 99)
    values = {
        "grants_per_s": measured.grants_per_s,
        "grant_latency_ms_p50": p50,
        "grant_latency_ms_p99": p99,
        # Linux reports the high-water mark in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    latencies_ms = sorted(latency * 1e3 for __, latency in measured.timed.grants)
    detail = {
        "setups_s": setups,
        "highest_supported_percentile": highest_supported(len(latencies_ms)),
        "whole_window_latency_ms": {
            "p50": percentile(latencies_ms, 50),
            "p99": percentile(latencies_ms, 99),
            "p999": percentile(latencies_ms, 99.9),
            "max": latencies_ms[-1],
        },
    }
    return values, measured, [measured], detail


def run_traced(workload: Workload, inputs: Inputs, seconds: float):
    """A traced system timed for half of *seconds*, between two untraced
    ones timed for a quarter each: the per-layer metrics.  The mean of
    the two is the reference the tracing overhead is measured against;
    taken before and after, a drift of the process over its life does
    not read as overhead."""
    before = measure(workload, inputs, seconds / 4)
    measured = measure(workload, inputs, seconds / 2, traced=True)
    after = measure(workload, inputs, seconds / 4)
    untraced = Timed(
        before.timed.wall_s + after.timed.wall_s,
        before.timed.grants + after.timed.grants,
    )
    untraced_grants_per_s = len(untraced.grants) / untraced.wall_s
    values = layer_metrics(
        **measured.trace,
        window_s=measured.timed.wall_s,
        cross_shard_txn_share=inputs.cross_shard_txn_share,
        overhead_share=untraced_grants_per_s / measured.grants_per_s - 1.0,
    )
    values["untraced.grants_per_s"] = untraced_grants_per_s
    values["untraced.grant_latency_ms_p999"] = percentile(
        sorted(latency * 1e3 for __, latency in untraced.grants), 99.9
    )
    return values, measured, [before, measured, after], {}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> dict:
    """One run of one workload: the result object the command prints,
    plus a ``detail`` entry (sample counts, digests) for the ledger file."""
    workload = scaled(BY_NAME[name], scale)
    inputs = make_inputs(workload, seed, seconds)
    detail: dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds}
    if workload.precheck_transactions:
        detail["precheck_digest"] = precheck(workload, inputs)
    # The generated inputs are several 10^5 long-lived objects; frozen,
    # the collector no longer walks them, so its pauses are the
    # program's own and not the harness's.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            registry = PER_LAYER
            values, measured, systems, extra = run_traced(workload, inputs, seconds)
        else:
            registry = END_TO_END
            values, measured, systems, extra = run_untraced(workload, inputs, seconds)
    finally:
        gc.unfreeze()
    if set(values) != {metric.name for metric in registry}:
        raise AssertionError("the metrics computed and the registry disagree")
    detail.update(
        extra,
        window_s=measured.timed.wall_s,
        grants=len(measured.timed.grants),
        batch_digest=measured.digest,
        batch_digest_steps=measured.digest_steps,
    )
    return {
        "correct": True,  # a lost request or a violated invariant raised above
        "attempted": sum(system.attempted for system in systems),
        "failed": sum(system.failed for system in systems),
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in registry
        },
        "detail": detail,
    }
