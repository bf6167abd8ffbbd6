"""Counters, gauges and timers for instrumenting runs.

Well-known metric families emitted by the schedulers (pass a collector
via ``api.make_scheduler(metrics=...)`` to receive them):

- ``scheduler.*`` — per-step core counters: batches, qualified
  requests, history gauge, ``orphan_reaps`` / ``timeout_aborts`` /
  ``sheds`` from the recovery and admission paths.
- ``scheduler.delta.*`` — incremental-maintenance timers/counters of
  the ``compiled-delta`` backend (rows consumed, rebuilds).
- ``scheduler.xshard.*`` — the sharded facade's cross-shard protocol:
  ``coordinated`` (transactions that spanned shards), ``broadcasts``
  (termination fan-outs), ``retries`` / ``giveups`` (two-phase
  abort-and-retry outcomes), ``stale_grants`` (grants from a
  superseded incarnation, dropped).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.metrics.stats import LogHistogram, Summary


class Timer:
    """Accumulates durations in a fixed-memory :class:`LogHistogram`;
    usable as a context manager factory."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.histogram = LogHistogram()

    @contextmanager
    def measure(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram.add(time.perf_counter() - start)

    def add(self, duration: float) -> None:
        self.histogram.add(duration)

    @property
    def total(self) -> float:
        return self.histogram.total

    def summary(self) -> Summary:
        return self.histogram.summary()


class MetricsCollector:
    """A namespace of counters, gauges and timers.

    The scheduler and server components accept an optional collector;
    when absent, instrumentation is skipped — callers use
    :meth:`MetricsCollector.null` discipline via plain ``None`` checks.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._timers: Dict[str, Timer] = {}
        self.series: Dict[str, List[tuple[float, float]]] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def timer(self, name: str) -> Timer:
        if name not in self._timers:
            self._timers[name] = Timer(name)
        return self._timers[name]

    def record_point(self, series: str, x: float, y: float) -> None:
        """Append an (x, y) observation to a named series (for plots)."""
        self.series.setdefault(series, []).append((x, y))

    def record_maintenance(
        self, stats: Dict[str, object], prefix: str = "delta"
    ) -> None:
        """Fold one evaluation's delta-maintenance observation into the
        namespace: per-step delta sizes become counters, maintenance
        time (total and per operator) becomes timers, and plan-cache
        totals become gauges.

        ``stats`` is the dict a backend's ``maintenance_stats()``
        returns — cumulative counters plus a ``last`` per-step snapshot.
        Only the snapshot is accumulated here, so calling once per
        scheduler step never double-counts.
        """
        last = stats.get("last") or {}
        self.incr(f"{prefix}.inserts", int(last.get("inserts", 0)))
        self.incr(f"{prefix}.retracts", int(last.get("retracts", 0)))
        if last.get("rebuild"):
            self.incr(f"{prefix}.rebuilds")
        self.timer(f"{prefix}.maintain").add(float(last.get("maintain_s", 0.0)))
        for label, seconds in (last.get("operator_s") or {}).items():
            self.timer(f"{prefix}.op.{label}").add(float(seconds))
        self.gauge(f"{prefix}.cache_hits", float(stats.get("cache_hits", 0)))
        self.gauge(
            f"{prefix}.cache_misses", float(stats.get("cache_misses", 0))
        )

    def timers(self) -> Dict[str, Timer]:
        return dict(self._timers)

    def report(self) -> str:
        lines = []
        for name in sorted(self.counters):
            lines.append(f"counter {name} = {self.counters[name]}")
        for name in sorted(self.gauges):
            lines.append(f"gauge   {name} = {self.gauges[name]:.6g}")
        for name in sorted(self._timers):
            timer = self._timers[name]
            if timer.histogram.count:
                lines.append(f"timer   {name}: {timer.summary()}")
        return "\n".join(lines)
