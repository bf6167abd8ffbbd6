"""Summary statistics over numeric samples, and :class:`LogHistogram`
for streams too long to keep."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-plus summary of a sample set."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float
    total: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.6g} sd={self.stdev:.3g} "
            f"min={self.minimum:.6g} p50={self.p50:.6g} p95={self.p95:.6g} "
            f"p99={self.p99:.6g} max={self.maximum:.6g}"
        )


class LogHistogram:
    """Fixed-memory summary of a stream of samples (durations).

    ``count``, ``total``, ``minimum`` and ``maximum`` are exact, and a
    running sum of squares gives the sample standard deviation.
    Percentiles come from log-spaced buckets: bucket *i* holds
    (``GROWTH`` ** (i-1), ``GROWTH`` ** i], 1 % wide relative to its
    lower edge, and reports its log-midpoint clamped to [min, max], so
    an estimate is within one bucket's width of the sample at its rank.
    Samples at or below ``FLOOR`` share one bucket (read as 0) and
    samples above ``CEILING`` the top one, so the buckets — the only
    state that grows — are bounded by ``MAX_BUCKETS`` whatever the
    count.
    """

    GROWTH = 1.01
    FLOOR = 1e-9
    CEILING = 1e9
    _PER_LOG = 1.0 / math.log(GROWTH)
    _LOW = math.ceil(math.log(FLOOR) * _PER_LOG)
    _HIGH = math.ceil(math.log(CEILING) * _PER_LOG)
    MAX_BUCKETS = _HIGH - _LOW + 2

    __slots__ = ("count", "total", "squares", "minimum", "maximum", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.squares = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: bucket index -> samples in it; ``_LOW - 1`` is the zero bucket.
        self._buckets: dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.squares += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > self.FLOOR:
            index = math.ceil(math.log(value) * self._PER_LOG)
            if index > self._HIGH:
                index = self._HIGH
        else:
            index = self._LOW - 1
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def percentile(self, q: float) -> float:
        """The nearest-rank sample's bucket, as a value (q in [0, 100])."""
        if not self.count:
            raise ValueError("percentile of empty histogram")
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        rank = int((q / 100.0) * (self.count - 1) + 0.5)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                break
        value = 0.0 if index < self._LOW else self.GROWTH ** (index - 0.5)
        return min(max(value, self.minimum), self.maximum)

    def summary(self) -> Summary:
        """Like :func:`summarize`; raises on an empty histogram."""
        n = self.count
        if not n:
            raise ValueError("cannot summarize an empty histogram")
        mean = self.total / n
        # Sample (Bessel-corrected) variance; a single observation has none.
        variance = (
            max(self.squares - self.total * mean, 0.0) / (n - 1)
            if n > 1
            else 0.0
        )
        return Summary(
            count=n,
            mean=mean,
            stdev=math.sqrt(variance),
            minimum=float(self.minimum),
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
            maximum=float(self.maximum),
            total=float(self.total),
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; raises on empty input."""
    if not samples:
        raise ValueError("cannot summarize an empty sample set")
    n = len(samples)
    mean = sum(samples) / n
    # Sample (Bessel-corrected) variance; a single observation has none.
    variance = (
        sum((x - mean) ** 2 for x in samples) / (n - 1) if n > 1 else 0.0
    )
    return Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=float(min(samples)),
        p50=percentile(samples, 50),
        p95=percentile(samples, 95),
        p99=percentile(samples, 99),
        maximum=float(max(samples)),
        total=float(sum(samples)),
    )
