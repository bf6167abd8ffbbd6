"""Measurement, statistics and report rendering.

Every experiment in :mod:`repro.bench` funnels its numbers through this
package: counters/timers during runs (:mod:`repro.metrics.collector`),
summary statistics (:mod:`repro.metrics.stats`), and rendering of the
paper's tables/figures as fixed-width text and ASCII plots
(:mod:`repro.metrics.reporting`).
"""

from repro.metrics.stats import LogHistogram, Summary, summarize, percentile
from repro.metrics.collector import MetricsCollector, Timer
from repro.metrics.reporting import (
    AsciiPlot,
    ComparisonRow,
    render_comparison,
    render_table,
)

__all__ = [
    "LogHistogram",
    "Summary",
    "summarize",
    "percentile",
    "MetricsCollector",
    "Timer",
    "AsciiPlot",
    "ComparisonRow",
    "render_comparison",
    "render_table",
]
