"""Metrics: statistics, collectors, rendering."""

import math
import random
import sys

import pytest

from repro.metrics.collector import MetricsCollector, Timer
from repro.metrics.reporting import (
    AsciiPlot,
    ComparisonRow,
    render_comparison,
    render_table,
)
from repro.metrics.stats import LogHistogram, percentile, summarize


class TestStats:
    def test_percentile_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)

    def test_percentile_single_sample(self):
        assert percentile([7.0], 95) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.total == 6.0
        assert summary.p50 == 2.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_str(self):
        assert "mean=" in str(summarize([1.0, 2.0]))

    def test_summary_str_includes_p99(self):
        rendered = str(summarize([1.0, 2.0, 3.0, 4.0]))
        assert "p99=" in rendered and "p95=" in rendered

    def test_sample_variance(self):
        # Bessel-corrected: var([1,2,3]) = 1 (not the population 2/3).
        assert summarize([1.0, 2.0, 3.0]).stdev == pytest.approx(1.0)
        assert summarize([2.0, 4.0]).stdev == pytest.approx(2.0 ** 0.5)

    def test_single_sample_has_zero_stdev(self):
        assert summarize([5.0]).stdev == 0.0


class TestCollector:
    def test_counters_and_gauges(self):
        collector = MetricsCollector()
        collector.incr("x")
        collector.incr("x", 4)
        collector.gauge("g", 1.5)
        assert collector.counters["x"] == 5
        assert collector.gauges["g"] == 1.5

    def test_timer_measure(self):
        collector = MetricsCollector()
        with collector.timer("t").measure():
            pass
        assert collector.timer("t").histogram.count == 1
        assert collector.timer("t").total >= 0

    def test_timer_add(self):
        timer = Timer("t")
        timer.add(0.5)
        timer.add(1.5)
        assert timer.total == 2.0
        assert timer.summary().mean == 1.0

    def test_series(self):
        collector = MetricsCollector()
        collector.record_point("fig2", 100, 120.0)
        collector.record_point("fig2", 200, 130.0)
        assert collector.series["fig2"] == [(100, 120.0), (200, 130.0)]

    def test_report_renders_everything(self):
        collector = MetricsCollector()
        collector.incr("requests")
        collector.gauge("load", 0.7)
        collector.timer("query").add(0.01)
        report = collector.report()
        assert "requests" in report and "load" in report and "query" in report


class TestLogHistogram:
    """Fixed memory, exact moments, percentiles within a bucket."""

    def test_retained_size_does_not_depend_on_the_count(self):
        rng = random.Random(3)
        values = [10 ** rng.uniform(-7, 3) for __ in range(2_000)]
        values += [0.0, 1e-12, 1e12]  # the clamped ends
        histogram = LogHistogram()
        for value in values:
            histogram.add(value)
        buckets = len(histogram._buckets)
        size = sys.getsizeof(histogram._buckets)
        for i in range(1_000_000 - len(values)):
            histogram.add(values[i % len(values)])
        assert histogram.count == 1_000_000
        assert len(histogram._buckets) == buckets
        assert sys.getsizeof(histogram._buckets) == size
        assert buckets <= LogHistogram.MAX_BUCKETS < 5_000
        assert not hasattr(histogram, "__dict__")

    def test_percentiles_land_within_a_bucket_of_the_exact_ones(self):
        rng = random.Random(11)
        for sigma in (0.3, 1.0, 3.0):
            samples = [rng.lognormvariate(-6, sigma) for __ in range(20_000)]
            histogram = LogHistogram()
            for value in samples:
                histogram.add(value)
            ordered = sorted(samples)
            for q in (0, 1, 50, 95, 99, 99.9, 100):
                rank = q / 100 * (len(ordered) - 1)
                low = ordered[math.floor(rank)]
                high = ordered[math.ceil(rank)]
                estimate = histogram.percentile(q)
                assert low / LogHistogram.GROWTH <= estimate
                assert estimate <= high * LogHistogram.GROWTH
                exact = percentile(samples, q)
                assert estimate == pytest.approx(exact, rel=0.0101)

    def test_moments_are_exact(self):
        rng = random.Random(5)
        samples = [rng.expovariate(100.0) for __ in range(5_000)]
        histogram = LogHistogram()
        for value in samples:
            histogram.add(value)
        got, want = histogram.summary(), summarize(samples)
        assert got.count == want.count
        assert got.total == pytest.approx(want.total, rel=1e-12)
        assert got.mean == pytest.approx(want.mean, rel=1e-12)
        assert got.stdev == pytest.approx(want.stdev, rel=1e-9)
        assert (got.minimum, got.maximum) == (want.minimum, want.maximum)
        assert got.minimum <= got.p50 <= got.p95 <= got.p99 <= got.maximum

    def test_empty_and_single(self):
        histogram = LogHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(50)
        with pytest.raises(ValueError):
            histogram.summary()
        histogram.add(0.25)
        assert histogram.percentile(0) == histogram.percentile(100) == 0.25
        assert histogram.summary().stdev == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestRenderTable:
    def test_alignment_and_rule(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) <= {"-", " "}
        assert lines[3].startswith("1")

    def test_cell_count_validated(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = render_table(["v"], [[0.000123456], [12345.678], [1.5]])
        assert "0.000123" in text and "1.23e+04" in text and "1.5" in text

    def test_comparison(self):
        text = render_comparison(
            [ComparisonRow("stmts", 550055, 557920, "close")]
        )
        assert "550055" in text and "557920" in text and "close" in text


class TestAsciiPlot:
    def test_linear_plot_contains_markers(self):
        plot = AsciiPlot(width=40, height=10, title="demo")
        plot.add_series("*", [(0, 0), (10, 100)])
        rendered = plot.render()
        assert "demo" in rendered
        assert rendered.count("*") == 2

    def test_log_scale_axis_labels(self):
        plot = AsciiPlot(width=40, height=10, log_y=True)
        plot.add_series("x", [(0, 100), (10, 10000)])
        rendered = plot.render()
        assert "1e+04" in rendered or "10000" in rendered

    def test_log_scale_rejects_nonpositive(self):
        plot = AsciiPlot(log_y=True)
        plot.add_series("x", [(0, 0)])
        with pytest.raises(ValueError):
            plot.render()

    def test_empty_plot(self):
        assert "(no data)" in AsciiPlot(title="t").render()

    def test_marker_validation(self):
        with pytest.raises(ValueError):
            AsciiPlot().add_series("ab", [(0, 1)])

    def test_multiple_series(self):
        plot = AsciiPlot(width=30, height=8)
        plot.add_series("a", [(0, 1), (5, 5)])
        plot.add_series("b", [(0, 5), (5, 1)])
        rendered = plot.render()
        assert "a" in rendered and "b" in rendered
