"""Tests for arrival streams and ASCII figure rendering."""

import numpy as np
import pytest

from repro.analysis.figures import bar_chart, grouped_bars, sparkline
from repro.errors import WorkloadError
from repro.workloads.streams import (
    LatencySample,
    ServiceReport,
    bursty_arrivals,
    poisson_arrivals,
    simulate_batched_service,
)


class TestArrivals:
    def test_poisson_rate(self):
        arrivals = poisson_arrivals(rate=1000.0, num_queries=20000, seed=0)
        measured = len(arrivals) / arrivals[-1]
        assert measured == pytest.approx(1000.0, rel=0.05)

    def test_poisson_monotone_and_deterministic(self):
        a = poisson_arrivals(100.0, 50, seed=1)
        b = poisson_arrivals(100.0, 50, seed=1)
        np.testing.assert_array_equal(a, b)
        assert (np.diff(a) > 0).all()

    def test_poisson_validation(self):
        with pytest.raises(WorkloadError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(WorkloadError):
            poisson_arrivals(10.0, 0)

    def test_bursty_is_burstier_than_poisson(self):
        poisson = poisson_arrivals(1000.0, 5000, seed=2)
        bursty = bursty_arrivals(500.0, 8000.0, 5000, seed=2)
        # Coefficient of variation of inter-arrival gaps: bursty > Poisson.
        cv_p = np.std(np.diff(poisson)) / np.mean(np.diff(poisson))
        cv_b = np.std(np.diff(bursty)) / np.mean(np.diff(bursty))
        assert cv_b > cv_p

    def test_bursty_validation(self):
        with pytest.raises(WorkloadError):
            bursty_arrivals(100.0, 50.0, 10)
        with pytest.raises(WorkloadError):
            bursty_arrivals(100.0, 200.0, 10, burst_fraction=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rates_rejected(self, rate):
        with pytest.raises(WorkloadError, match="finite"):
            poisson_arrivals(rate, 10)
        with pytest.raises(WorkloadError, match="finite"):
            bursty_arrivals(100.0, rate, 10)
        with pytest.raises(WorkloadError, match="finite"):
            bursty_arrivals(rate, 200.0, 10)

    def test_bursty_rejects_nonpositive_counts(self):
        # Regression: these used to slip past validation and fail deep in
        # numpy (empty cumsum / ZeroDivisionError) instead of WorkloadError.
        with pytest.raises(WorkloadError, match="num_queries"):
            bursty_arrivals(100.0, 200.0, 0)
        with pytest.raises(WorkloadError, match="num_queries"):
            bursty_arrivals(100.0, 200.0, -5)
        with pytest.raises(WorkloadError, match="mean_phase_queries"):
            bursty_arrivals(100.0, 200.0, 10, mean_phase_queries=0)


class TestBatchedService:
    def test_latency_components(self):
        arrivals = [0.0, 0.1, 0.2, 0.3]
        report = simulate_batched_service(arrivals, batch_size=2, batch_time=1.0)
        assert len(report.samples) == 4
        first = report.samples[0]
        # First batch closes when query 1 arrives (0.1) and serves 1s.
        assert first.batch_start == pytest.approx(0.1)
        assert first.completion == pytest.approx(1.1)
        assert first.latency == pytest.approx(1.1)
        assert first.queue_wait == pytest.approx(0.1)

    def test_batches_serialize_on_the_server(self):
        arrivals = [0.0, 0.0, 0.0, 0.0]
        report = simulate_batched_service(arrivals, batch_size=2, batch_time=1.0)
        completions = sorted({s.completion for s in report.samples})
        assert completions == pytest.approx([1.0, 2.0])

    def test_larger_batches_raise_latency_at_light_load(self):
        arrivals = poisson_arrivals(100.0, 2000, seed=3)
        small = simulate_batched_service(arrivals, batch_size=2, batch_time=1e-3)
        large = simulate_batched_service(arrivals, batch_size=32, batch_time=1e-3)
        assert large.mean_latency > small.mean_latency

    def test_max_wait_caps_queue_time(self):
        arrivals = [0.0, 10.0]
        capped = simulate_batched_service(
            arrivals, batch_size=4, batch_time=0.5, max_wait=0.2
        )
        # The first query dispatches alone at its deadline.
        assert capped.samples[0].queue_wait <= 0.2 + 1e-9

    def test_percentiles_and_throughput(self):
        arrivals = poisson_arrivals(500.0, 1000, seed=4)
        report = simulate_batched_service(arrivals, batch_size=8, batch_time=2e-3)
        assert report.percentile(99) >= report.percentile(50)
        assert report.throughput > 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            simulate_batched_service([], 4, 1.0)
        with pytest.raises(WorkloadError):
            simulate_batched_service([0.0], 0, 1.0)
        with pytest.raises(WorkloadError):
            simulate_batched_service([0.0], 4, 0.0)

    def test_sample_properties(self):
        sample = LatencySample(arrival=1.0, batch_start=1.5, completion=2.0)
        assert sample.latency == 1.0
        assert sample.queue_wait == 0.5

    def test_empty_report_raises_workload_error(self):
        # Regression: an empty report used to produce a numpy warning and
        # NaN from mean_latency / percentile instead of a clear error.
        empty = ServiceReport(samples=[])
        with pytest.raises(WorkloadError, match="empty"):
            _ = empty.mean_latency
        with pytest.raises(WorkloadError, match="empty"):
            empty.percentile(99)
        assert empty.throughput == 0.0

    def test_percentile_range_validation(self):
        report = ServiceReport(
            samples=[LatencySample(arrival=0.0, batch_start=0.0, completion=1.0)]
        )
        with pytest.raises(WorkloadError, match="percentile"):
            report.percentile(-1.0)
        with pytest.raises(WorkloadError, match="percentile"):
            report.percentile(101.0)


class TestFigures:
    def test_bar_chart_scales_to_max(self):
        chart = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_reference_marker(self):
        chart = bar_chart([("x", 5.0)], width=10, reference=10.0)
        assert "paper: 10" in chart

    def test_bar_chart_title_and_units(self):
        chart = bar_chart([("x", 1.0)], title="T", unit="ms")
        assert chart.startswith("T\n")
        assert "1ms" in chart

    def test_bar_chart_validation(self):
        with pytest.raises(WorkloadError):
            bar_chart([])
        with pytest.raises(WorkloadError):
            bar_chart([("x", -1.0)])
        with pytest.raises(WorkloadError):
            bar_chart([("x", 1.0)], width=2)

    def test_bar_chart_all_zero(self):
        chart = bar_chart([("x", 0.0)])
        assert "#" not in chart

    def test_grouped_bars(self):
        chart = grouped_bars(
            [("g1", [("a", 1.0)]), ("g2", [("b", 2.0)])], title="G"
        )
        assert "[g1]" in chart and "[g2]" in chart
        with pytest.raises(WorkloadError):
            grouped_bars([])

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 3, 4, 5])
        assert len(line) == 6
        assert line[0] == " " and line[-1] == "@"
        squeezed = sparkline(list(range(100)), width=10)
        assert len(squeezed) == 10
        with pytest.raises(WorkloadError):
            sparkline([])
