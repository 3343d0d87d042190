"""Unit tests for the driver's metric aggregation and the CLI latency summary."""

from __future__ import annotations

import pytest
from paper import aggregate, cumulative_distribution, latency_percentile, time_distribution

from repro.cli import latency_summary
from repro.core.result import EnumerationStats, Phase, QueryResult


def _result(ms: float, count: int = 10, timed_out: bool = False, response_ms=None):
    stats = EnumerationStats(timed_out=timed_out)
    stats.add_phase(Phase.TOTAL, ms / 1e3)
    return QueryResult(
        source=0,
        target=1,
        k=4,
        algorithm="IDX-DFS",
        count=count,
        paths=None,
        stats=stats,
        response_seconds=None if response_ms is None else response_ms / 1e3,
    )


class TestAggregate:
    def test_mean_query_time(self):
        metrics = aggregate([_result(10.0), _result(30.0)])
        assert metrics["query_ms"] == pytest.approx(20.0)
        assert metrics["queries"] == 2
        assert metrics["results"] == 20

    def test_throughput_mean(self):
        metrics = aggregate([_result(1000.0, count=100), _result(1000.0, count=300)])
        assert metrics["throughput"] == pytest.approx(200.0)

    def test_response_time_mixes_probe_and_total(self):
        metrics = aggregate([_result(50.0, response_ms=5.0), _result(30.0)])
        # First query responded at 5 ms; second had fewer than response_k
        # results so its full query time counts.
        assert metrics["response_ms"] == pytest.approx((5.0 + 30.0) / 2)

    def test_timeout_fraction(self):
        metrics = aggregate([_result(10.0), _result(10.0, timed_out=True)])
        assert metrics["timeout_frac"] == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_as_row_keys(self):
        row = aggregate([_result(10.0)])
        assert {"algorithm", "query_ms", "throughput", "response_ms", "timeout_frac"} <= set(row)


class TestDistributions:
    def test_latency_percentile(self):
        results = [_result(float(ms)) for ms in range(1, 101)]
        assert latency_percentile(results, 50.0) == pytest.approx(50.5, abs=1.0)
        assert latency_percentile(results, 99.9) > 99.0

    def test_latency_percentile_prefers_response_probe(self):
        results = [_result(1000.0, response_ms=1.0) for _ in range(10)]
        assert latency_percentile(results, 99.9) == pytest.approx(1.0)

    def test_time_distribution_buckets(self):
        results = [_result(10.0), _result(10.0), _result(90.0), _result(200.0, timed_out=True)]
        buckets = time_distribution(results, fast_ms=60.0, slow_ms=120.0)
        assert buckets["fast"] == pytest.approx(0.5)
        assert buckets["slow"] == pytest.approx(0.25)

    def test_cumulative_distribution_monotone(self):
        results = [_result(float(ms)) for ms in (5, 1, 9, 3, 7)]
        cdf = cumulative_distribution(results)
        times = [point[0] for point in cdf]
        fractions = [point[1] for point in cdf]
        assert times == sorted(times)
        assert fractions[-1] == pytest.approx(1.0)

    def test_cumulative_distribution_downsampling(self):
        results = [_result(float(ms)) for ms in range(200)]
        cdf = cumulative_distribution(results, points=20)
        assert len(cdf) == 20

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            latency_percentile([])
        with pytest.raises(ValueError):
            time_distribution([], fast_ms=1.0, slow_ms=2.0)
        with pytest.raises(ValueError):
            cumulative_distribution([])


class TestLatencySummary:
    def test_default_keys_and_values(self):
        values = [float(ms) for ms in range(1, 1001)]
        summary = latency_summary(values)
        assert set(summary) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p99_9_ms", "max_ms",
        }
        assert summary["count"] == 1000
        assert summary["mean_ms"] == pytest.approx(500.5)
        assert summary["p50_ms"] == pytest.approx(500.5)
        assert summary["p95_ms"] == pytest.approx(950.05, abs=1.0)
        assert summary["max_ms"] == pytest.approx(1000.0)
        # Percentiles are monotone by construction.
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"] <= summary["p99_9_ms"]

    def test_matches_latency_percentile_on_the_same_series(self):
        import numpy as np

        rng = np.random.default_rng(5)
        values = rng.exponential(scale=10.0, size=500).tolist()
        summary = latency_summary(values)
        assert summary["p99_9_ms"] == pytest.approx(float(np.percentile(values, 99.9)))

    def test_custom_percentiles(self):
        summary = latency_summary([1.0, 2.0, 3.0, 4.0], percentiles=(25.0, 75.0))
        assert set(summary) == {"count", "mean_ms", "p25_ms", "p75_ms", "max_ms"}

    def test_single_sample(self):
        summary = latency_summary([42.0])
        assert summary["p50_ms"] == summary["p99_9_ms"] == summary["max_ms"] == 42.0

    def test_accepts_numpy_input(self):
        import numpy as np

        summary = latency_summary(np.asarray([5.0, 1.0, 3.0]))
        assert summary["count"] == 3
        assert summary["max_ms"] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_summary([])
