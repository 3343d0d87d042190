"""Unit tests for the log-log regression analysis (Figures 10 and 11)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bench.regression import index_size_vs_time, loglog_fit, result_count_vs_time


class TestLogLogFit:
    def test_perfect_power_law_recovered(self):
        xs = np.array([1.0, 10.0, 100.0, 1000.0])
        ys = 3.0 * xs**2
        fit = loglog_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert 10**fit.intercept == pytest.approx(3.0, rel=1e-6)
        assert fit.correlation == pytest.approx(1.0, abs=1e-9)

    def test_non_positive_values_dropped(self):
        fit = loglog_fit([0.0, 1.0, 10.0, 100.0], [5.0, 1.0, 10.0, 100.0])
        assert fit.num_points == 3

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            loglog_fit([0.0, -1.0], [1.0, 1.0])

    def test_as_row(self):
        row = loglog_fit([1.0, 10.0], [2.0, 20.0]).as_row()
        assert {"slope", "intercept", "correlation", "points"} == set(row)


class TestFigureHarnesses:
    def test_index_size_points_and_fit(self, bench_graph, bench_workload, bench_settings):
        points, fit = index_size_vs_time(
            bench_graph, bench_workload, settings=bench_settings
        )
        assert len(points) >= 2
        assert fit.num_points == len(points)
        assert all(size > 0 and ms > 0 for size, ms in points)

    def test_result_count_points_and_fit(self, bench_graph, bench_workload, bench_settings):
        points, fit = result_count_vs_time(
            bench_graph, bench_workload, settings=bench_settings
        )
        assert len(points) >= 2
        assert all(count > 0 for count, _ in points)

    def test_result_count_correlates_positively(self, bench_graph, bench_workload, bench_settings):
        """Figure 11's observation: more results means more enumeration time.

        Pinned to the kernel tier: these queries have a few hundred results
        each, which the compiled tier enumerates in well under 0.1 ms, so
        its per-query fixed cost, not the result count, would set the time.
        """
        settings = dataclasses.replace(bench_settings, engine="kernel")
        _, fit = result_count_vs_time(bench_graph, bench_workload, settings=settings)
        assert fit.correlation > 0.0
