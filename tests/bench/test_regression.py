"""Unit tests for the log-log regression (Figures 10 and 11)."""

from __future__ import annotations

import numpy as np
import paper
import pytest
from paper import loglog_fit

from tests.helpers import numpy_reference


class TestLogLogFit:
    def test_perfect_power_law_recovered(self):
        xs = np.array([1.0, 10.0, 100.0, 1000.0])
        ys = 3.0 * xs**2
        fit = loglog_fit(xs, ys)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-9)
        assert 10 ** fit["intercept"] == pytest.approx(3.0, rel=1e-6)
        assert fit["correlation"] == pytest.approx(1.0, abs=1e-9)

    def test_non_positive_values_dropped(self):
        fit = loglog_fit([0.0, 1.0, 10.0, 100.0], [5.0, 1.0, 10.0, 100.0])
        assert fit["points"] == 3

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            loglog_fit([0.0, -1.0], [1.0, 1.0])

    def test_as_row(self):
        row = loglog_fit([1.0, 10.0], [2.0, 20.0])
        assert {"slope", "intercept", "correlation", "points"} == set(row)


class TestFigureHarnesses:
    def test_index_size_points_and_fit(self, bench_graph, bench_workload, bench_config):
        points = paper.index_points(
            paper.run_queries(bench_graph, "IDX-DFS", bench_workload, bench_config)
        )
        fit = loglog_fit(*zip(*points))
        assert len(points) >= 2
        assert fit["points"] == len(points)
        assert all(size > 0 and ms > 0 for size, ms in points)

    def test_result_count_points_and_fit(self, bench_graph, bench_workload, bench_config):
        points = paper.count_points(
            paper.run_queries(bench_graph, "IDX-DFS", bench_workload, bench_config)
        )
        assert len(points) >= 2
        assert all(count > 0 for count, _ in points)

    def test_result_count_correlates_positively(self, bench_graph, bench_workload, bench_config):
        """Figure 11's observation: more results means more enumeration time.

        Pinned to the kernel tier: these queries have a few hundred results
        each, which the compiled tier enumerates in well under 0.1 ms, so
        its per-query fixed cost, not the result count, would set the time.
        """
        with numpy_reference():
            results = paper.run_queries(bench_graph, "IDX-DFS", bench_workload, bench_config)
        assert loglog_fit(*zip(*paper.count_points(results)))["correlation"] > 0.0
