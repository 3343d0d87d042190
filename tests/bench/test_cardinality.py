"""Unit tests for the cardinality-estimation projection (Figure 18)."""

from __future__ import annotations

import paper


def _row(graph, workload, k, config):
    queries = workload.with_k(k)
    results = paper.run_queries(graph, "IDX-DFS", queries, config)
    return paper.estimation_row(graph, queries, results)


class TestEstimationAccuracy:
    def test_figure18_series_shape(self, bench_graph, bench_workload, bench_config):
        for k in (3, 4):
            row = _row(bench_graph, bench_workload, k, bench_config)
            assert row["#results"] >= 0.0
            assert row["full_fledged"] >= 0.0
            assert row["preliminary"] >= 0.0

    def test_full_fledged_upper_bounds_actual(self, bench_graph, bench_workload, bench_config):
        """The walk count can only over-estimate the simple-path count."""
        row = _row(bench_graph, bench_workload, 4, bench_config)
        assert row["full_fledged"] >= row["#results"]
        assert paper.ratio(row["full_fledged"], row["#results"]) >= 1.0

    def test_estimates_grow_with_k(self, bench_graph, bench_workload, bench_config):
        small = _row(bench_graph, bench_workload, 3, bench_config)
        large = _row(bench_graph, bench_workload, 5, bench_config)
        assert large["#results"] >= small["#results"]
        assert large["full_fledged"] >= small["full_fledged"]

    def test_as_row(self, bench_graph, bench_workload, bench_config):
        row = _row(bench_graph, bench_workload, 3, bench_config)
        assert {"#results", "full_fledged", "preliminary"} == set(row)

    def test_ratio_handles_zero_actual(self):
        assert paper.ratio(0.0, 0.0) == 1.0
        assert paper.ratio(5.0, 0.0) == float("inf")
        assert paper.ratio(6.0, 3.0) == 2.0
