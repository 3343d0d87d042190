"""Unit tests for the comparison projections (Tables 3, 5, 6 and Figures 13-15)."""

from __future__ import annotations

import paper
import pytest


def _metrics(graph, workload, algorithms, config):
    return {
        name: paper.aggregate(paper.run_queries(graph, name, workload, config))
        for name in algorithms
    }


class TestOverallComparison:
    def test_all_algorithms_reported(self, bench_graph, bench_workload, bench_config):
        metrics = _metrics(
            bench_graph, bench_workload, ["IDX-DFS", "IDX-JOIN", "PathEnum"], bench_config
        )
        for name, metric in metrics.items():
            assert metric["algorithm"] == name
            assert metric["queries"] == len(bench_workload)
            assert metric["query_ms"] > 0.0

    def test_algorithms_agree_on_result_totals(self, bench_graph, bench_workload, bench_config):
        metrics = _metrics(bench_graph, bench_workload, ["IDX-DFS", "BC-DFS"], bench_config)
        assert metrics["IDX-DFS"]["results"] == metrics["BC-DFS"]["results"]


class TestSweepK:
    def test_sweep_produces_one_row_per_k(self, bench_graph, bench_workload, bench_config):
        for k in (3, 4):
            metrics = _metrics(bench_graph, bench_workload.with_k(k), ["IDX-DFS"], bench_config)
            assert metrics["IDX-DFS"]["queries"] == len(bench_workload)

    def test_result_counts_grow_with_k(self, bench_graph, bench_workload, bench_config):
        small, large = (
            _metrics(bench_graph, bench_workload.with_k(k), ["IDX-DFS"], bench_config)["IDX-DFS"]
            for k in (3, 5)
        )
        assert large["results"] >= small["results"]


class TestOutlierSplit:
    def test_split_partitions_all_queries(self, bench_graph, bench_workload, bench_config):
        results = paper.run_queries(bench_graph, "IDX-DFS", bench_workload, bench_config)
        row = paper.outlier_split(results, 50.0)
        assert row["#short"] + row["#long"] == len(results)
        assert row["algorithm"] == "IDX-DFS"

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            paper.outlier_split([], 1.0)


class TestResultCountStatistics:
    def _row(self, graph, workload, k, config):
        return paper.count_row(paper.run_queries(graph, "IDX-DFS", workload.with_k(k), config))

    def test_table6_shape(self, bench_graph, bench_workload, bench_config):
        for k in (3, 4):
            row = self._row(bench_graph, bench_workload, k, bench_config)
            assert row["max_results"] >= row["avg_results"] >= 0.0
            assert row["truncated"] is False

    def test_counts_monotone_in_k(self, bench_graph, bench_workload, bench_config):
        small = self._row(bench_graph, bench_workload, 3, bench_config)
        large = self._row(bench_graph, bench_workload, 5, bench_config)
        assert large["avg_results"] >= small["avg_results"]
        assert large["max_results"] >= small["max_results"]
