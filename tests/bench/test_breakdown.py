"""Unit tests for the per-phase projections (Figures 6, 7, 17; Table 4)."""

from __future__ import annotations

import paper
import pytest


def _results(graph, workload, algorithm, k, config):
    return paper.run_queries(graph, algorithm, workload.with_k(k), config)


class TestPhaseBreakdown:
    def test_figure7_shape(self, bench_graph, bench_workload, bench_config):
        for k in (3, 4):
            for algorithm in ("IDX-DFS", "BC-DFS"):
                results = _results(bench_graph, bench_workload, algorithm, k, bench_config)
                row = paper.phase_row(results)
                assert set(row) == {"preprocessing_ms", "enumeration_ms"}
                assert row["preprocessing_ms"] >= 0.0
                assert row["enumeration_ms"] >= 0.0


class TestTechniqueBreakdown:
    def test_figure17_columns(self, bench_graph, bench_workload, bench_config):
        row = paper.technique_row(
            _results(bench_graph, bench_workload, "IDX-DFS", 4, bench_config),
            _results(bench_graph, bench_workload, "IDX-JOIN", 4, bench_config),
        )
        expected_columns = {
            "bfs_ms",
            "index_construction_ms",
            "optimization_ms",
            "dfs_ms",
            "join_ms",
            "idx_dfs_throughput",
            "idx_join_throughput",
        }
        assert expected_columns == set(row)
        # BFS is a sub-phase of index construction.
        assert row["bfs_ms"] <= row["index_construction_ms"] + 1e-6
        assert row["idx_dfs_throughput"] > 0.0


class TestDetailedMetrics:
    def test_figure6_shape_and_index_advantage(self, bench_graph, bench_workload, bench_config):
        row = {
            algorithm: paper.detail_row(
                _results(bench_graph, bench_workload, algorithm, 4, bench_config)
            )
            for algorithm in ("BC-DFS", "IDX-DFS")
        }
        for metrics in row.values():
            assert set(metrics) == {"#edges", "#invalid", "#results", "timeout_frac"}
            assert 0.0 <= metrics["timeout_frac"] <= 1.0
        # Neither algorithm is cut by the limit here, so the counts are whole.
        assert row["BC-DFS"]["timeout_frac"] == row["IDX-DFS"]["timeout_frac"] == 0.0
        assert row["BC-DFS"]["#results"] == pytest.approx(row["IDX-DFS"]["#results"])
        # The light-weight index reads no more edges than the raw adjacency scan.
        assert row["IDX-DFS"]["#edges"] <= row["BC-DFS"]["#edges"]


class TestQueryTimeDistribution:
    def test_table4_fractions(self, bench_graph, bench_workload, bench_config):
        limit_ms = bench_config.time_limit_seconds * 1e3
        row = paper.time_distribution(
            _results(bench_graph, bench_workload, "IDX-DFS", 4, bench_config),
            fast_ms=0.5 * limit_ms,
            slow_ms=limit_ms,
        )
        assert 0.0 <= row["fast"] <= 1.0
        assert 0.0 <= row["slow"] <= 1.0
        assert row["fast"] + row["slow"] <= 1.0 + 1e-9
