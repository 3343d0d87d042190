"""Unit tests for the memory projection (Table 7)."""

from __future__ import annotations

import paper


def _row(graph, workload, k, config):
    return paper.memory_row(paper.run_queries(graph, "IDX-JOIN", workload.with_k(k), config))


class TestMemoryConsumption:
    def test_table7_shape(self, bench_graph, bench_workload, bench_config):
        for k in (3, 4):
            row = _row(bench_graph, bench_workload, k, bench_config)
            assert row["index_mb"] > 0.0
            assert row["partial_results_mb"] >= 0.0

    def test_memory_grows_with_k(self, bench_graph, bench_workload, bench_config):
        small = _row(bench_graph, bench_workload, 3, bench_config)
        large = _row(bench_graph, bench_workload, 5, bench_config)
        assert large["index_mb"] >= small["index_mb"]
        assert large["partial_results_mb"] >= small["partial_results_mb"]

    def test_as_row(self, bench_graph, bench_workload, bench_config):
        row = _row(bench_graph, bench_workload, 3, bench_config)
        assert {"index_mb", "partial_results_mb"} == set(row)
