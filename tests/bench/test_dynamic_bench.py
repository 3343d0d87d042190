"""Unit tests for the dynamic-graph latency measurement (Figure 8)."""

from __future__ import annotations

import paper
import pytest

from repro.workloads.dynamic import build_dynamic_workload


@pytest.fixture(scope="module")
def dynamic_workload(request):
    bench_graph = request.getfixturevalue("bench_graph")
    return build_dynamic_workload(bench_graph, update_fraction=0.05, max_updates=5, k=4, seed=11)


class TestDynamicLatency:
    def test_figure8_series_shape(self, dynamic_workload):
        for k in (3, 4):
            assert paper.dynamic_latency(dynamic_workload, "IDX-DFS", k) > 0.0

    def test_multiple_algorithms(self, dynamic_workload):
        for algorithm in ("IDX-DFS", "BC-DFS"):
            assert paper.dynamic_latency(dynamic_workload, algorithm, 4) > 0.0
        # k = 2 leaves cycle queries of one hop, which the stream skips.
        assert paper.dynamic_latency(dynamic_workload, "IDX-DFS", 2) is None
