"""Unit tests for the join-plan spectrum (Figure 9 and the cut ablation)."""

from __future__ import annotations

import paper
import pytest


@pytest.fixture(scope="module")
def analysis(request):
    bench_graph = request.getfixturevalue("bench_graph")
    bench_workload = request.getfixturevalue("bench_workload")
    return paper.spectrum(bench_graph, bench_workload.queries[0])


def _points(analysis, plan):
    return [p for p in analysis["points"] if p["plan"] == plan]


class TestSpectrumAnalysis:
    def test_one_left_deep_and_k_minus_one_bushy_plans(self, analysis, bench_workload):
        k = bench_workload.k
        assert len(_points(analysis, "left-deep")) == 1
        assert len(_points(analysis, "bushy")) == k - 1
        cuts = {p["cut"] for p in _points(analysis, "bushy")}
        assert cuts == set(range(1, k))
        assert analysis["chosen_cut"] in cuts

    def test_every_plan_finds_the_same_results(self, analysis):
        counts = {p["results"] for p in analysis["points"] if not p["timed_out"]}
        assert len(counts) == 1

    def test_optimizer_overhead_is_measured(self, analysis):
        assert analysis["index_ms"] > 0.0
        assert analysis["optimization_ms"] > 0.0
        assert analysis["pathenum_ms"] > 0.0
        assert analysis["pathenum_plan"] in ("dfs", "join")

    def test_best_point_is_minimal(self, analysis):
        # The cut ablation reads the left-deep time off the first point and
        # picks its best cut among the bushy points, which come in cut order.
        assert analysis["points"][0]["plan"] == "left-deep"
        bushy = _points(analysis, "bushy")
        assert [p["cut"] for p in bushy] == sorted(p["cut"] for p in bushy)
        assert all(p["enumeration_ms"] > 0.0 for p in analysis["points"])

    def test_rows_are_serialisable(self, analysis):
        for point in analysis["points"]:
            assert {"plan", "cut", "enumeration_ms", "results", "timed_out"} == set(point)
