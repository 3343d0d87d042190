"""Unit tests for the driver's workload runner and its settings."""

from __future__ import annotations

import paper

from repro.core.engine import IdxDfs
from repro.core.listener import RunConfig


class TestBenchmarkSettings:
    def test_to_run_config(self):
        # The scaled-down Section 7.1 settings every workload run uses.
        assert paper.CONFIG.time_limit_seconds == 1.0
        assert paper.CONFIG.response_k == 100
        assert paper.CONFIG.result_limit is None
        assert paper.CONFIG.store_paths is False
        assert paper.QUERIES == 4
        assert paper.K_SWEEP == (3, 4, 5, 6)


class TestRunWorkload:
    def test_one_result_per_query(self, bench_graph, bench_workload, bench_config):
        results = paper.run_queries(bench_graph, "IDX-DFS", bench_workload, bench_config)
        assert len(results) == len(bench_workload)
        assert all(r.algorithm == "IDX-DFS" for r in results)

    def test_accepts_algorithm_instances(self, bench_graph, bench_workload, bench_config):
        results = paper.run_queries(bench_graph, IdxDfs(), bench_workload, bench_config)
        assert len(results) == len(bench_workload)

    def test_settings_apply_to_every_query(self, bench_graph, bench_workload):
        config = RunConfig(result_limit=1, store_paths=False)
        results = paper.run_queries(bench_graph, "IDX-DFS", bench_workload, config)
        assert all(r.count <= 1 for r in results)

    def test_run_algorithms_keys(self, bench_graph, bench_workload, bench_config):
        per_algorithm = {
            name: paper.run_queries(bench_graph, name, bench_workload, bench_config)
            for name in ("IDX-DFS", "PathEnum")
        }
        counts = {name: [r.count for r in results] for name, results in per_algorithm.items()}
        assert counts["IDX-DFS"] == counts["PathEnum"]

    def test_runs_are_memoised_per_key(self):
        rep = paper.Reproduction()
        first = rep.runs("ye", "IDX-DFS", 3, count=2)
        assert rep.runs("ye", "IDX-DFS", 3, 6, 2) is first
        assert len(first) == 2 and all(r.k == 3 for r in first)
        rescoped = rep.runs("ye", "IDX-DFS", 4, count=2)
        assert [(r.source, r.target) for r in rescoped] == [(r.source, r.target) for r in first]
