"""Unit tests for IDX-DFS (Algorithm 4)."""

from __future__ import annotations

import pytest

from repro.core.dfs import run_idx_dfs
from repro.core.index import LightWeightIndex
from repro.core.listener import Deadline, ResultCollector
from repro.core.query import Query
from repro.core.result import EnumerationStats
from repro.errors import EnumerationTimeout, ResultLimitReached
from repro.graph.builder import from_edges
from repro.graph.generators import complete_graph, grid_graph

from tests.helpers import assert_same_paths, brute_force_paths, brute_force_walks


def _run(graph, query, **collector_kwargs):
    index = LightWeightIndex.build(graph, query)
    collector = ResultCollector(**collector_kwargs)
    stats = EnumerationStats()
    run_idx_dfs(index, collector, stats=stats)
    return collector, stats


class TestCorrectness:
    def test_paper_example(self, paper_graph, paper_query):
        collector, _ = _run(paper_graph, paper_query)
        expected = brute_force_paths(
            paper_graph, paper_query.source, paper_query.target, paper_query.k
        )
        assert_same_paths(collector.stored_paths().to_paths(), expected, context="IDX-DFS")
        assert len(expected) == 5

    def test_results_have_no_duplicates(self, paper_graph, paper_query):
        collector, _ = _run(paper_graph, paper_query)
        assert len(collector.stored_paths().to_paths()) == len(set(collector.stored_paths().to_paths()))

    def test_grid_graph_counts(self, dag_grid):
        # 4x5 grid, corner to corner, exactly 7 hops needed: C(7, 3) = 35 paths.
        query = Query(0, dag_grid.num_vertices - 1, 7)
        collector, _ = _run(dag_grid, query)
        assert collector.count == 35

    def test_no_results_when_target_unreachable(self):
        graph = from_edges([(0, 1), (2, 3)])
        collector, stats = _run(graph, Query(0, 3, 5))
        assert collector.count == 0
        assert stats.edges_accessed == 0

    def test_hop_constraint_boundary(self):
        graph = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        # k = 2 admits only the direct edge (length 1); k = 3 adds the chain.
        collector_k2, _ = _run(graph, Query(0, 3, 2))
        collector_k3, _ = _run(graph, Query(0, 3, 3))
        assert collector_k2.count == 1
        assert collector_k3.count == 2

    def test_paths_never_revisit_source(self):
        # Cycle back to the source must not be used as an intermediate hop.
        graph = from_edges([(0, 1), (1, 0), (1, 2), (0, 2)])
        collector, _ = _run(graph, Query(0, 2, 4))
        for path in collector.stored_paths().to_paths():
            assert path.count(0) == 1

    def test_paths_stop_at_first_target_visit(self):
        # An edge leaving t must never extend a result.
        graph = from_edges([(0, 1), (1, 2), (2, 3), (3, 1)])
        collector, _ = _run(graph, Query(0, 2, 5))
        for path in collector.stored_paths().to_paths():
            assert path[-1] == 2
            assert path.count(2) == 1


class TestStatistics:
    def test_invalid_partial_results_zero_when_all_walks_are_paths(self, figure5_g0):
        g = figure5_g0
        query = Query(g.to_internal("s"), g.to_internal("t"), 4)
        collector, stats = _run(g, query)
        assert collector.count == 8  # Example 5.2: 8 walks, all of them paths
        assert stats.invalid_partial_results == 0

    def test_invalid_partial_results_on_cyclic_graph(self, figure5_g1):
        g = figure5_g1
        query = Query(g.to_internal("s"), g.to_internal("t"), 4)
        collector, stats = _run(g, query)
        assert collector.count == 1  # only (s, v0, t)
        # The cycle v0 -> v1 -> v2 -> v0 creates dead-end partial results.
        assert stats.invalid_partial_results > 0

    def test_edges_accessed_bounded_by_k_times_walks(self, paper_graph, paper_query):
        """The Section 5.2 bound: T <= k * |W(s, t, k, G)|."""
        _, stats = _run(paper_graph, paper_query)
        walks = brute_force_walks(
            paper_graph, paper_query.source, paper_query.target, paper_query.k
        )
        assert stats.edges_accessed <= paper_query.k * len(walks)

    def test_partial_results_count_search_tree_nodes(self, paper_graph, paper_query):
        _, stats = _run(paper_graph, paper_query)
        assert stats.partial_results_generated >= stats.results_emitted
        assert stats.results_emitted == 5


class TestLimitsAndDeadlines:
    def test_result_limit_stops_enumeration(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        collector = ResultCollector(result_limit=2)
        with pytest.raises(ResultLimitReached):
            run_idx_dfs(index, collector)
        assert collector.count == 2

    def test_expired_deadline_raises(self):
        graph = complete_graph(9)
        query = Query(0, 8, 6)
        index = LightWeightIndex.build(graph, query)
        collector = ResultCollector(store_paths=False)
        deadline = Deadline(0.0, poll_interval=1)
        with pytest.raises(EnumerationTimeout):
            run_idx_dfs(index, collector, deadline=deadline)

    def test_collector_not_storing_paths_still_counts(self, paper_graph, paper_query):
        collector, _ = _run(paper_graph, paper_query, store_paths=False)
        assert collector.count == 5
        assert collector.stored_paths() is None
