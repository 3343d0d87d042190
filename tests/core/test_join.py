"""Unit tests for IDX-JOIN (Algorithm 6)."""

from __future__ import annotations

import pytest

from repro.core.index import LightWeightIndex
from repro.core.join import evaluate_subquery, run_idx_join
from repro.core.listener import Deadline, ResultCollector
from repro.core.query import Query
from repro.core.result import EnumerationStats
from repro.errors import EnumerationTimeout
from repro.graph.builder import from_edges
from repro.graph.generators import complete_graph

from tests.helpers import assert_same_paths, brute_force_paths, brute_force_walks


def _run(graph, query, cut, **collector_kwargs):
    index = LightWeightIndex.build(graph, query)
    collector = ResultCollector(**collector_kwargs)
    stats = EnumerationStats()
    run_idx_join(index, cut, collector, stats=stats)
    return collector, stats


class TestCorrectness:
    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_paper_example_all_cut_positions(self, paper_graph, paper_query, cut):
        collector, _ = _run(paper_graph, paper_query, cut)
        expected = brute_force_paths(
            paper_graph, paper_query.source, paper_query.target, paper_query.k
        )
        assert_same_paths(collector.stored_paths().to_paths(), expected, context=f"IDX-JOIN cut={cut}")

    def test_join_handles_short_paths_via_padding(self):
        # Direct edge s -> t plus a long detour; the cut must not lose the
        # short path even though it is shorter than the cut position.
        graph = from_edges([("s", "t"), ("s", "a"), ("a", "b"), ("b", "c"), ("c", "t")])
        s, t = graph.to_internal("s"), graph.to_internal("t")
        query = Query(s, t, 4)
        expected = brute_force_paths(graph, s, t, 4)
        assert len(expected) == 2
        for cut in (1, 2, 3):
            collector, _ = _run(graph, query, cut)
            assert_same_paths(collector.stored_paths().to_paths(), expected, context=f"cut={cut}")

    def test_join_rejects_tuples_with_duplicate_vertices(self):
        # A walk can revisit a vertex across the cut; the validity filter
        # must drop it (Example 3.2: (s, v0, v6, v0, t) is a walk, not a path).
        graph = from_edges([(0, 1), (1, 2), (2, 1), (1, 3)])
        query = Query(
            graph.to_internal(0), graph.to_internal(3), 4
        )
        collector, _ = _run(graph, query, 2)
        expected = brute_force_paths(graph, query.source, query.target, 4)
        assert_same_paths(collector.stored_paths().to_paths(), expected)

    def test_no_duplicate_results(self, paper_graph, paper_query):
        collector, _ = _run(paper_graph, paper_query, 2)
        assert len(collector.stored_paths().to_paths()) == len(set(collector.stored_paths().to_paths()))

    def test_empty_index_returns_nothing(self):
        graph = from_edges([(0, 1), (2, 3)])
        collector, _ = _run(graph, Query(0, 3, 4), 2)
        assert collector.count == 0

    def test_invalid_cut_positions_rejected(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        with pytest.raises(ValueError):
            run_idx_join(index, 0, ResultCollector())
        with pytest.raises(ValueError):
            run_idx_join(index, paper_query.k, ResultCollector())


class TestSubqueryEvaluation:
    def test_left_subquery_walk_lengths(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        walks = evaluate_subquery(index, start=paper_query.source, offset=0, length=2)
        assert all(len(w) == 3 for w in walks)
        assert all(w[0] == paper_query.source for w in walks)

    def test_right_subquery_walks_end_at_target(self, paper_graph, paper_query):
        g, q = paper_graph, paper_query
        index = LightWeightIndex.build(g, q)
        v0 = g.to_internal("v0")
        walks = evaluate_subquery(index, start=v0, offset=2, length=q.k - 2)
        assert walks, "v0 can reach t within the budget"
        assert all(w[-1] == q.target for w in walks)

    def test_subquery_walks_are_index_walks(self, paper_graph, paper_query):
        """Proposition 6.1: every partial result appears in some walk of W(s,t,k,G)."""
        g, q = paper_graph, paper_query
        index = LightWeightIndex.build(g, q)
        walks = brute_force_walks(g, q.source, q.target, q.k)
        left = evaluate_subquery(index, start=q.source, offset=0, length=2)
        for partial in left:
            stripped = partial
            # Remove any trailing padding before matching against real walks.
            while len(stripped) > 1 and stripped[-1] == q.target and stripped[-2] == q.target:
                stripped = stripped[:-1]
            assert any(walk[: len(stripped)] == stripped for walk in walks), partial


class TestStatisticsAndLimits:
    def test_peak_partial_results_recorded(self, paper_graph, paper_query):
        _, stats = _run(paper_graph, paper_query, 2)
        assert stats.peak_partial_result_tuples > 0
        assert stats.peak_partial_result_bytes > 0
        assert stats.cut_position == 2

    def test_deadline_expiry_raises(self):
        graph = complete_graph(9)
        query = Query(0, 8, 6)
        index = LightWeightIndex.build(graph, query)
        deadline = Deadline(0.0, poll_interval=1)
        with pytest.raises(EnumerationTimeout):
            run_idx_join(index, 3, ResultCollector(store_paths=False), deadline=deadline)

    def test_results_emitted_matches_collector(self, paper_graph, paper_query):
        collector, stats = _run(paper_graph, paper_query, 2)
        assert stats.results_emitted == collector.count == 5


class TestSubqueryBudgetBounds:
    def test_out_of_range_subchain_has_no_walks(self, paper_graph, paper_query):
        """offset + length > k leaves a negative budget: no candidates, no
        walks — the guard must not wrap into the budget-k offset column."""
        from repro.core.index import LightWeightIndex

        index = LightWeightIndex.build(paper_graph, paper_query)
        walks = evaluate_subquery(
            index, start=paper_query.source, offset=paper_query.k, length=1
        )
        assert walks == []
