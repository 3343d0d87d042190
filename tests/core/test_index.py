"""Unit tests for the light-weight index (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._clib import jit_ready
from repro.core import index as index_module
from repro.core.index import LightWeightIndex
from repro.core.query import Query
from repro.core.relations import build_relations
from repro.core.result import EnumerationStats, Phase
from repro.graph import traversal
from repro.graph.builder import from_edges
from repro.graph.generators import erdos_renyi
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.graph.traversal import bfs_distances_bounded, multi_source_bfs_distances_bounded

from tests.helpers import assert_same_arrays, assert_same_index_on_x, paper_figure1_graph


@pytest.fixture()
def paper_index(paper_graph, paper_query):
    return LightWeightIndex.build(paper_graph, paper_query)


class TestPartitions:
    def test_paper_example_partition_matches_figure4(self, paper_graph, paper_index):
        """Figure 4a: X[2, 2] = {v4, v6}, v7 is pruned entirely."""
        g = paper_graph
        by_name = {name: g.to_internal(name) for name in ("s", "t", "v0", "v1", "v2", "v3",
                                                          "v4", "v5", "v6", "v7")}
        # v7 has v7.s + v7.t > 4 so it must not be in the index.
        assert not paper_index.contains(by_name["v7"])
        # Distances of Figure 4a.
        assert paper_index.distance_from_s(by_name["v4"]) == 2
        assert paper_index.distance_to_t(by_name["v4"]) == 2
        assert paper_index.distance_from_s(by_name["v6"]) == 2
        assert paper_index.distance_to_t(by_name["v6"]) == 2

    def test_members_respect_position_constraints(self, paper_graph, paper_index, paper_query):
        k = paper_query.k
        for i in range(k + 1):
            for v in paper_index.members(i):
                assert paper_index.distance_from_s(v) <= i
                assert paper_index.distance_to_t(v) <= k - i

    def test_position_zero_contains_only_source(self, paper_index, paper_query):
        assert list(paper_index.members(0)) == [paper_query.source]

    def test_position_k_contains_target(self, paper_index, paper_query):
        assert paper_query.target in paper_index.members(paper_query.k)

    def test_members_out_of_range_is_empty(self, paper_index, paper_query):
        assert len(paper_index.members(-1)) == 0
        assert len(paper_index.members(paper_query.k + 1)) == 0

    def test_candidate_counts_length(self, paper_index, paper_query):
        assert len(paper_index.candidate_counts()) == paper_query.k + 1


class TestNeighborLookups:
    def test_figure4_example_lookup(self, paper_graph, paper_index):
        """I_t(v0, 2) = {t, v1, v6} as in Example 4.4."""
        v0 = paper_graph.to_internal("v0")
        expected = {paper_graph.to_internal(name) for name in ("t", "v1", "v6")}
        assert set(paper_index.neighbors_within(v0, 2)) == expected

    def test_neighbors_sorted_by_distance_to_target(self, paper_graph, paper_index, paper_query):
        for v in range(paper_graph.num_vertices):
            if not paper_index.contains(v) or v == paper_query.target:
                continue
            neighbors = paper_index.neighbors_within(v, paper_query.k)
            distances = [paper_index.distance_to_t(w) for w in neighbors]
            assert distances == sorted(distances)

    def test_budget_zero_returns_only_target(self, paper_graph, paper_index):
        v0 = paper_graph.to_internal("v0")
        t = paper_graph.to_internal("t")
        assert list(paper_index.neighbors_within(v0, 0)) == [t]

    def test_negative_budget_is_empty(self, paper_graph, paper_index):
        v0 = paper_graph.to_internal("v0")
        assert len(paper_index.neighbors_within(v0, -1)) == 0

    def test_budget_above_k_is_clamped(self, paper_graph, paper_index, paper_query):
        v0 = paper_graph.to_internal("v0")
        assert list(paper_index.neighbors_within(v0, 100)) == list(
            paper_index.neighbors_within(v0, paper_query.k)
        )

    def test_unknown_vertex_is_empty(self, paper_index):
        assert len(paper_index.neighbors_within(10_000, 3)) == 0

    def test_count_matches_slice_length(self, paper_graph, paper_index, paper_query):
        for v in range(paper_graph.num_vertices):
            for budget in range(-1, paper_query.k + 1):
                assert paper_index.count_neighbors_within(v, budget) == len(
                    paper_index.neighbors_within(v, budget)
                )

    def test_source_never_appears_as_a_neighbor(self, paper_graph, paper_index, paper_query):
        s = paper_query.source
        for v in range(paper_graph.num_vertices):
            assert s not in paper_index.neighbors_within(v, paper_query.k)

    def test_target_self_loop_is_present(self, paper_index, paper_query):
        t = paper_query.target
        assert list(paper_index.neighbors_within(t, 0)) == [t]

    def test_in_neighbors_within(self, paper_graph, paper_index, paper_query):
        t = paper_query.target
        in_neighbors = paper_index.in_neighbors_within(t, paper_query.k)
        # Every in-neighbour of t in the index must have a forward edge to t.
        for v in in_neighbors:
            assert t in paper_index.neighbors_within(v, paper_query.k)
        # Sorted ascending by distance from s.
        distances = [paper_index.distance_from_s(v) for v in in_neighbors]
        assert distances == sorted(distances)


class TestPruningPower:
    def test_index_edges_match_full_reducer_neighbors(self, paper_graph, paper_query):
        """Appendix B: the index has the same pruning power as Algorithm 2.

        For every vertex v appearing as a source in the reduced relation R_i,
        the neighbours stored in R_i equal I_t(v, k - i) (excluding the
        artificial (t, t) padding tuple).
        """
        index = LightWeightIndex.build(paper_graph, paper_query)
        relations = build_relations(paper_graph, paper_query)
        t = paper_query.target
        k = paper_query.k
        for i in range(1, k + 1):
            relation = relations[i]
            for v in relation.sources():
                if v == t:
                    continue
                from_relation = {w for (u, w) in relation.tuples if u == v}
                from_index = set(index.neighbors_within(v, k - i))
                assert from_relation == from_index, (i, v)

    def test_unreachable_target_produces_empty_index(self):
        graph = from_edges([(0, 1), (2, 3)])
        index = LightWeightIndex.build(graph, Query(0, 3, 4))
        assert index.is_empty

    def test_target_too_far_produces_empty_index(self):
        graph = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        index = LightWeightIndex.build(graph, Query(0, 5, 3))
        assert index.is_empty

    def test_edge_filter_restricts_index(self, paper_graph, paper_query):
        v0 = paper_graph.to_internal("v0")
        t = paper_graph.to_internal("t")
        index = LightWeightIndex.build(
            paper_graph, paper_query, edge_filter=lambda u, v: (u, v) != (v0, t)
        )
        assert t not in index.neighbors_within(v0, paper_query.k)


class TestStatisticsAndTiming:
    def test_stats_are_recorded(self, paper_graph, paper_query):
        stats = EnumerationStats()
        index = LightWeightIndex.build(paper_graph, paper_query, stats=stats)
        assert stats.index_edges == index.num_index_edges
        assert stats.index_vertices == index.num_index_vertices
        assert stats.index_bytes > 0
        assert stats.phase(Phase.INDEX) > 0.0
        assert stats.phase(Phase.BFS) > 0.0
        assert stats.phase(Phase.BFS) <= stats.phase(Phase.INDEX)

    def test_gamma_statistics_are_nonnegative(self, paper_index, paper_query):
        for i in range(paper_query.k):
            assert paper_index.gamma(i) >= 0.0
        assert paper_index.gamma(-1) == 0.0
        assert paper_index.gamma(paper_query.k + 3) == 0.0

    def test_index_edges_never_exceed_graph_edges_plus_loop(self):
        graph = erdos_renyi(100, 4.0, seed=3)
        index = LightWeightIndex.build(graph, Query(0, 1, 4))
        assert index.num_index_edges <= graph.num_edges + 1

    def test_estimated_bytes_positive_for_nonempty_index(self, paper_index):
        assert paper_index.estimated_bytes() > 0

    def test_index_edge_list_is_consistent(self, paper_index, paper_query):
        edges = paper_index.index_edge_list()
        assert len(edges) >= paper_index.num_index_edges
        for u, v in edges:
            assert v in paper_index.neighbors_within(u, paper_query.k)


class TestTiers:
    """The compiled build and its NumPy reference, through the public calls."""

    @pytest.mark.parametrize("k", (2, 4, 6))
    def test_build_group_equals_per_query_build(self, tier, k):
        graph = erdos_renyi(120, 4.0, seed=9)
        t = 5
        queries = [Query(s, t, k) for s in range(0, 120, 7) if s != t]
        dist_to_t = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        rows = multi_source_bfs_distances_bounded(
            graph, [q.source for q in queries], cutoff=k, no_expand=t
        )
        group = LightWeightIndex.build_group(
            graph, queries, dist_from_s_rows=rows, dist_to_t=dist_to_t
        )
        swept = LightWeightIndex.build_group(graph, queries, dist_to_t=dist_to_t)
        assert len(group) == len(swept) == len(queries)
        for query, grouped, pruned in zip(queries, group, swept):
            assert grouped.query == pruned.query == query
            built = LightWeightIndex.build(graph, query, dist_to_t=dist_to_t)
            # Injected full rows agree with the pruned build on X; the
            # group's own sweep is the pruned one, array for array.
            assert_same_index_on_x(grouped, built)
            assert_same_arrays(pruned, built)
            assert pruned.swept_vertices == built.swept_vertices == built.num_index_vertices

    @pytest.mark.skipif(not jit_ready(), reason="compiled C library not loaded")
    def test_compressed_store_takes_the_numpy_path(self, tmp_path, monkeypatch):
        graph = erdos_renyi(120, 4.0, seed=9)
        query = Query(3, 5, 5)
        expected = LightWeightIndex.build(graph, query)
        compressed = load_snapshot(
            save_snapshot(graph, tmp_path / "graph.rsnap", codec="compressed"),
            store="compressed",
        )

        def refuse(*args, **kwargs):
            raise AssertionError("compiled path taken over a compressed store")

        monkeypatch.setattr(index_module, "_prepare_native", refuse)
        monkeypatch.setattr(traversal, "_sweep_native", refuse)
        try:
            assert_same_arrays(LightWeightIndex.build(compressed, query), expected)
        finally:
            compressed.close_store()
