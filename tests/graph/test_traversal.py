"""Unit tests for BFS traversals, distances and shortest paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.generators import chain_graph, erdos_renyi, grid_graph
from repro.graph.traversal import (
    UNREACHABLE,
    bfs_distances,
    bfs_distances_bounded,
    distance,
    has_path_within,
    multi_source_bfs_distances_bounded,
    shortest_path,
)

from tests.helpers import numpy_reference, paper_figure1_graph


class TestBfsDistances:
    """On the default tier: the compiled sweep when the C library loads."""

    def test_chain_distances(self):
        graph = chain_graph(6)
        dist = bfs_distances(graph, 0)
        assert list(dist) == [0, 1, 2, 3, 4, 5]

    def test_reverse_distances(self):
        graph = chain_graph(6)
        dist = bfs_distances(graph, 5, reverse=True)
        assert list(dist) == [5, 4, 3, 2, 1, 0]

    def test_unreachable_marked(self):
        graph = from_edges([(0, 1), (2, 3)])
        dist = bfs_distances(graph, 0)
        assert dist[1] == 1
        assert dist[2] == UNREACHABLE
        assert dist[3] == UNREACHABLE

    def test_cutoff_limits_expansion(self):
        graph = chain_graph(10)
        dist = bfs_distances_bounded(graph, 0, cutoff=3)
        assert dist[3] == 3
        assert dist[4] == UNREACHABLE

    def test_excluded_vertex_is_removed(self):
        # 0 -> 1 -> 2 and 0 -> 2 via 3: excluding 1 forces the longer route.
        graph = from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
        dist = bfs_distances(graph, 0, excluded=1)
        assert dist[1] == UNREACHABLE
        assert dist[2] == 3

    def test_excluding_the_source_yields_all_unreachable(self):
        graph = chain_graph(4)
        dist = bfs_distances(graph, 0, excluded=0)
        assert all(d == UNREACHABLE for d in dist)

    def test_no_expand_vertex_gets_distance_but_is_not_expanded(self):
        # 0 -> 1 -> 2: with no_expand=1, vertex 1 is labelled but 2 stays
        # unreachable because paths through 1 are forbidden.
        graph = from_edges([(0, 1), (1, 2)])
        dist = bfs_distances(graph, 0, no_expand=1)
        assert dist[1] == 1
        assert dist[2] == UNREACHABLE

    def test_no_expand_on_paper_graph_matches_interior_exclusion(self):
        graph = paper_figure1_graph()
        s = graph.to_internal("s")
        t = graph.to_internal("t")
        dist = bfs_distances(graph, s, no_expand=t)
        # v2 is reachable without passing through t.
        assert dist[graph.to_internal("v2")] == 2
        # t itself still receives its distance.
        assert dist[t] == 2

    def test_edge_filter_restricts_traversal(self):
        graph = from_edges([(0, 1), (1, 2), (0, 2)])
        dist = bfs_distances_bounded(graph, 0, edge_filter=lambda u, v: (u, v) != (0, 2))
        assert dist[2] == 2

    def test_edge_filter_in_reverse_direction_uses_original_orientation(self):
        graph = from_edges([(0, 1), (1, 2)])
        seen = []

        def record(u, v):
            seen.append((u, v))
            return True

        bfs_distances_bounded(graph, 2, reverse=True, edge_filter=record)
        assert (1, 2) in seen and (0, 1) in seen

    def test_no_expand_source_is_still_expanded(self):
        graph = chain_graph(4)
        dist = bfs_distances(graph, 0, no_expand=0)
        assert list(dist) == [0, 1, 2, 3]

    def test_zero_cutoff_reaches_only_the_source(self):
        graph = chain_graph(4)
        dist = bfs_distances_bounded(graph, 1, cutoff=0)
        assert list(dist) == [UNREACHABLE, 0, UNREACHABLE, UNREACHABLE]

    def test_multi_source_rows_equal_single_source_sweeps(self):
        graph = erdos_renyi(50, 3.0, seed=4)
        sources = list(range(0, 50, 3))
        for reverse in (False, True):
            rows = multi_source_bfs_distances_bounded(
                graph, sources, cutoff=3, reverse=reverse, no_expand=7
            )
            for row, s in zip(rows, sources):
                expected = bfs_distances_bounded(
                    graph, s, cutoff=3, reverse=reverse, no_expand=7
                )
                assert np.array_equal(row, expected), (reverse, s)


class TestBfsDistancesNumpyReference(TestBfsDistances):
    """Every case above again on the NumPy sweeps, the reference that
    ``REPRO_NATIVE=off`` selects."""

    @pytest.fixture(autouse=True)
    def _numpy_tier(self):
        with numpy_reference():
            yield


class TestDistance:
    def test_distance_simple(self):
        graph = chain_graph(5)
        assert distance(graph, 0, 4) == 4
        assert distance(graph, 4, 0) == UNREACHABLE

    def test_distance_to_self_is_zero(self):
        graph = chain_graph(3)
        assert distance(graph, 1, 1) == 0

    def test_distance_with_cutoff(self):
        graph = chain_graph(10)
        assert distance(graph, 0, 9, cutoff=5) == UNREACHABLE
        assert distance(graph, 0, 4, cutoff=5) == 4

    def test_distance_with_excluded_vertex(self):
        graph = from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
        assert distance(graph, 0, 2) == 2
        assert distance(graph, 0, 2, excluded=1) == 3

    def test_has_path_within(self):
        graph = chain_graph(6)
        assert has_path_within(graph, 0, 3, 3)
        assert not has_path_within(graph, 0, 5, 3)


class TestShortestPath:
    def test_shortest_path_on_grid(self):
        graph = grid_graph(3, 3)
        path = shortest_path(graph, 0, 8)
        assert path is not None
        assert path[0] == 0 and path[-1] == 8
        assert len(path) - 1 == 4

    def test_shortest_path_respects_forbidden_vertices(self):
        graph = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        path = shortest_path(graph, 0, 3, forbidden=[1])
        assert path == [0, 2, 3]

    def test_shortest_path_none_when_disconnected(self):
        graph = from_edges([(0, 1), (2, 3)])
        assert shortest_path(graph, 0, 3) is None

    def test_shortest_path_source_equals_target(self):
        graph = chain_graph(3)
        assert shortest_path(graph, 1, 1) == [1]

    def test_shortest_path_none_when_source_forbidden(self):
        graph = chain_graph(3)
        assert shortest_path(graph, 0, 2, forbidden=[0]) is None
