"""Integration tests: every algorithm must produce the same result sets."""

from __future__ import annotations

import pytest

from repro.baselines.registry import available_algorithms, get_algorithm
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import paths_are_valid
from repro.graph.generators import erdos_renyi, power_law_graph, small_world_graph

from tests.helpers import brute_force_paths

#: Algorithms exercised in the full cross-check (T-DFS is excluded from the
#: larger sweeps: its one shortest-path check per candidate makes it slow).
FAST_ALGORITHMS = ("IDX-DFS", "IDX-JOIN", "PathEnum", "BC-DFS", "BC-JOIN", "GenericDFS", "FullJoin")
ALL_ALGORITHMS = FAST_ALGORITHMS + ("T-DFS",)


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_paper_example_agreement(paper_graph, paper_query, name):
    expected = brute_force_paths(
        paper_graph, paper_query.source, paper_query.target, paper_query.k
    )
    result = get_algorithm(name).run(paper_graph, paper_query)
    assert set(result.paths) == expected


@pytest.mark.parametrize("name", FAST_ALGORITHMS)
@pytest.mark.parametrize(
    "graph_factory,endpoints",
    [
        (lambda: erdos_renyi(70, 3.5, seed=101), (0, 1)),
        (lambda: power_law_graph(90, 4.0, exponent=2.0, seed=102), (1, 2)),
        (lambda: small_world_graph(60, 3, rewire_probability=0.2, seed=103), (0, 30)),
    ],
)
@pytest.mark.parametrize("k", [3, 5])
def test_agreement_across_topologies(name, graph_factory, endpoints, k):
    graph = graph_factory()
    source, target = endpoints
    expected = brute_force_paths(graph, source, target, k)
    result = get_algorithm(name).run(graph, Query(source, target, k))
    assert set(result.paths) == expected, name
    assert paths_are_valid(result.paths, source, target, k)


@pytest.mark.parametrize("name", FAST_ALGORITHMS)
def test_counting_mode_matches_path_mode(paper_graph, paper_query, name):
    algorithm = get_algorithm(name)
    with_paths = algorithm.run(paper_graph, paper_query, RunConfig(store_paths=True))
    counting = algorithm.run(paper_graph, paper_query, RunConfig(store_paths=False))
    assert with_paths.count == counting.count == len(with_paths.paths)


def test_registry_covers_every_paper_algorithm():
    names = set(available_algorithms())
    assert {"BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum"} <= names


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_k_sweep_agreement_on_skewed_graph(skewed_graph, k):
    """The hard-workload shape: hub-to-hub queries across a range of k."""
    degrees = [
        (skewed_graph.out_degree(v) + skewed_graph.in_degree(v), v)
        for v in skewed_graph.vertices()
    ]
    degrees.sort(reverse=True)
    source, target = degrees[0][1], degrees[1][1]
    if source == target:
        pytest.skip("degenerate degree ordering")
    expected = brute_force_paths(skewed_graph, source, target, k)
    for name in ("IDX-DFS", "IDX-JOIN", "PathEnum", "BC-DFS"):
        result = get_algorithm(name).run(skewed_graph, Query(source, target, k))
        assert set(result.paths) == expected, (name, k)
