"""Additional hypothesis properties: join cuts, reverse enumeration, constraints.

These complement ``test_property_based.py`` with the invariants introduced by
the plan-space pieces: every cut position of the index join, the reverse
index DFS, and the equivalence between predicate-constrained evaluation and
evaluation on the explicitly filtered graph.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constraints import PredicateConstraint
from repro.core.engine import IdxDfs, PathEnum
from repro.core.index import LightWeightIndex
from repro.core.join import run_idx_join
from repro.core.listener import ResultCollector, RunConfig
from repro.core.query import Query
from repro.core.reverse import IdxDfsReverse
from repro.graph.builder import GraphBuilder

from tests.helpers import brute_force_paths

MAX_VERTICES = 10

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_query(draw):
    num_vertices = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    possible_edges = [
        (u, v) for u in range(num_vertices) for v in range(num_vertices) if u != v
    ]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), min_size=1, max_size=40, unique=True)
    )
    builder = GraphBuilder()
    for v in range(num_vertices):
        builder.add_vertex(v)
    for u, v in edges:
        builder.add_edge(u, v, weight=float((u * 7 + v * 3) % 5) + 0.5)
    graph = builder.build()
    source = draw(st.integers(min_value=0, max_value=num_vertices - 1))
    target = draw(
        st.integers(min_value=0, max_value=num_vertices - 1).filter(lambda v: v != source)
    )
    k = draw(st.integers(min_value=2, max_value=5))
    return graph, Query(source, target, k)


@given(case=graph_and_query())
@_SETTINGS
def test_every_cut_position_yields_the_same_results(case):
    graph, query = case
    expected = brute_force_paths(graph, query.source, query.target, query.k)
    index = LightWeightIndex.build(graph, query)
    for cut in range(1, query.k):
        collector = ResultCollector()
        run_idx_join(index, cut, collector)
        assert set(collector.stored_paths().to_paths()) == expected, cut


@given(case=graph_and_query())
@_SETTINGS
def test_reverse_enumeration_matches_forward(case):
    graph, query = case
    forward = IdxDfs().run(graph, query)
    backward = IdxDfsReverse().run(graph, query)
    assert set(forward.paths) == set(backward.paths)


@given(case=graph_and_query(), threshold=st.sampled_from([1.0, 2.5, 4.0]))
@_SETTINGS
def test_predicate_constraint_equals_filtered_graph(case, threshold):
    """Constrained evaluation == plain evaluation on the materialised subgraph."""
    graph, query = case
    constraint = PredicateConstraint(lambda u, v, w, lbl: w >= threshold, graph)
    constrained = PathEnum().run(graph, query, RunConfig(constraint=constraint))

    filtered = graph.filter_edges(lambda u, v, w, lbl: w >= threshold)
    expected = brute_force_paths(filtered, query.source, query.target, query.k)
    assert set(constrained.paths) == expected
