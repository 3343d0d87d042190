"""Property-based equivalence: CSR index vs. the dict-era reference semantics.

``_reference_index`` below is a faithful port of the original per-vertex
dict/list implementation of Algorithm 3 (the pre-CSR ``LightWeightIndex``).
Hypothesis drives random graphs and queries through both implementations and
asserts that every observable of the index is identical: candidate
partitions, neighbour lookups at every budget, gamma statistics, edge counts
and — through the engines — the enumerated path sets.  The batch executor is
held to the same standard against sequential runs.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._clib import jit_ready
from repro.api import Database, Q
from repro.core.engine import PathEnum
from repro.core.index import LightWeightIndex
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.generators import power_law_graph
from repro.graph.traversal import (
    UNREACHABLE,
    bfs_distances_bounded,
    multi_source_bfs_distances_bounded,
)

from tests.helpers import assert_same_arrays, brute_force_paths, numpy_reference

MAX_VERTICES = 12


@st.composite
def graph_and_query(draw):
    """A random directed graph plus a valid query on it."""
    num_vertices = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    possible_edges = [
        (u, v) for u in range(num_vertices) for v in range(num_vertices) if u != v
    ]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), min_size=1, max_size=60, unique=True)
    )
    builder = GraphBuilder()
    for v in range(num_vertices):
        builder.add_vertex(v)
    builder.add_edges(edges)
    graph = builder.build()
    source = draw(st.integers(min_value=0, max_value=num_vertices - 1))
    target = draw(
        st.integers(min_value=0, max_value=num_vertices - 1).filter(lambda v: v != source)
    )
    k = draw(st.integers(min_value=2, max_value=6))
    return graph, Query(source, target, k)


def _reference_index(graph, query):
    """The dict-backed Algorithm 3 exactly as the seed implemented it."""
    s, t, k = query.source, query.target, query.k
    ds = bfs_distances_bounded(graph, s, cutoff=k, no_expand=t)
    dt = bfs_distances_bounded(graph, t, cutoff=k, reverse=True, no_expand=s)

    in_x = [
        ds[v] != UNREACHABLE and dt[v] != UNREACHABLE and ds[v] + dt[v] <= k
        for v in range(graph.num_vertices)
    ]
    members = [v for v in range(graph.num_vertices) if in_x[v]]

    neighbors = {}
    ends = {}
    num_index_edges = 0
    for v in members:
        if v == t:
            continue
        budget = k - int(ds[v]) - 1
        if budget < 0:
            continue
        collected = []
        for v_next in graph.neighbors(v):
            v_next = int(v_next)
            if v_next == s:
                continue
            d_next = int(dt[v_next])
            if d_next == UNREACHABLE or d_next > budget:
                continue
            collected.append(v_next)
        collected.sort(key=lambda w: int(dt[w]))
        neighbors[v] = collected
        end_positions = [0] * (k + 1)
        position = 0
        for b in range(k + 1):
            while position < len(collected) and int(dt[collected[position]]) <= b:
                position += 1
            end_positions[b] = position
        ends[v] = end_positions
        num_index_edges += len(collected)

    if in_x[t]:
        neighbors[t] = [t]
        ends[t] = [1] * (k + 1)
        num_index_edges += 1

    partitions = [[] for _ in range(k + 1)]
    for v in members:
        for i in range(int(ds[v]), k - int(dt[v]) + 1):
            partitions[i].append(v)

    gamma = []
    for i in range(k):
        candidates = partitions[i]
        if not candidates:
            gamma.append(0.0)
            continue
        budget = k - i - 1
        total = 0
        for v in candidates:
            end_positions = ends.get(v)
            if end_positions is not None and budget >= 0:
                total += end_positions[budget]
        gamma.append(total / len(candidates))

    return {
        "neighbors": neighbors,
        "ends": ends,
        "partitions": partitions,
        "gamma": gamma,
        "num_index_edges": num_index_edges,
        "members": members,
    }


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(case=graph_and_query())
@_SETTINGS
def test_csr_index_matches_reference_semantics(case):
    graph, query = case
    index = LightWeightIndex.build(graph, query)
    reference = _reference_index(graph, query)
    k = query.k

    # Vertex retention and candidate partitions.
    for v in range(graph.num_vertices):
        assert index.contains(v) == (v in reference["ends"]), v
    for i in range(k + 1):
        assert list(index.members(i)) == reference["partitions"][i], i
    assert index.candidate_counts() == [len(p) for p in reference["partitions"]]

    # Neighbour lookups at every budget, including the offset boundaries.
    for v in range(graph.num_vertices):
        stored = reference["neighbors"].get(v, [])
        stored_ends = reference["ends"].get(v)
        for budget in range(-1, k + 2):
            expected = (
                []
                if stored_ends is None or budget < 0
                else stored[: stored_ends[min(budget, k)]]
            )
            assert list(index.neighbors_within(v, budget)) == expected, (v, budget)
            assert index.count_neighbors_within(v, budget) == len(expected), (v, budget)

    # Statistics feeding the estimator and the memory accounting.
    assert index.num_index_edges == reference["num_index_edges"]
    assert index.num_index_vertices == len(reference["ends"])
    for i in range(k):
        assert math.isclose(index.gamma(i), reference["gamma"][i], abs_tol=1e-12), i


@given(case=graph_and_query())
@_SETTINGS
def test_csr_in_neighbors_match_reference(case):
    graph, query = case
    index = LightWeightIndex.build(graph, query)
    reference = _reference_index(graph, query)
    ds = index.dist_from_s
    k = query.k

    in_neighbors = {v: [] for v in reference["ends"]}
    for u, targets in reference["neighbors"].items():
        for v in targets:
            if v == u:
                continue
            in_neighbors.setdefault(v, []).append(u)
    for v, sources in in_neighbors.items():
        sources.sort(key=lambda w: int(ds[w]))
        for budget in range(k + 1):
            expected = [u for u in sources if int(ds[u]) <= budget]
            assert list(index.in_neighbors_within(v, budget)) == expected, (v, budget)


@given(case=graph_and_query())
@_SETTINGS
def test_batch_executor_matches_sequential_and_brute_force(case):
    graph, query = case
    # Two queries sharing the target: the second must hit the BFS cache and
    # still agree with both the sequential engine and the brute force.
    other_source = next(
        (v for v in range(graph.num_vertices) if v not in (query.source, query.target)),
        None,
    )
    queries = [query]
    if other_source is not None:
        queries.append(Query(other_source, query.target, query.k))

    config = RunConfig(store_paths=True)
    sequential = [PathEnum().run(graph, q, config) for q in queries]
    with Database(graph) as db:
        stream = db.batch(queries)
        batch_results = stream.results()
        assert db._backend.session.stats.reverse_bfs_runs == 1

    assert stream.stats().bfs_cache_hits == len(queries) - 1
    for seq_result, batch_result, q in zip(sequential, batch_results, queries):
        expected = brute_force_paths(graph, q.source, q.target, q.k)
        assert set(seq_result.paths) == expected
        assert set(batch_result.paths) == expected
        assert batch_result.count == seq_result.count


#: Hop bounds below and above the graph sizes: small ones make the
#: distance cut-offs bite, large ones leave every walk in.
SMALL_OR_LARGE_HOPS = st.one_of(
    st.integers(min_value=2, max_value=6), st.integers(min_value=7, max_value=40)
)


@st.composite
def multigraph_and_query(draw):
    """Random CSR graphs that keep duplicate edges, self-loops and isolated
    vertices (GraphBuilder drops the first two), with k up to 40."""
    n = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = st.lists(st.tuples(vertex, vertex), min_size=n, max_size=60)
    pairs = np.asarray(sorted(draw(edges)), dtype=np.int64)
    src, dst = pairs.reshape(-1, 2).T
    out_indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    in_indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))])
    graph = DiGraph(
        n, out_indptr, np.ascontiguousarray(dst), in_indptr,
        np.ascontiguousarray(src[np.argsort(dst, kind="stable")]),
    )
    source = draw(vertex)
    target = draw(vertex.filter(lambda v: v != source))
    return graph, Query(source, target, draw(SMALL_OR_LARGE_HOPS))


@st.composite
def sweep_case(draw):
    """A multigraph, a source and every option of the bounded sweep,
    ``no_expand == source`` included."""
    graph, query = draw(multigraph_and_query())
    vertex = st.integers(min_value=0, max_value=graph.num_vertices - 1)
    options = {
        "cutoff": draw(st.one_of(st.none(), st.just(0), SMALL_OR_LARGE_HOPS)),
        "reverse": draw(st.booleans()),
        "excluded": draw(st.one_of(st.none(), vertex)),
        "no_expand": draw(st.one_of(st.none(), st.just(query.source), vertex)),
    }
    return graph, query.source, options


requires_compiled = pytest.mark.skipif(not jit_ready(), reason="compiled C library not loaded")


@requires_compiled
@given(case=sweep_case())
@_SETTINGS
def test_compiled_sweep_matches_numpy_sweep(case):
    graph, source, options = case
    compiled = bfs_distances_bounded(graph, source, **options)
    with numpy_reference():
        reference = bfs_distances_bounded(graph, source, **options)
    assert compiled.dtype == reference.dtype == np.int64
    assert np.array_equal(compiled, reference)

    # The multi-source sweep over every vertex at once (it takes no
    # excluded vertex and always a cutoff).
    every = range(graph.num_vertices)
    multi = dict(options, cutoff=options["cutoff"] or 0)
    del multi["excluded"]
    rows = multi_source_bfs_distances_bounded(graph, every, **multi)
    with numpy_reference():
        reference_rows = multi_source_bfs_distances_bounded(graph, every, **multi)
    assert rows.dtype == reference_rows.dtype and rows.shape == reference_rows.shape
    assert np.array_equal(rows, reference_rows)


@requires_compiled
@given(case=multigraph_and_query())
@_SETTINGS
def test_compiled_index_matches_numpy_index(case):
    graph, query = case
    t, k = query.target, query.k

    def builds():
        group = LightWeightIndex.build_group(
            graph, [query],
            dist_from_s_rows=multi_source_bfs_distances_bounded(
                graph, [query.source], cutoff=k, no_expand=t
            ),
            dist_to_t=bfs_distances_bounded(graph, t, cutoff=k, reverse=True),
        )
        return LightWeightIndex.build(graph, query), group[0]

    compiled = builds()
    with numpy_reference():
        reference = builds()
    for actual, expected in zip(compiled, reference):
        assert_same_arrays(actual, expected)


@requires_compiled
def test_payload_bytes_identical_on_both_tiers():
    """Many cheap k=4 queries on distinct targets: every one runs both
    sweeps and an index build, so these bytes cover the compiled tier."""
    graph = power_law_graph(300, 4.0, exponent=2.1, seed=21)
    rng = random.Random(21)
    specs = [Q(*rng.sample(range(graph.num_vertices), 2), rng.randint(2, 5)) for _ in range(60)]

    def payloads():
        with Database(graph) as db:
            return [db.query(spec).payload_bytes() for spec in specs] + [
                db.batch(specs).payload_bytes()
            ]

    compiled = payloads()
    with numpy_reference():
        assert payloads() == compiled
