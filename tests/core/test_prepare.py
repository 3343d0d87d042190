"""Algorithm 3 in one call: the forward sweep pruned to X, then the index fill.

An unconstrained :meth:`LightWeightIndex.build` sweeps forward from ``s``
only through ``X = {v : v.s + v.t <= k}``: in one ``repro_prepare`` call
with the C library loaded, in NumPy without it.  These tests hold the
pruned build to the unpruned NumPy build (every array but ``dist_from_s``
outside ``X``, every payload and counter), both tiers to each other, the
``swept_vertices`` counter to what the sweeps did, and every corrupt or
short input to a :class:`GraphError`.
"""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._clib import jit_ready
from repro.api import Database, Q
from repro.core import index as index_module
from repro.core.engine import PathEnum
from repro.core.index import LightWeightIndex
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.traversal import UNREACHABLE, bfs_distances, bfs_distances_bounded
from repro.workloads.datasets import load_dataset

from tests.helpers import assert_same_arrays, assert_same_index_on_x, numpy_reference

requires_compiled = pytest.mark.skipif(not jit_ready(), reason="compiled C library not loaded")

#: The tiers an unconstrained build runs on: as loaded, and NumPy.
TIERS = (contextlib.nullcontext, numpy_reference)

#: The statistics an enumeration over the index reports.
COUNTERS = (
    "plan", "edges_accessed", "partial_results_generated",
    "invalid_partial_results", "index_edges", "index_vertices", "index_bytes",
)


def _graph(n, pairs) -> DiGraph:
    """A CSR graph that keeps duplicate edges and self-loops."""
    pairs = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    src, dst = pairs.T
    out_indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    in_indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))])
    return DiGraph(
        n, out_indptr, np.ascontiguousarray(dst), in_indptr,
        np.ascontiguousarray(src[np.argsort(dst, kind="stable")]),
    )


def _query(s, t, k) -> Query:
    """``q(s, t, k)``, for ``k = 1`` too: a :class:`Query` needs ``k >= 2``,
    but the index itself is defined for one hop."""
    query = Query(s, t, max(k, 2))
    object.__setattr__(query, "k", k)
    return query


def _reverse(graph, query, mode):
    """The injected distances to ``t``: none (the build's own sweep,
    ``no_expand=s``), the session's cached array, or one without a
    cut-off, whose ``v.t`` may exceed ``k``."""
    if mode == "own":
        return None
    cutoff = query.k if mode == "cached" else None
    return bfs_distances_bounded(graph, query.target, cutoff=cutoff, reverse=True)


def _enumerate(graph, query, index):
    result = PathEnum().run(graph, query, RunConfig(store_paths=True), index=index)
    return result.paths, result.count, [getattr(result.stats, name) for name in COUNTERS]


def check_pruned_build(graph, query, mode) -> None:
    """The pruned build on every tier against the unpruned NumPy build."""
    s, t, k = query.source, query.target, query.k
    dt = _reverse(graph, query, mode)
    pruned = []
    for tier in TIERS:
        with tier():
            pruned.append(LightWeightIndex.build(graph, query, dist_to_t=dt))
    compiled, reference = pruned
    assert_same_arrays(compiled, reference)
    assert compiled.swept_vertices == reference.swept_vertices

    # The pruned forward array is exact on X and UNREACHABLE elsewhere.
    rows = reference.rows
    outside = np.ones(graph.num_vertices, dtype=bool)
    outside[rows] = False
    assert (reference.dist_from_s[outside] == UNREACHABLE).all()
    forward_swept = len(rows)
    own_reverse = 0 if dt is not None else int(np.count_nonzero(reference.dist_to_t >= 0))
    assert reference.swept_vertices == forward_swept + own_reverse

    full_forward = bfs_distances_bounded(graph, s, cutoff=k, no_expand=t)
    with numpy_reference():
        full = LightWeightIndex.build(
            graph, query, dist_to_t=reference.dist_to_t, dist_from_s=full_forward
        )
    assert_same_index_on_x(reference, full)
    assert full.swept_vertices == 0  # both arrays were injected
    if k >= 2:
        assert _enumerate(graph, query, compiled) == _enumerate(graph, query, full)


@st.composite
def prepare_case(draw):
    """A small multigraph (duplicate edges, self-loops), a query and one of
    the special shapes: an ``s -> t`` edge, or nothing entering ``t``."""
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=50))
    s = draw(vertex)
    t = draw(vertex.filter(lambda v: v != s))
    shape = draw(st.sampled_from(("any", "s-t edge", "t unreachable")))
    if shape == "s-t edge":
        pairs.append((s, t))
    elif shape == "t unreachable":
        pairs = [(u, v) for u, v in pairs if v != t]
    k = draw(st.sampled_from((1, 2, 3, 4, 6, 9)))
    mode = draw(st.sampled_from(("own", "cached", "unbounded")))
    return _graph(n, pairs), _query(s, t, k), mode


@given(case=prepare_case())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pruned_build_matches_the_unpruned_numpy_build(case):
    check_pruned_build(*case)


class TestNamedCases:
    """The shapes the property test must cover, each pinned once."""

    @pytest.mark.parametrize("mode", ("own", "cached", "unbounded"))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_s_t_edge(self, k, mode):
        graph = _graph(4, [(0, 1), (0, 2), (2, 1), (1, 3), (3, 0), (2, 2), (0, 1)])
        check_pruned_build(graph, _query(0, 1, k), mode)

    @pytest.mark.parametrize("mode", ("own", "cached", "unbounded"))
    def test_t_unreachable(self, mode):
        graph = _graph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        query = _query(0, 3, 3)
        check_pruned_build(graph, query, mode)
        index = LightWeightIndex.build(graph, query, dist_to_t=_reverse(graph, query, mode))
        assert index.is_empty and index.num_index_vertices == 0

    @pytest.mark.parametrize("mode", ("own", "cached", "unbounded"))
    def test_s_further_than_k_gives_an_empty_index(self, mode):
        # A chain of k + 1 hops: without a cut-off v.t of s is k + 1 > k.
        k = 3
        graph = _graph(k + 3, [(v, v + 1) for v in range(k + 1)] + [(1, 0), (2, k + 2)])
        query = _query(0, k + 1, k)
        dt = _reverse(graph, query, mode)
        if mode == "unbounded":
            assert dt[0] == k + 1
        check_pruned_build(graph, query, mode)
        for tier in TIERS:
            with tier():
                index = LightWeightIndex.build(graph, query, dist_to_t=dt)
            assert index.is_empty and index.num_index_vertices == 0
            assert (index.dist_from_s == UNREACHABLE).all()


class TestSweptVertices:
    """``swept_vertices``: what the query's own sweeps gave a distance."""

    @pytest.mark.parametrize("tier", TIERS, ids=("as-loaded", "numpy"))
    def test_forward_sweep_falls_at_least_5x_on_gg(self, tier):
        graph = load_dataset("gg", use_cache=False)
        rng = random.Random(2021)
        k, pruned, full = 4, 0, 0
        targets = rng.sample(range(graph.num_vertices), 20)
        with tier():
            for t in targets:
                dt = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
                near = np.flatnonzero((dt >= 1) & (dt <= k - 1))
                for s in rng.sample(near.tolist(), min(5, len(near))):
                    index = LightWeightIndex.build(graph, Query(s, t, k), dist_to_t=dt)
                    assert index.swept_vertices == index.num_index_vertices > 0
                    pruned += index.swept_vertices
                    unpruned = bfs_distances_bounded(graph, s, cutoff=k, no_expand=t)
                    full += int(np.count_nonzero(unpruned >= 0))
        assert pruned and full >= 5 * pruned, (full, pruned)

    @pytest.mark.parametrize("backend", ("inline", "threads"))
    def test_reverse_sweep_is_charged_to_the_query_that_paid(self, backend):
        graph = erdos_renyi(200, 4.0, seed=5)
        t, k = 7, 4
        triples = [(s, t, k) for s in range(0, 60, 3) if s != t]
        specs = [Q(*triple) for triple in triples]
        dt = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        reverse = int(np.count_nonzero(dt >= 0))
        forward = [
            LightWeightIndex.build(graph, Query(*triple), dist_to_t=dt).swept_vertices
            for triple in triples
        ]
        workers = {"workers": 2} if backend == "threads" else {}
        expected = [forward[0] + reverse] + forward[1:]
        for tier in TIERS:
            with tier():
                with Database(graph) as db:
                    one_by_one = [db.query(spec).result().stats.swept_vertices for spec in specs]
                with Database(graph, backend=backend, **workers) as db:
                    batch = [r.stats.swept_vertices for r in db.batch(specs).results()]
            assert one_by_one == batch == expected


def _corrupt(graph, how):
    """Break ``graph``'s out-CSR in place, as a rewritten store file would."""
    indptr, indices = graph.out_csr()
    if how == "id out of range":
        indices[indptr[0]] = graph.num_vertices + 5
    elif how == "negative id":
        indices[indptr[0]] = -1
    elif how == "truncated indices":
        graph._out_indices = indices[:-2].copy()
    elif how == "truncated indptr":
        graph._out_indptr = indptr[:-1].copy()


class TestTypedErrors:
    """Every corrupt or short input ends in GraphError, on both tiers,
    whether the build sweeps forward itself or is handed the array."""

    @pytest.mark.parametrize("injected", (False, True), ids=("swept", "injected"))
    @pytest.mark.parametrize(
        "how", ("id out of range", "negative id", "truncated indices", "truncated indptr")
    )
    def test_corrupt_out_csr(self, tier, how, injected):
        graph = _graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
        query = Query(0, 3, 3)
        forward = bfs_distances(graph, 0, no_expand=3) if injected else None
        _corrupt(graph, how)
        with pytest.raises(GraphError, match="corrupt graph store"):
            LightWeightIndex.build(graph, query, dist_from_s=forward)

    @pytest.mark.parametrize("which", ("dist_to_t", "dist_from_s"))
    def test_distance_array_of_the_wrong_length(self, tier, which):
        graph = _graph(4, [(0, 1), (1, 2), (2, 3)])
        short = np.zeros(graph.num_vertices - 1, dtype=np.int64)
        with pytest.raises(GraphError, match="vertex count"):
            LightWeightIndex.build(graph, Query(0, 3, 3), **{which: short})


def _tiny_scratch():
    """Lend this thread a ``repro_prepare`` scratch with room for one row,
    one cell and one edge, so the next build's first call falls short."""
    scratch = index_module._PrepareScratch()
    scratch.row_cap = scratch.cell_cap = scratch.edge_cap = 1
    index_module._PREPARE_SCRATCH.give(scratch)


class _Calls:
    """The loaded library with ``repro_prepare`` calls recorded, and an
    optional hook run after each."""

    def __init__(self, after=None):
        self._lib = index_module._library()
        self.statuses = []
        self._after = after

    def repro_prepare(self, *args):
        status = self._lib.repro_prepare(*args)
        self.statuses.append(status)
        if self._after is not None:
            self._after(args, status)
        return status


@requires_compiled
class TestScratch:
    @pytest.mark.parametrize("injected", (False, True), ids=("swept", "injected"))
    def test_too_small_on_the_first_call_grows_and_reissues(self, monkeypatch, injected):
        graph = erdos_renyi(150, 4.0, seed=13)
        t, k = 9, 5
        dt = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        s = int(np.flatnonzero((dt >= 2) & (dt < k))[0])
        query = Query(s, t, k)
        forward = bfs_distances(graph, s, no_expand=t) if injected else None
        with numpy_reference():
            expected = LightWeightIndex.build(graph, query, dist_from_s=forward)
        calls = _Calls()
        monkeypatch.setattr(index_module, "_native_builder", lambda graph: calls)
        _tiny_scratch()
        built = LightWeightIndex.build(graph, query, dist_from_s=forward)
        assert calls.statuses == [index_module.NEED, 0]
        assert_same_arrays(built, expected)
        assert built.swept_vertices == expected.swept_vertices
        # The grown scratch stays with the thread: the next build is one call.
        LightWeightIndex.build(graph, query, dist_from_s=forward)
        assert calls.statuses == [index_module.NEED, 0, 0]

    def test_neighbours_rewritten_before_the_reissue_raise(self, monkeypatch):
        """A neighbour array that grows the index between the short call and
        its re-issue (a store mapped from a file someone rewrote) raises,
        and the re-issue writes nothing past the grown edge buffer."""
        graph = from_edges([(0, 1), (1, 2), (1, 4), (2, 3)])
        s, t, isolated = (graph.to_internal(v) for v in (0, 3, 4))
        indices = graph.out_csr()[1]
        position = int(np.flatnonzero(indices == isolated)[0])
        edges_arg, cap_arg = 21, 22
        guard = {}

        def after(args, status):
            if "buffer" not in guard:
                indices[position] = t  # 1 -> 3 now joins the index
                return
            buffer = guard["buffer"]
            assert (buffer[args[cap_arg]:] == -7).all(), "re-issue wrote past its edge buffer"

        calls = _Calls(after)

        class Guarded:
            def repro_prepare(self, *args):
                if calls.statuses:
                    args = list(args)
                    guard["buffer"] = np.full(args[cap_arg] + 8, -7, dtype=np.int64)
                    args[edges_arg] = guard["buffer"].ctypes.data
                return calls.repro_prepare(*args)

        monkeypatch.setattr(index_module, "_native_builder", lambda graph: Guarded())
        _tiny_scratch()
        with pytest.raises(GraphError, match="corrupt graph store"):
            LightWeightIndex.build(graph, Query(s, t, 3))
        assert calls.statuses == [index_module.NEED, index_module.NEED]
