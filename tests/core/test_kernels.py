"""Equivalence and unit tests for the iterative enumeration kernels.

The contract under test: :func:`run_dfs_kernel` / :func:`run_join_kernel`
emit exactly the same paths in exactly the same order as the recursive
engines, charge the same statistics counters, and behave identically under
result-limit interruption; deadline interruption yields a prefix of the
full enumeration.  On top sit unit tests for the columnar plumbing the
kernels introduced: :class:`PathBuffer`, block emission on the collector,
buffer-backed :class:`QueryResult` and the kernel tier inside the full
algorithms.
"""

from __future__ import annotations

import json
import pickle
import random
import struct

import numpy as np
import pytest

from repro.core.dfs import run_idx_dfs
from repro.core import engine as engine_module
from repro.core.engine import IdxDfs, IdxJoin, PathEnum
from repro.core.index import LightWeightIndex
from repro.core.join import run_idx_join
from repro.core.kernels import run_dfs_kernel, run_join_kernel, run_subquery_kernel
from repro.core.join import evaluate_subquery
from repro.core.listener import Deadline, ResultCollector, RunConfig
from repro.core.query import Query
from repro.core.result import EnumerationStats, PathBuffer, QueryResult
from repro.core.constraints import PredicateConstraint
from repro.errors import EnumerationTimeout, ResultLimitReached
from repro.graph.generators import complete_graph, erdos_renyi

from tests.helpers import accept_all, numpy_reference

#: Counters that must agree exactly between a kernel and a recursive run.
COUNTERS = (
    "edges_accessed",
    "partial_results_generated",
    "invalid_partial_results",
    "results_emitted",
)


def _paths_of(collector: ResultCollector):
    stored = collector.stored_paths()
    if isinstance(stored, PathBuffer):
        return stored.to_paths()
    return stored


def _random_cases(count: int, seed: int = 11):
    rng = random.Random(seed)
    for trial in range(count):
        graph = erdos_renyi(
            rng.randint(8, 40), rng.uniform(1.5, 5.0), seed=1000 + trial
        )
        s, t = rng.sample(range(graph.num_vertices), 2)
        k = rng.randint(2, 7)
        yield rng, graph, Query(s, t, k)


class TestDfsKernelEquivalence:
    def test_paper_example(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        recursive = ResultCollector()
        run_idx_dfs(index, recursive)
        kernel = ResultCollector()
        run_dfs_kernel(index, kernel)
        assert _paths_of(kernel) == _paths_of(recursive)
        assert kernel.count == recursive.count == 5

    def test_random_graphs_same_paths_same_order_same_stats(self):
        nonempty = 0
        for _, graph, query in _random_cases(40):
            index = LightWeightIndex.build(graph, query)
            c_rec, s_rec = ResultCollector(), EnumerationStats()
            run_idx_dfs(index, c_rec, stats=s_rec)
            c_ker, s_ker = ResultCollector(), EnumerationStats()
            run_dfs_kernel(index, c_ker, stats=s_ker)
            assert _paths_of(c_ker) == _paths_of(c_rec)
            assert c_ker.count == c_rec.count
            for counter in COUNTERS:
                assert getattr(s_ker, counter) == getattr(s_rec, counter), counter
            nonempty += bool(c_rec.count)
        assert nonempty >= 10  # the sweep must actually exercise enumeration

    def test_k2_inline_scan(self):
        # k == 2 takes the dedicated root-scan path of the kernel.
        for _, graph, query in _random_cases(15, seed=5):
            query = query.with_k(2)
            index = LightWeightIndex.build(graph, query)
            c_rec = ResultCollector()
            run_idx_dfs(index, c_rec)
            c_ker = ResultCollector()
            run_dfs_kernel(index, c_ker)
            assert _paths_of(c_ker) == _paths_of(c_rec)

    def test_result_limit_interruption_identical(self):
        checked = 0
        for rng, graph, query in _random_cases(30, seed=23):
            index = LightWeightIndex.build(graph, query)
            probe = ResultCollector(store_paths=False)
            run_idx_dfs(index, probe)
            if probe.count < 3:
                continue
            limit = rng.randint(1, probe.count - 1)
            c_rec, s_rec = ResultCollector(result_limit=limit), EnumerationStats()
            with pytest.raises(ResultLimitReached):
                run_idx_dfs(index, c_rec, stats=s_rec)
            c_ker, s_ker = ResultCollector(result_limit=limit), EnumerationStats()
            with pytest.raises(ResultLimitReached):
                run_dfs_kernel(index, c_ker, stats=s_ker)
            assert _paths_of(c_ker) == _paths_of(c_rec)
            assert c_ker.count == c_rec.count == limit
            # The kernel stops at exactly the same search-tree point.
            for counter in ("edges_accessed", "partial_results_generated",
                            "invalid_partial_results"):
                assert getattr(s_ker, counter) == getattr(s_rec, counter), counter
            checked += 1
        assert checked >= 5

    def test_deadline_interruption_yields_prefix(self):
        graph = complete_graph(10)
        query = Query(0, 9, 6)
        index = LightWeightIndex.build(graph, query)
        full = ResultCollector()
        run_dfs_kernel(index, full)
        collector = ResultCollector()
        deadline = Deadline(0.0, poll_interval=1)
        with pytest.raises(EnumerationTimeout):
            run_dfs_kernel(index, collector, deadline=deadline)
        partial = _paths_of(collector)
        assert partial == _paths_of(full)[: len(partial)]

    def test_store_paths_disabled_still_counts(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        collector = ResultCollector(store_paths=False)
        run_dfs_kernel(index, collector)
        assert collector.count == 5
        assert collector.stored_paths() is None


class TestJoinKernelEquivalence:
    def test_random_graphs_all_cut_positions(self):
        configs = 0
        for _, graph, query in _random_cases(30, seed=37):
            if query.k < 3:
                query = query.with_k(3)
            index = LightWeightIndex.build(graph, query)
            for cut in range(1, query.k):
                c_rec, s_rec = ResultCollector(), EnumerationStats()
                run_idx_join(index, cut, c_rec, stats=s_rec)
                c_ker, s_ker = ResultCollector(), EnumerationStats()
                run_join_kernel(index, cut, c_ker, stats=s_ker)
                assert _paths_of(c_ker) == _paths_of(c_rec), (query, cut)
                for counter in COUNTERS + (
                    "peak_partial_result_tuples", "peak_partial_result_bytes",
                ):
                    assert getattr(s_ker, counter) == getattr(s_rec, counter), counter
                configs += 1
        assert configs >= 60

    def test_result_limit_interruption_identical(self):
        checked = 0
        for rng, graph, query in _random_cases(25, seed=41):
            if query.k < 3:
                query = query.with_k(3)
            index = LightWeightIndex.build(graph, query)
            cut = max(1, query.k // 2)
            probe = ResultCollector(store_paths=False)
            run_idx_join(index, cut, probe)
            if probe.count < 3:
                continue
            limit = rng.randint(1, probe.count - 1)
            c_rec = ResultCollector(result_limit=limit)
            with pytest.raises(ResultLimitReached):
                run_idx_join(index, cut, c_rec)
            c_ker = ResultCollector(result_limit=limit)
            with pytest.raises(ResultLimitReached):
                run_join_kernel(index, cut, c_ker)
            assert _paths_of(c_ker) == _paths_of(c_rec)
            assert c_ker.count == c_rec.count == limit
            checked += 1
        assert checked >= 3

    def test_invalid_cut_position_rejected(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        with pytest.raises(ValueError):
            run_join_kernel(index, 0, ResultCollector())
        with pytest.raises(ValueError):
            run_join_kernel(index, paper_query.k, ResultCollector())


class TestSubqueryKernel:
    def test_matches_recursive_walks(self):
        for _, graph, query in _random_cases(20, seed=53):
            index = LightWeightIndex.build(graph, query)
            for offset in range(0, query.k):
                for length in range(0, query.k - offset + 1):
                    walks = evaluate_subquery(
                        index, start=query.source, offset=offset, length=length
                    )
                    data, width = run_subquery_kernel(
                        index, start=query.source, offset=offset, length=length
                    )
                    assert width == length + 1
                    columnar = [
                        tuple(data[i : i + width]) for i in range(0, len(data), width)
                    ]
                    assert columnar == walks, (offset, length)

    def test_start_outside_index(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        outside = paper_graph.num_vertices + 5
        assert run_subquery_kernel(index, start=outside, offset=0, length=0) == (
            [outside], 1,
        )
        assert run_subquery_kernel(index, start=outside, offset=0, length=2) == ([], 3)


class TestPathBuffer:
    def test_append_and_access(self):
        buffer = PathBuffer()
        buffer.append_path((0, 1, 5))
        buffer.append_path([0, 2, 3, 5])
        assert len(buffer) == 2
        assert buffer[0] == (0, 1, 5)
        assert buffer[-1] == (0, 2, 3, 5)
        assert list(buffer) == [(0, 1, 5), (0, 2, 3, 5)]
        assert buffer.total_vertices == 7

    def test_extend_block_with_truncation(self):
        buffer = PathBuffer()
        buffer.extend_block([0, 1, 0, 2, 0, 3], [2, 4, 6], take=2)
        assert buffer.to_paths() == [(0, 1), (0, 2)]
        buffer.extend_block([7, 8], [2])
        assert buffer.to_paths() == [(0, 1), (0, 2), (7, 8)]

    def test_to_lists_and_arrays(self):
        buffer = PathBuffer.from_paths([(0, 1, 5), (0, 5)])
        assert buffer.to_lists() == [[0, 1, 5], [0, 5]]
        data, indptr = buffer.arrays()
        assert data.tolist() == [0, 1, 5, 0, 5]
        assert indptr.tolist() == [0, 3, 5]
        # Sealed buffers keep working (and can grow again).
        assert buffer.to_paths() == [(0, 1, 5), (0, 5)]
        buffer.append_path((0, 4, 5))
        assert len(buffer) == 3

    def test_equality(self):
        buffer = PathBuffer.from_paths([(0, 1), (2, 3)])
        assert buffer == [(0, 1), (2, 3)]
        assert buffer == PathBuffer.from_paths([(0, 1), (2, 3)])
        assert buffer != [(0, 1)]

    def test_pickle_roundtrip_is_columnar(self):
        # Realistic vertex-id magnitudes; the wire form is two downcast
        # primitive arrays, smaller than the equivalent list of tuples.
        base = 10**6
        buffer = PathBuffer.from_paths(
            [tuple(range(base + i, base + i + 5)) for i in range(500)]
        )
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone == buffer
        assert clone.arrays()[0].dtype.name == "int64"
        assert len(pickle.dumps(buffer)) < len(pickle.dumps(buffer.to_paths()))

    @pytest.mark.parametrize(
        "paths, data_dtype",
        [([(0, 1, 5), (0, 5)], "int32"), ([(0, 2**31 - 1)], "int32"), ([(0, 2**31), (0, 5)], "int64")],
    )
    def test_one_wire_dtype_rule_for_pickle_and_frames(self, paths, data_dtype):
        # int32 columns when every id fits, int64 when one does not — the
        # same rule for the pickled state and the columnar result frame.
        from repro.server.protocol import decode_frame, encode_frame

        buffer = PathBuffer.from_paths(paths)
        data, indptr = buffer.wire_arrays()
        assert (data.dtype.name, indptr.dtype.name) == (data_dtype, "int32")
        state = buffer.__getstate__()
        assert [column.dtype for column in state] == [data.dtype, indptr.dtype]
        assert all(np.array_equal(a, b) for a, b in zip(state, (data, indptr)))
        frame = {"type": "result", "paths_data": data, "paths_indptr": indptr}
        body = encode_frame(frame)[4:]
        (head_length,) = struct.unpack(">I", body[1:5])
        assert json.loads(body[5 : 5 + head_length])["paths_dtype"] == data_dtype
        decoded = decode_frame(body)
        assert PathBuffer(decoded["paths_data"], decoded["paths_indptr"]) == paths

    def test_wire_arrays_return_int32_columns_unchanged(self):
        # A buffer over wire-dtype columns (an unpickled or segment-backed
        # result, a protocol-4 client's) ships its own columns: no upcast of
        # the buffer, no copy.
        data = np.array([0, 1, 5, 0, 5], dtype=np.int32)
        indptr = np.array([0, 3, 5], dtype=np.int32)
        buffer = PathBuffer(data, indptr)
        wire_data, wire_indptr = buffer.wire_arrays()
        assert np.shares_memory(wire_data, data)
        assert np.shares_memory(wire_indptr, indptr)
        assert buffer._data.dtype == np.int32 and buffer._indptr.dtype == np.int32
        assert buffer == [(0, 1, 5), (0, 5)]

    def test_write_wire_casts_pending_blocks_in_one_pass(self):
        # Python-list head + pending int64 blocks, written straight into
        # int32 destinations: the same columns as the sealed int64 form.
        buffer = PathBuffer.from_paths([(0, 1, 5)])
        buffer.extend_array_block(np.array([0, 2, 5, 0, 5]), np.array([3, 5]))
        buffer.extend_array_block(np.array([0, 3, 4, 5, 9]), np.array([4]), take=1)
        data_dtype, indptr_dtype = buffer.wire_dtypes()
        assert (data_dtype, indptr_dtype) == (np.int32, np.int32)
        data = np.empty(buffer.total_vertices, dtype=data_dtype)
        indptr = np.empty(len(buffer) + 1, dtype=indptr_dtype)
        buffer.write_wire(data, indptr)
        assert buffer._segments is not None, "writing must not consolidate"
        sealed_data, sealed_indptr = buffer.arrays()
        assert data.tolist() == sealed_data.tolist()
        assert indptr.tolist() == sealed_indptr.tolist()
        assert PathBuffer(data, indptr) == [(0, 1, 5), (0, 2, 5), (0, 5), (0, 3, 4, 5)]

    def test_index_errors(self):
        buffer = PathBuffer.from_paths([(0, 1)])
        with pytest.raises(IndexError):
            buffer.path(1)
        with pytest.raises(ValueError):
            PathBuffer(data=[1, 2])


class TestCollectorBlockEmission:
    def test_blocks_land_in_buffer(self):
        collector = ResultCollector()
        collector.emit_block([0, 1, 0, 2, 5], [2, 5])
        stored = collector.stored_paths()
        assert isinstance(stored, PathBuffer)
        assert stored.to_paths() == [(0, 1), (0, 2, 5)]
        assert collector.count == 2

    def test_result_limit_truncates_block_and_raises(self):
        collector = ResultCollector(result_limit=2)
        with pytest.raises(ResultLimitReached):
            collector.emit_block([0, 1, 0, 2, 0, 3], [2, 4, 6])
        assert collector.count == 2
        assert collector.stored_paths().to_paths() == [(0, 1), (0, 2)]

    def test_response_time_recorded_when_block_crosses_k(self):
        collector = ResultCollector(response_k=2)
        collector.emit_block([0, 1], [2])
        assert collector.response_seconds is None
        collector.emit_block([0, 2, 0, 3], [2, 4])
        assert collector.response_seconds is not None

    def test_store_paths_disabled_counts_only(self):
        collector = ResultCollector(store_paths=False)
        collector.emit_block([0, 1], [2])
        assert collector.count == 1
        assert collector.stored_paths() is None

    def test_remaining_before_flush(self):
        collector = ResultCollector(result_limit=10, response_k=4)
        assert collector.remaining_before_flush() == 4
        collector.emit_block([0, 1] * 5, [2, 4, 6, 8, 10])
        assert collector.remaining_before_flush() == 5  # response recorded
        assert ResultCollector(response_k=0).remaining_before_flush() is None


class TestBufferBackedQueryResult:
    def _result(self):
        buffer = PathBuffer.from_paths([(0, 1, 5), (0, 5)])
        return QueryResult(
            source=0, target=5, k=4, algorithm="IDX-DFS", count=2,
            paths=buffer, stats=EnumerationStats(),
        )

    def test_lazy_materialisation(self):
        result = self._result()
        assert result.path_buffer is not None
        assert result.paths == [(0, 1, 5), (0, 5)]
        assert result.path_lengths() == [2, 1]

    def test_paths_setter_clears_buffer(self):
        result = self._result()
        result.paths = None
        assert result.paths is None
        assert result.path_buffer is None

    def test_pickle_ships_columnar_and_reads_back(self):
        result = self._result()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.path_buffer is not None
        assert clone.paths == [(0, 1, 5), (0, 5)]
        assert clone.count == 2
        assert clone.algorithm == "IDX-DFS"


class TestEngineSelection:
    """The kernel tier (no C library) against the recursive engines (an
    accept-all constraint), through the full algorithms."""

    def test_kernel_and_recursive_runs_match(self, paper_graph, paper_query, without_library):
        for algorithm in (PathEnum(), IdxDfs(), IdxJoin()):
            kernel = algorithm.run(paper_graph, paper_query, RunConfig())
            recursive = algorithm.run(
                paper_graph, paper_query, RunConfig(constraint=accept_all(paper_graph))
            )
            assert kernel.paths == recursive.paths
            assert kernel.count == recursive.count
            assert kernel.stats.plan == recursive.stats.plan

    @pytest.mark.parametrize("algorithm_cls", [IdxDfs, IdxJoin])
    def test_dense_graphs_match_for_both_fixed_plans(self, algorithm_cls, without_library):
        # Enumeration-heavy queries — a clique and a dense random digraph,
        # thousands of paths each — where every candidate range is long.
        cases = (
            (complete_graph(10), Query(0, 9, 6)),
            (erdos_renyi(50, 12.0, seed=3), Query(0, 1, 5)),
        )
        for graph, query in cases:
            kernel = algorithm_cls().run(graph, query, RunConfig())
            recursive = algorithm_cls().run(
                graph, query, RunConfig(constraint=accept_all(graph))
            )
            assert kernel.count == recursive.count > 1000
            assert kernel.paths == recursive.paths
            for counter in COUNTERS:
                assert getattr(kernel.stats, counter) == getattr(recursive.stats, counter)

    def test_mixed_workload_identical_across_engines_and_backends(self):
        # Random pairs with mixed hop budgets through the distance-caching
        # session, recursively and with the kernels, inline and on a thread
        # pool: one payload, byte for byte.
        from repro.api import Database

        graph = erdos_renyi(80, 10.0, seed=7)
        rng = np.random.default_rng(2021)
        triples = []
        while len(triples) < 12:
            s, t = (int(v) for v in rng.choice(graph.num_vertices, size=2, replace=False))
            triples.append((s, t, int(rng.integers(3, 6))))
        with Database(graph) as db:
            reference = db.batch(triples, constraint=accept_all(graph))
            payload = reference.payload_bytes()
            assert reference.stats().total_paths > 1000
            with numpy_reference():
                assert db.batch(triples).payload_bytes() == payload
        with numpy_reference(), Database(graph, backend="threads", workers=2) as db:
            assert db.batch(triples).payload_bytes() == payload

    def test_auto_uses_columnar_fast_path(self, paper_graph, paper_query):
        result = IdxDfs().run(paper_graph, paper_query, RunConfig())
        assert result.path_buffer is not None

    def test_recursive_engine_fills_a_buffer_too(
        self, paper_graph, paper_query, monkeypatch
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return run_idx_dfs(*args, **kwargs)

        monkeypatch.setattr(engine_module, "run_idx_dfs", spy)
        result = IdxDfs().run(
            paper_graph, paper_query, RunConfig(constraint=accept_all(paper_graph))
        )
        assert calls  # the recursive tier ran
        assert result.path_buffer is not None
        assert result.count == 5

    def test_constrained_queries_fall_back_automatically(self, paper_graph, paper_query):
        constraint = PredicateConstraint(lambda u, v, w, l: True, paper_graph)
        plain = PathEnum().run(paper_graph, paper_query, RunConfig())
        constrained = PathEnum().run(
            paper_graph, paper_query, RunConfig(constraint=constraint)
        )
        assert constrained.paths == plain.paths
