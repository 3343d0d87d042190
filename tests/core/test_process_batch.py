"""Tests for process-parallel sharded batch execution.

The contract mirrors the thread-pool batch layer: process execution is an
optimisation, never a semantics change.  Every query evaluated through
``Database(graph, backend="processes")`` must return exactly the result
(path list order included) of a sequential session run, under both the
``fork`` and ``spawn`` start methods, without leaking shared-memory
segments (the autouse fixture in ``tests/conftest.py`` checks ``/dev/shm``
after every test).

Set ``REPRO_START_METHODS=fork`` (or ``spawn``) to restrict the
parametrised start-method suite — the CI matrix uses this to give each
start method its own job.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Database
from repro.baselines.bc_dfs import BcDfs
from repro.core import result_segments
from repro.core.constraints import PredicateConstraint
from repro.core.engine import ExecutorCore, IdxDfs, PathEnum
from repro.core.algorithm import Algorithm
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import paths_are_valid
from repro.graph.generators import complete_graph, erdos_renyi, power_law_graph
from repro.graph.traversal import (
    bfs_distances_bounded,
    multi_source_bfs_distances_bounded,
)
from repro.testing import faults
from repro.workloads.queries import generate_target_centric_set, partition_by_target

from tests.helpers import numpy_reference, result_segment_names


def _available_start_methods():
    methods = [
        method
        for method in ("fork", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ]
    requested = os.environ.get("REPRO_START_METHODS")
    if requested:
        wanted = [m.strip() for m in requested.split(",")]
        methods = [m for m in methods if m in wanted]
    return methods or ["spawn"]


START_METHODS = _available_start_methods()


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(150, 4.0, seed=11)


@pytest.fixture(scope="module")
def shared_target_queries(graph):
    workload = generate_target_centric_set(graph, count=12, k=4, num_targets=3, seed=5)
    assert len(workload.unique_targets()) < len(workload)
    return list(workload)


def _processes(graph, start_method=None, workers=2, **options):
    return Database(
        graph, backend="processes", workers=workers, start_method=start_method, **options
    )


class TestMultiSourceBfs:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_single_source_bfs(self, reverse):
        g = power_law_graph(120, 4.0, exponent=2.3, seed=3)
        rng = np.random.default_rng(17)
        sources = rng.choice(g.num_vertices, size=8, replace=False)
        blocked = int(rng.integers(0, g.num_vertices))
        matrix = multi_source_bfs_distances_bounded(
            g, sources, cutoff=4, reverse=reverse, no_expand=blocked
        )
        for row, s in enumerate(sources):
            expected = bfs_distances_bounded(
                g, int(s), cutoff=4, reverse=reverse, no_expand=blocked
            )
            assert np.array_equal(matrix[row], expected)

    def test_duplicate_sources_are_independent_rows(self, graph):
        matrix = multi_source_bfs_distances_bounded(graph, [3, 3], cutoff=3)
        assert np.array_equal(matrix[0], matrix[1])

    def test_empty_sources(self, graph):
        matrix = multi_source_bfs_distances_bounded(graph, [], cutoff=3)
        assert matrix.shape == (0, graph.num_vertices)


class TestPartitionByTarget:
    def test_partition_is_complete_and_target_affine(self, shared_target_queries):
        shards = partition_by_target(shared_target_queries, 4)
        positions = sorted(pos for shard in shards for pos, _ in shard)
        assert positions == list(range(len(shared_target_queries)))
        owner = {}
        for index, shard in enumerate(shards):
            for _, query in shard:
                key = (query.target, query.k)
                assert owner.setdefault(key, index) == index

    def test_partition_is_deterministic(self, shared_target_queries):
        first = partition_by_target(shared_target_queries, 3)
        second = partition_by_target(shared_target_queries, 3)
        assert first == second

    def test_single_shard_keeps_workload_together(self, shared_target_queries):
        shards = partition_by_target(shared_target_queries, 1)
        assert len(shards) == 1
        assert len(shards[0]) == len(shared_target_queries)

    def test_no_more_shards_than_groups(self, shared_target_queries):
        shards = partition_by_target(shared_target_queries, 64)
        distinct = {(q.target, q.k) for q in shared_target_queries}
        assert len(shards) == len(distinct)

    def test_balanced_loads(self):
        queries = [Query(s, t, 4) for t in (100, 101, 102, 103) for s in range(24) if s != t]
        shards = partition_by_target(queries, 4)
        sizes = sorted(len(shard) for shard in shards)
        assert sizes[-1] - sizes[0] <= 1

    def test_rejects_nonpositive_shards(self, shared_target_queries):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            partition_by_target(shared_target_queries, 0)


class TestProcessEquivalence:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("tier", ["auto", "no_library"])
    def test_results_identical_to_sequential_session(
        self, graph, shared_target_queries, start_method, tier
    ):
        # Without the library, forked workers inherit the kernel tier;
        # spawned ones load the library afresh, which must not matter either.
        pinned = numpy_reference if tier == "no_library" else contextlib.nullcontext
        with pinned(), Database(graph) as db:
            sequential = db.batch(shared_target_queries).results()
        with pinned(), _processes(graph, start_method) as db:
            parallel = db.batch(shared_target_queries).results()
        assert len(parallel) == len(sequential)
        for expected, actual in zip(sequential, parallel):
            assert actual.source == expected.source
            assert actual.target == expected.target
            assert actual.count == expected.count
            # Identical injected distance arrays imply identical index
            # layouts, so even the enumeration order must match.
            assert actual.paths == expected.paths
            assert paths_are_valid(actual.paths, actual.source, actual.target, actual.k)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_random_graphs_match_plain_sequential_runs(self, start_method):
        rng = np.random.default_rng(23)
        for trial in range(2):
            g = erdos_renyi(80 + 30 * trial, 3.5, seed=int(rng.integers(1, 1000)))
            workload = generate_target_centric_set(
                g, count=10, k=4, num_targets=3, seed=trial
            )
            queries = list(workload)
            config = RunConfig(store_paths=True)
            engine = PathEnum()
            expected = [engine.run(g, q, config) for q in queries]
            with _processes(g, start_method) as db:
                parallel = db.batch(queries).results()
            for exp, act in zip(expected, parallel):
                assert act.count == exp.count
                assert set(act.paths) == set(exp.paths)

    def test_inline_path_matches_process_path(self, graph, shared_target_queries):
        # One worker evaluates the shards in the caller's thread, no pool.
        with _processes(graph, workers=1) as inline:
            inline_results = inline.batch(shared_target_queries).results()
        with _processes(graph, "fork") as db:
            process_results = db.batch(shared_target_queries).results()
        for a, b in zip(inline_results, process_results):
            assert a.paths == b.paths

    def test_fixed_plan_algorithm(self, graph, shared_target_queries):
        with Database(graph, algorithm=IdxDfs()) as db:
            sequential = db.batch(shared_target_queries).results()
        with _processes(graph, "fork", algorithm=IdxDfs()) as db:
            parallel = db.batch(shared_target_queries).results()
        for exp, act in zip(sequential, parallel):
            assert act.paths == exp.paths

    def test_baseline_algorithm_passes_through(self, graph, shared_target_queries):
        config = RunConfig(store_paths=True)
        queries = shared_target_queries[:4]
        expected = [BcDfs().run(graph, q, config) for q in queries]
        with _processes(graph, "fork", algorithm=BcDfs()) as db:
            stream = db.batch(queries)
            parallel = stream.results()
        for exp, act in zip(expected, parallel):
            assert set(act.paths) == set(exp.paths)
        assert stream.stats().reverse_bfs_runs == 0


class TestProcessStats:
    def test_stats_match_sequential_semantics(self, graph, shared_target_queries):
        with _processes(graph, "fork") as db:
            stream = db.batch(shared_target_queries, store_paths=False)
            results = stream.results()
        stats = stream.stats()
        assert stats.completed == len(shared_target_queries)
        assert stats.reverse_bfs_runs == 3
        assert stats.bfs_cache_hits == len(shared_target_queries) - 3
        flags = [result.stats.bfs_cache_hit for result in results]
        assert flags.count(False) == 3

    def test_second_batch_reuses_parent_distance_cache(
        self, graph, shared_target_queries
    ):
        with _processes(graph, "fork") as db:
            db.batch(shared_target_queries, store_paths=False).results()
            again = db.batch(shared_target_queries, store_paths=False)
            results = again.results()
            assert db._backend.core.session.stats.reverse_bfs_runs == 3  # nothing recomputed
        assert again.stats().reverse_bfs_runs == 0
        assert all(result.stats.bfs_cache_hit for result in results)

    def test_empty_workload(self, graph):
        with _processes(graph) as db:
            stream = db.batch([], store_paths=False)
            assert stream.results() == []
        assert len(stream) == 0


class TestProcessRejections:
    def test_rejects_constraints(self, graph, shared_target_queries):
        constraint = PredicateConstraint(lambda u, v, w, l: True, graph)
        with _processes(graph) as db:
            with pytest.raises(ValueError, match="constraint"):
                db.batch(shared_target_queries, constraint=constraint)

    def test_rejects_bad_worker_counts(self, graph):
        with pytest.raises(ValueError):
            _processes(graph, workers=0)

    def test_run_after_close_raises(self, graph, shared_target_queries):
        db = _processes(graph)
        db.close()
        with pytest.raises(RuntimeError):
            db.batch(shared_target_queries)

    def test_close_is_idempotent(self, graph, shared_target_queries):
        db = _processes(graph, "fork")
        db.batch(shared_target_queries[:4], store_paths=False).results()
        db.close()
        db.close()  # second close must be a no-op, not an error
        db.close()


class TestStreamingCallbacks:
    """The ordered process stream replays what a sequential callback sees."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_callback_sequence_matches_sequential_run(
        self, graph, shared_target_queries, start_method
    ):
        expected: list = []
        engine = PathEnum()
        for query in shared_target_queries:
            expected.extend(engine.run(graph, query, RunConfig()).paths)

        with _processes(graph, start_method) as db:
            streamed = [path for result in db.batch(shared_target_queries) for path in result.paths]
        # Workload order, per-query path order: the exact sequence a
        # sequential run emits.
        assert streamed == expected


class TestCleanupRegressions:
    def test_no_segment_leak_after_worker_exception(self, graph):
        workload = generate_target_centric_set(graph, count=8, k=4, num_targets=2, seed=9)
        queries = list(workload)
        with pytest.raises(RuntimeError, match="poisoned"):
            with _processes(
                graph, "fork", algorithm=_ExplodingAlgorithm(queries[0].target)
            ) as db:
                db.batch(queries, store_paths=False).results()

    def test_no_segment_leak_after_explicit_close_without_run(self, graph):
        _processes(graph).close()


class _ExplodingAlgorithm(Algorithm):
    """Raises on a marked query; sleeps briefly elsewhere (picklable)."""

    name = "EXPLODER"

    def __init__(self, poison_target: int) -> None:
        self.poison_target = poison_target

    def run(self, graph, query, config=None):
        if query.target == self.poison_target:
            raise RuntimeError(f"poisoned target {query.target}")
        time.sleep(0.005)
        from repro.core.result import EnumerationStats, PathBuffer, QueryResult

        return QueryResult(
            source=query.source, target=query.target, k=query.k,
            algorithm=self.name, count=0, paths=PathBuffer(), stats=EnumerationStats(),
        )


class TestErrorPropagation:
    def test_thread_pool_surfaces_original_exception_and_cancels(self, graph):
        calls = []

        class Recorder(_ExplodingAlgorithm):
            def run(self, graph, query, config=None):
                calls.append(query.target)
                return super().run(graph, query, config)

        queries = [Query(0, target, 4) for target in range(1, 65)]
        with Database(graph, backend="threads", workers=2, algorithm=Recorder(1)) as db:
            with pytest.raises(RuntimeError, match="poisoned target 1"):
                db.batch(queries, store_paths=False).results()
        # The failure must cancel queued work instead of draining all 64.
        assert len(calls) < len(queries)

    def test_process_pool_surfaces_original_exception(self, graph):
        workload = generate_target_centric_set(
            graph, count=8, k=4, num_targets=2, seed=9
        )
        queries = list(workload)
        poison = queries[0].target
        with _processes(graph, "fork", algorithm=_ExplodingAlgorithm(poison)) as db:
            with pytest.raises(RuntimeError, match=f"poisoned target {poison}"):
                db.batch(queries, store_paths=False).results()


class TestProcessCancellation:
    def test_cancelled_stream_stops_emitting_promptly(self):
        """A cancelled run must not let workers finish their whole shard.

        One target means one shard: a single worker owns all 100 queries,
        so without the shared cancellation flag it would run every one of
        them to completion after ``cancel()``.  The flag is polled between
        queries, so the worker's emitted count must stay far below the
        shard size.
        """
        graph = complete_graph(11)
        queries = [Query(s, 10, 6) for s in range(10)] * 10
        with ExecutorCore(graph, backend="process", workers=2) as core:
            run = core.start(queries, RunConfig(store_paths=False), chunk_queries=1)
            consumed = 0
            for chunk in run.chunks():
                consumed += len(chunk)
                if consumed >= 3:
                    run.cancel()
                    break
            deadline = time.time() + 20.0
            while any(not f.done() for f in run._futures) and time.time() < deadline:
                time.sleep(0.05)
            emitted = sum(
                f.result() for f in run._futures if f.done() and not f.cancelled()
            )
        assert consumed >= 3
        assert emitted < len(queries) // 2, (
            f"worker emitted {emitted} of {len(queries)} queries after cancel"
        )


class TestResultSegments:
    """Process workers hand path columns over in shared-memory segments.

    The results are read-only views into the segments, identical in payload
    to inline, valid past ``close()``; no segment outlives its chunk, a
    cancelled run, a ``close()`` mid-flight or a killed worker.
    """

    @staticmethod
    def _triples(queries):
        return [(q.source, q.target, q.k) for q in queries]

    @staticmethod
    def _open(graph, start_method):
        return Database(graph, backend="processes", workers=2, start_method=start_method)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_results_are_read_only_segment_views_with_inline_payload(
        self, graph, shared_target_queries, start_method
    ):
        triples = self._triples(shared_target_queries)
        with Database(graph) as inline:
            expected = inline.batch(triples).payload_bytes()
        with self._open(graph, start_method) as db:
            stream = db.batch(triples)
            results = stream.results()
            assert stream.payload_bytes() == expected
        assert any(result.count for result in results)
        for result in results:
            data, indptr = result.path_buffer.wire_arrays()
            assert not data.flags.writeable and not indptr.flags.writeable
            if result.count:
                assert isinstance(data.base.obj, mmap.mmap)
                assert np.shares_memory(data, result.path_buffer._data)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_results_stay_readable_after_close(
        self, graph, shared_target_queries, start_method
    ):
        triples = self._triples(shared_target_queries)
        with Database(graph) as inline:
            expected = inline.batch(triples).paths()
        db = self._open(graph, start_method)
        results = db.batch(triples).results()
        db.close()
        assert [result.paths for result in results] == expected

    #: 50 ms more per query, so a worker is always mid-shard when the test
    #: cancels or closes: its next chunk reaches a cancelled run.
    SLOW_QUERIES = {
        "seed": 1,
        "faults": [{"site": "worker.task", "op": "delay", "delay_ms": 50,
                    "count": 10**6, "once": False}],
    }

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_cancelled_stream_leaves_no_segment(self, start_method):
        graph = complete_graph(11)
        queries = [Query(s, 10, 6) for s in range(10)] * 4
        before = result_segment_names()
        try:
            with faults.installed(self.SLOW_QUERIES), ExecutorCore(
                graph, backend="process", workers=2, start_method=start_method
            ) as core:
                run = core.start(queries, RunConfig(store_paths=True), chunk_queries=1)
                consumed = 0
                for chunk in run.chunks():
                    consumed += len(chunk)
                    if consumed >= 2:
                        run.cancel()
                        break
                # Workers send synchronously, so once their shards are done
                # every late chunk has been sent; the router thread unlinks
                # them without waiting for close().
                deadline = time.time() + 20.0
                while any(not f.done() for f in run._futures) and time.time() < deadline:
                    time.sleep(0.05)
                late = sum(f.result() for f in run._futures if not f.cancelled()) - consumed
                while result_segment_names() - before and time.time() < deadline:
                    time.sleep(0.05)
                assert result_segment_names() - before == set()
        finally:
            faults.clear()
        assert late >= 1, "no chunk was left for the router to discard"

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_close_with_chunks_in_flight_leaves_no_segment(self, start_method):
        graph = complete_graph(11)
        before = result_segment_names()
        try:
            with faults.installed(self.SLOW_QUERIES):
                db = self._open(graph, start_method)
                stream = db.stream([(s, 10, 6) for s in range(10)] * 4)
                next(iter(stream.as_completed()))
                db.close()
        finally:
            faults.clear()
        assert result_segment_names() - before == set()

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_close_sweeps_a_stray_segment_of_the_core(
        self, graph, shared_target_queries, start_method
    ):
        # A segment a worker created but was killed before naming to the
        # parent: only the sweep knows it exists.
        db = self._open(graph, start_method)
        db.batch(self._triples(shared_target_queries)).results()
        prefix = db._backend.core._segment_prefix
        name, segment = result_segments._create(prefix, 64)
        segment.close()
        assert name in result_segment_names()
        db.close()
        assert name not in result_segment_names()

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_killed_worker_recovers_identically_without_leaking(
        self, graph, shared_target_queries, start_method, tmp_path
    ):
        triples = self._triples(shared_target_queries)
        with Database(graph) as inline:
            expected = inline.batch(triples).payload_bytes()
        before = result_segment_names()
        state = tmp_path / "state"
        plan = {"seed": 7, "faults": [{"site": "worker.task", "op": "kill", "position": 5}]}
        try:
            with faults.installed(plan, state_dir=str(state)):
                with self._open(graph, start_method) as db:
                    actual = db.stream(triples).payload_bytes()
        finally:
            faults.clear()
        assert os.listdir(state) == ["fault-0.fired"], "the worker was never killed"
        assert actual == expected
        assert result_segment_names() - before == set()


#: A pool owner for the watcher test: runs one batch on two workers, prints
#: the worker pids and then blocks until it is killed.
_OWNER_SCRIPT = """
import sys
from repro.api import Database
from repro.graph.generators import erdos_renyi

if __name__ == "__main__":
    db = Database(erdos_renyi(150, 4.0, seed=11), backend="processes", workers=2,
                  start_method=sys.argv[1])
    db.batch([(0, 5, 3), (1, 7, 3), (2, 9, 3)], store_paths=False).results()
    print(" ".join(str(pid) for pid in db._backend.core._pool._processes), flush=True)
    sys.stdin.read()
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has already exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process state from /proc")
class TestWorkersExitWithTheirOwner:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_workers_die_within_two_seconds_of_a_killed_owner(self, tmp_path, start_method):
        script = tmp_path / "owner.py"
        script.write_text(_OWNER_SCRIPT)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen(
            [sys.executable, str(script), start_method],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        ) as owner:
            try:
                reported, _, _ = select.select([owner.stdout], [], [], 60.0)
                assert reported, "the owner never reported its workers"
                workers = [int(pid) for pid in owner.stdout.readline().split()]
                assert len(workers) == 2, "the owner never reported its workers"
                assert all(_running(pid) for pid in workers)
            finally:
                owner.kill()
        killed = time.monotonic()
        while any(_running(pid) for pid in workers) and time.monotonic() - killed < 2.0:
            time.sleep(0.02)
        survivors = [pid for pid in workers if _running(pid)]
        for pid in survivors:  # leave no orphan behind a failed check
            os.kill(pid, signal.SIGKILL)
        assert not survivors, "workers outlived their killed owner"
        # The owner's resource tracker unlinks its shared graph image once
        # the last worker is gone; the autouse leak check waits for it.

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_workers_outlive_the_thread_that_forked_them(
        self, graph, shared_target_queries, start_method
    ):
        triples = [(q.source, q.target, q.k) for q in shared_target_queries]
        with _processes(graph, start_method) as db:
            first = threading.Thread(target=lambda: db.batch(triples).results())
            first.start()
            first.join(60.0)
            assert not first.is_alive()
            workers = set(db._backend.core._pool._processes)
            time.sleep(0.2)
            assert db.batch(triples).payload_bytes()
            assert set(db._backend.core._pool._processes) == workers
            assert all(_running(pid) for pid in workers)
