"""Tests for batch execution through the ``Database`` façade.

The contract under test: batch execution is purely an optimisation.  Every
query evaluated as part of a batch — inline, or fanned out over a thread
pool — must return exactly the paths the sequential engine returns, while
the shared distance cache performs strictly fewer reverse-BFS traversals
than it evaluates queries whenever targets repeat.  The session the inline
backend is built on (:class:`QuerySession`) is tested directly below.
"""

from __future__ import annotations

import pytest

from repro.api import Database, Q
from repro.baselines.bc_dfs import BcDfs
from repro.core.constraints import PredicateConstraint
from repro.core.engine import IdxDfs, IdxJoin, PathEnum, QuerySession
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import paths_are_valid
from repro.graph.generators import erdos_renyi, power_law_graph
from repro.workloads.queries import generate_target_centric_set

def _count_only_batch(graph, queries):
    """Results and stream statistics of one count-only inline PathEnum batch."""
    with Database(graph, algorithm=PathEnum()) as db:
        stream = db.batch(list(queries), store_paths=False)
        return stream.results(), stream.stats()


@pytest.fixture(scope="module")
def batch_graph():
    return erdos_renyi(150, 4.0, seed=11)


@pytest.fixture(scope="module")
def shared_target_queries(batch_graph):
    """A workload in which 12 queries hit only 3 distinct targets."""
    workload = generate_target_centric_set(
        batch_graph, count=12, k=4, num_targets=3, seed=5
    )
    assert len(workload.unique_targets()) < len(workload)
    return list(workload)


def _sequential(graph, queries, algorithm=None, config=None):
    algorithm = algorithm if algorithm is not None else PathEnum()
    config = config if config is not None else RunConfig(store_paths=True)
    return [algorithm.run(graph, query, config) for query in queries]


def _batch(graph, queries, **open_options):
    with Database(graph, **open_options) as db:
        return db.batch(queries).results()


class TestBatchEquivalence:
    def test_results_match_sequential_query_for_query(
        self, batch_graph, shared_target_queries
    ):
        expected = _sequential(batch_graph, shared_target_queries)
        batched_results = _batch(batch_graph, shared_target_queries)
        assert len(batched_results) == len(expected)
        for sequential, batched in zip(expected, batched_results):
            assert batched.source == sequential.source
            assert batched.target == sequential.target
            assert batched.count == sequential.count
            assert set(batched.paths) == set(sequential.paths)
            assert paths_are_valid(
                batched.paths, batched.source, batched.target, batched.k
            )

    @pytest.mark.parametrize("algorithm_cls", [IdxDfs, IdxJoin])
    def test_fixed_plan_algorithms_match_sequential(
        self, batch_graph, shared_target_queries, algorithm_cls
    ):
        expected = _sequential(batch_graph, shared_target_queries, algorithm_cls())
        for backend in ("inline", "threads"):
            workers = None if backend == "inline" else 2
            batched_results = _batch(
                batch_graph, shared_target_queries,
                backend=backend, workers=workers, algorithm=algorithm_cls(),
            )
            for sequential, batched in zip(expected, batched_results):
                assert set(batched.paths) == set(sequential.paths)

    def test_parallel_results_match_and_keep_order(
        self, batch_graph, shared_target_queries
    ):
        expected = _sequential(batch_graph, shared_target_queries)
        batched_results = _batch(
            batch_graph, shared_target_queries, backend="threads", workers=4
        )
        assert [(r.source, r.target) for r in batched_results] == [
            (r.source, r.target) for r in expected
        ]
        for sequential, batched in zip(expected, batched_results):
            assert set(batched.paths) == set(sequential.paths)

    def test_parallel_cache_stats_match_sequential_semantics(
        self, batch_graph, shared_target_queries
    ):
        # Pre-warming must not inflate the hit count: each fresh BFS is
        # charged to the first query of its target, exactly as sequentially.
        with Database(batch_graph, backend="threads", workers=4) as db:
            stream = db.batch(shared_target_queries, store_paths=False)
            results = stream.results()
            stats = stream.stats()
            assert db._backend.core.session.stats.reverse_bfs_runs == 3
        assert stats.reverse_bfs_runs == 3
        assert stats.bfs_cache_hits == len(shared_target_queries) - 3
        flags = [result.stats.bfs_cache_hit for result in results]
        assert flags.count(False) == 3

    def test_constrained_queries_match_sequential(self, batch_graph, shared_target_queries):
        constraint = PredicateConstraint(
            lambda u, v, weight, label: (u + v) % 7 != 0, batch_graph
        )
        config = RunConfig(store_paths=True, constraint=constraint)
        expected = _sequential(batch_graph, shared_target_queries, PathEnum(), config)
        with Database(batch_graph) as db:
            batched_results = db.batch(
                [Q(q.source, q.target, q.k).where(constraint) for q in shared_target_queries]
            ).results()
        for sequential, batched in zip(expected, batched_results):
            assert set(batched.paths) == set(sequential.paths)

    def test_baseline_algorithms_pass_through(self, batch_graph, shared_target_queries):
        queries = shared_target_queries[:4]
        expected = _sequential(batch_graph, queries, BcDfs())
        with Database(batch_graph, algorithm=BcDfs()) as db:
            stream = db.batch(queries)
            batched_results = stream.results()
            # Baselines never consult the distance cache.
            assert stream.stats().reverse_bfs_runs == 0
            assert db._backend.session.stats.reverse_bfs_runs == 0
        for sequential, batched in zip(expected, batched_results):
            assert set(batched.paths) == set(sequential.paths)


class TestBatchStats:
    """Aggregate statistics of an inline ``Database.batch`` stream."""

    def test_repeated_targets_run_strictly_fewer_bfs_than_queries(
        self, batch_graph, shared_target_queries
    ):
        _, stats = _count_only_batch(batch_graph, shared_target_queries)
        assert stats.completed == len(shared_target_queries)
        assert stats.reverse_bfs_runs == 3  # one per distinct target
        assert stats.reverse_bfs_runs < stats.completed
        assert stats.bfs_cache_hits == stats.completed - stats.reverse_bfs_runs
        assert 0.0 < stats.hit_rate < 1.0
        assert stats.wall_seconds > 0.0

    def test_per_query_cache_flag_marks_repeats_only(
        self, batch_graph, shared_target_queries
    ):
        results, _ = _count_only_batch(batch_graph, shared_target_queries)
        flags = [result.stats.bfs_cache_hit for result in results]
        # The first sighting of each of the 3 targets pays for its BFS.
        assert flags.count(False) == 3
        assert all(flags[3:])

    def test_distinct_targets_get_no_hits(self, batch_graph):
        queries = [Query(0, t, 4) for t in (5, 6, 7) if t != 0]
        _, stats = _count_only_batch(batch_graph, queries)
        assert stats.reverse_bfs_runs == len(queries)
        assert stats.bfs_cache_hits == 0

    def test_stats_row_shape(self, batch_graph, shared_target_queries):
        _, stats = _count_only_batch(batch_graph, shared_target_queries[:4])
        row = stats.as_row()
        assert set(row) == {
            "backend", "queries", "reverse_bfs_runs", "bfs_cache_hits", "hit_rate", "wall_ms",
        }

    def test_batch_result_aggregates(self, batch_graph, shared_target_queries):
        results, stats = _count_only_batch(batch_graph, shared_target_queries)
        assert len(results) == len(shared_target_queries)
        assert stats.total_paths == sum(r.count for r in results)
        assert stats.total_paths / stats.wall_seconds > 0.0


class TestQuerySession:
    def test_session_reuses_distances_across_run_calls(self, batch_graph):
        session = QuerySession(batch_graph)
        target = 3
        first = session.run(Query(0, target, 4), RunConfig(store_paths=True))
        second = session.run(Query(1, target, 4), RunConfig(store_paths=True))
        assert session.stats.reverse_bfs_runs == 1
        assert session.stats.bfs_cache_hits == 1
        assert not first.stats.bfs_cache_hit
        assert second.stats.bfs_cache_hit

    def test_different_k_is_a_different_cache_entry(self, batch_graph):
        session = QuerySession(batch_graph)
        session.run(Query(0, 3, 4), RunConfig(store_paths=False))
        session.run(Query(1, 3, 5), RunConfig(store_paths=False))
        assert session.stats.reverse_bfs_runs == 2

    def test_session_results_match_engine(self, batch_graph):
        session = QuerySession(batch_graph)
        query = Query(2, 9, 4)
        via_session = session.run(query, RunConfig(store_paths=True))
        direct = PathEnum().run(batch_graph, query, RunConfig(store_paths=True))
        assert set(via_session.paths) == set(direct.paths)

    def test_cache_eviction_keeps_session_correct(self, batch_graph):
        session = QuerySession(batch_graph, max_cached=1)
        results = [
            session.run(Query(0, t, 4), RunConfig(store_paths=True))
            for t in (3, 5, 3, 5)
        ]
        # Every lookup after an eviction recomputes, so counts stay exact.
        assert session.stats.reverse_bfs_runs == 4
        assert results[0].count == results[2].count
        assert results[1].count == results[3].count

    def test_run_external_translates_ids(self):
        graph = power_law_graph(60, 4.0, exponent=2.2, seed=9)
        session = QuerySession(graph)
        result = session.run_external(0, 1, 4, RunConfig(store_paths=True))
        direct = PathEnum().run(graph, Query(0, 1, 4), RunConfig(store_paths=True))
        assert set(result.paths) == set(direct.paths)

    def test_executor_rejects_bad_workers(self, batch_graph):
        with pytest.raises(ValueError, match="workers"):
            Database(batch_graph, backend="threads", workers=0)

    def test_empty_workload(self, batch_graph):
        for backend, workers in (("inline", None), ("threads", 2)):
            with Database(batch_graph, backend=backend, workers=workers) as db:
                stream = db.batch([])
                assert stream.results() == []
                assert len(stream) == 0
                assert stream.stats().total_paths == 0

    def test_batch_result_stats_are_snapshots(self, batch_graph, shared_target_queries):
        with Database(batch_graph) as db:
            first = db.batch(shared_target_queries[:6], store_paths=False)
            first.results()
            first_stats = first.stats()
            second = db.batch(shared_target_queries[6:], store_paths=False)
            second.results()
            # The earlier stream must not change under the later batch.
            assert first.stats() == first_stats
            assert second.stats().completed == len(shared_target_queries) - 6
            # The database's session keeps the cumulative view.
            assert db._backend.session.stats.queries_run == len(shared_target_queries)

    def test_small_cache_grows_to_fit_a_batch(self, batch_graph, shared_target_queries):
        # max_cached below the number of distinct targets must not break the
        # warm-once guarantee: still one reverse BFS per distinct target.
        with Database(batch_graph, backend="threads", workers=4, max_cached=1) as db:
            stream = db.batch(shared_target_queries, store_paths=False)
            stream.results()
            assert db._backend.core.session.stats.reverse_bfs_runs == 3
        assert stream.stats().reverse_bfs_runs == 3

    def test_distinct_constraints_do_not_share_cache_entries(self, batch_graph):
        session = QuerySession(batch_graph)
        query = Query(0, 9, 4)
        constraint_a = PredicateConstraint(
            lambda u, v, weight, label: True, batch_graph
        )
        constraint_b = PredicateConstraint(
            lambda u, v, weight, label: v % 2 == 1, batch_graph
        )
        unrestricted = session.run(
            query, RunConfig(store_paths=True, constraint=constraint_a)
        )
        restricted = session.run(
            query, RunConfig(store_paths=True, constraint=constraint_b)
        )
        assert session.stats.reverse_bfs_runs == 2
        direct = PathEnum().run(
            batch_graph, query, RunConfig(store_paths=True, constraint=constraint_b)
        )
        assert set(restricted.paths) == set(direct.paths)
        assert set(unrestricted.paths) >= set(restricted.paths)
