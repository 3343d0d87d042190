"""Unit tests for the PathEnum engine and its fixed-plan variants."""

from __future__ import annotations

import pytest

from repro.api import Database, Q
from repro.core.engine import IdxDfs, IdxJoin, PathEnum
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import Phase
from repro.graph.builder import from_edges
from repro.graph.generators import complete_graph, erdos_renyi

from tests.helpers import assert_same_paths, brute_force_paths


class TestEngineCorrectness:
    @pytest.mark.parametrize("algorithm_cls", [IdxDfs, IdxJoin, PathEnum])
    def test_paper_example(self, paper_graph, paper_query, algorithm_cls):
        result = algorithm_cls().run(paper_graph, paper_query)
        expected = brute_force_paths(
            paper_graph, paper_query.source, paper_query.target, paper_query.k
        )
        assert result.count == len(expected) == 5
        assert_same_paths(result.paths, expected, context=algorithm_cls.__name__)

    @pytest.mark.parametrize("algorithm_cls", [IdxDfs, IdxJoin, PathEnum])
    def test_no_result_query(self, algorithm_cls):
        graph = from_edges([(0, 1), (2, 3)])
        result = algorithm_cls().run(graph, Query(0, 3, 4))
        assert result.count == 0
        assert result.paths == []

    def test_external_id_entry_point(self, paper_graph):
        result = IdxDfs().run_external(paper_graph, "s", "t", 4)
        assert result.count == 5

    def test_convenience_count_and_paths(self, paper_graph, paper_query):
        algorithm = PathEnum()
        assert algorithm.count(paper_graph, paper_query) == 5
        assert len(algorithm.paths(paper_graph, paper_query)) == 5


class TestPlanSelection:
    def test_idx_dfs_always_uses_dfs_plan(self, paper_graph, paper_query):
        result = IdxDfs().run(paper_graph, paper_query)
        assert result.stats.plan == "dfs"
        assert Phase.ENUMERATION in result.stats.phase_seconds

    def test_idx_join_always_uses_join_plan(self, paper_graph, paper_query):
        result = IdxJoin().run(paper_graph, paper_query)
        assert result.stats.plan == "join"
        assert result.stats.cut_position is not None
        assert Phase.JOIN in result.stats.phase_seconds

    def test_pathenum_uses_dfs_for_small_queries(self, paper_graph, paper_query):
        result = PathEnum().run(paper_graph, paper_query)
        assert result.stats.plan == "dfs"

    def test_pathenum_tau_zero_follows_cost_model(self):
        graph = erdos_renyi(120, 6.0, seed=33)
        query = Query(0, 1, 5)
        engine = PathEnum(tau=0.0)
        result = engine.run(graph, query)
        plan = engine.explain(graph, query, tau=0.0)
        assert result.stats.plan == plan.kind
        # Regardless of the plan, the result set matches the reference.
        expected = brute_force_paths(graph, 0, 1, 5)
        assert result.count == len(expected)

    def test_explain_does_not_enumerate(self, paper_graph, paper_query):
        plan = PathEnum().explain(paper_graph, paper_query)
        assert plan.kind in ("dfs", "join")

    def test_custom_tau_flows_through_config(self, paper_graph, paper_query):
        engine = PathEnum(tau=0.0)
        result = engine.run(paper_graph, paper_query)
        assert result.stats.full_estimate is not None


class TestRunConfigHandling:
    def test_result_limit_truncates(self, paper_graph, paper_query):
        config = RunConfig(result_limit=2)
        result = PathEnum().run(paper_graph, paper_query, config)
        assert result.count == 2
        assert result.stats.truncated
        assert not result.completed

    def test_time_limit_marks_timeout(self):
        graph = complete_graph(10)
        config = RunConfig(store_paths=False, time_limit_seconds=0.0)
        result = IdxDfs().run(graph, Query(0, 9, 6), config)
        assert result.stats.timed_out
        assert not result.completed

    def test_store_paths_false(self, paper_graph, paper_query):
        config = RunConfig(store_paths=False)
        result = PathEnum().run(paper_graph, paper_query, config)
        assert result.paths is None
        assert result.count == 5

    def test_response_time_recorded(self, paper_graph, paper_query):
        config = RunConfig(response_k=1)
        result = IdxDfs().run(paper_graph, paper_query, config)
        assert result.response_seconds is not None
        assert result.response_seconds <= result.query_seconds + 1e-6

    def test_invalid_constraint_type_rejected(self, paper_graph, paper_query):
        config = RunConfig(constraint=object())
        with pytest.raises(TypeError):
            PathEnum().run(paper_graph, paper_query, config)


class TestDatabaseQuery:
    def test_query_internal_ids(self, paper_graph, paper_query):
        with Database(paper_graph) as db:
            result = db.query(Q(paper_query.source, paper_query.target, paper_query.k)).result()
        assert len(result.paths) == 5

    def test_query_external_ids(self, paper_graph):
        with Database(paper_graph) as db:
            result = db.query(Q("s", "t", 4), external=True).result()
        assert ("s", "v0", "t") in [paper_graph.translate_path(p) for p in result.paths]

    def test_count_only_query(self, paper_graph):
        with Database(paper_graph) as db:
            assert db.query(Q("s", "t", 4).count_only(), external=True).result().count == 5

    def test_query_with_limit(self, paper_graph):
        with Database(paper_graph) as db:
            result = db.query(Q("s", "t", 4).limit(3), external=True).result()
        assert len(result.paths) == 3


class TestStatisticsPopulation:
    def test_phases_present(self, paper_graph, paper_query):
        result = PathEnum().run(paper_graph, paper_query)
        stats = result.stats
        assert stats.phase(Phase.INDEX) > 0.0
        assert stats.phase(Phase.TOTAL) > 0.0
        assert stats.index_edges > 0
        assert stats.preliminary_estimate is not None

    def test_query_result_summary_fields(self, paper_graph, paper_query):
        result = PathEnum().run(paper_graph, paper_query)
        summary = result.summary()
        assert summary["algorithm"] == "PathEnum"
        assert summary["count"] == 5
        assert summary["k"] == paper_query.k
        assert summary["timed_out"] is False
