"""Unit tests for result and statistics containers."""

from __future__ import annotations

import pytest

from repro.core.result import EnumerationStats, PathBuffer, Phase, QueryResult, paths_are_valid


def _make_result(**overrides):
    stats = overrides.pop("stats", EnumerationStats())
    defaults = dict(
        source=0,
        target=5,
        k=4,
        algorithm="IDX-DFS",
        count=3,
        paths=PathBuffer.from_paths([(0, 1, 5), (0, 2, 5), (0, 1, 2, 5)]),
        stats=stats,
    )
    defaults.update(overrides)
    return QueryResult(**defaults)


class TestEnumerationStats:
    def test_phase_accumulation(self):
        stats = EnumerationStats()
        stats.add_phase(Phase.BFS, 0.5)
        stats.add_phase(Phase.BFS, 0.25)
        assert stats.phase(Phase.BFS) == pytest.approx(0.75)
        assert stats.phase("unknown-phase") == 0.0

    def test_preprocessing_uses_index_phase_when_present(self):
        stats = EnumerationStats()
        stats.add_phase(Phase.BFS, 0.2)
        stats.add_phase(Phase.INDEX, 0.5)
        assert stats.preprocessing_seconds == pytest.approx(0.5)

    def test_preprocessing_falls_back_to_bfs(self):
        stats = EnumerationStats()
        stats.add_phase(Phase.BFS, 0.2)
        assert stats.preprocessing_seconds == pytest.approx(0.2)

    def test_enumeration_combines_dfs_and_join(self):
        stats = EnumerationStats()
        stats.add_phase(Phase.ENUMERATION, 0.1)
        stats.add_phase(Phase.JOIN, 0.3)
        assert stats.enumeration_seconds == pytest.approx(0.4)

    def test_merge_accumulates_counters(self):
        first = EnumerationStats(edges_accessed=10, invalid_partial_results=2)
        first.add_phase(Phase.TOTAL, 1.0)
        second = EnumerationStats(edges_accessed=5, peak_partial_result_tuples=100)
        second.add_phase(Phase.TOTAL, 2.0)
        second.timed_out = True
        first.merge(second)
        assert first.edges_accessed == 15
        assert first.invalid_partial_results == 2
        assert first.peak_partial_result_tuples == 100
        assert first.timed_out
        assert first.total_seconds == pytest.approx(3.0)

    def test_phase_constants_cover_all(self):
        assert Phase.TOTAL in Phase.ALL
        assert Phase.OPTIMIZATION in Phase.ALL


class TestQueryResult:
    def test_query_time_units(self):
        stats = EnumerationStats()
        stats.add_phase(Phase.TOTAL, 0.25)
        result = _make_result(stats=stats)
        assert result.query_seconds == pytest.approx(0.25)
        assert result.query_millis == pytest.approx(250.0)

    def test_throughput(self):
        stats = EnumerationStats()
        stats.add_phase(Phase.TOTAL, 2.0)
        result = _make_result(stats=stats, count=100)
        assert result.throughput == pytest.approx(50.0)

    def test_throughput_with_zero_time(self):
        result = _make_result(count=7)
        assert result.throughput == 7.0

    def test_completed_flag(self):
        assert _make_result().completed
        timed_out = EnumerationStats(timed_out=True)
        assert not _make_result(stats=timed_out).completed
        truncated = EnumerationStats(truncated=True)
        assert not _make_result(stats=truncated).completed

    def test_path_lengths(self):
        result = _make_result()
        assert sorted(result.path_lengths()) == [2, 2, 3]
        assert _make_result(paths=None).path_lengths() == []

    def test_paths_must_be_a_buffer_or_none(self):
        # The tuple-list form fails at construction, not later in a worker.
        with pytest.raises(TypeError, match="PathBuffer or None"):
            _make_result(paths=[(0, 1, 5), (0, 2, 5), (0, 1, 2, 5)])
        result = _make_result()
        with pytest.raises(TypeError, match="not tuple"):
            result.paths = ((0, 1, 5),)
        assert result.paths == [(0, 1, 5), (0, 2, 5), (0, 1, 2, 5)]

    def test_summary_contents(self):
        summary = _make_result().summary()
        assert summary["algorithm"] == "IDX-DFS"
        assert summary["count"] == 3
        assert summary["response_ms"] is None


class TestPathValidation:
    def test_valid_paths(self):
        assert paths_are_valid([(0, 1, 5), (0, 5)], source=0, target=5, k=3)

    def test_wrong_endpoints(self):
        assert not paths_are_valid([(1, 5)], source=0, target=5, k=3)
        assert not paths_are_valid([(0, 1)], source=0, target=5, k=3)

    def test_too_long(self):
        assert not paths_are_valid([(0, 1, 2, 3, 5)], source=0, target=5, k=3)

    def test_duplicate_vertices(self):
        assert not paths_are_valid([(0, 1, 1, 5)], source=0, target=5, k=4)

    def test_duplicate_paths(self):
        assert not paths_are_valid([(0, 5), (0, 5)], source=0, target=5, k=3)
