"""Equivalence and unit tests for the native enumeration engine.

The contract under test is the same byte-identity the kernels are held to:
:func:`run_dfs_native` / :func:`run_join_native` emit exactly the same
paths in exactly the same order as the recursive engines, charge the same
statistics counters, and behave identically under result-limit
interruption; deadline interruption yields a prefix of the full
enumeration.  The resumable DFS core is driven in its Python form
(:func:`native._dfs_fill`) everywhere and, when the C library loads,
compiled — the C loops are held to the Python kernels step for step,
including where a result limit or an expired deadline interrupts them.

Also covered here: the tier rule (native for unconstrained queries, the
kernel when the library is missing, the recursive engines for constrained
queries), building and loading the library (concurrent builders, no
compiler, an unusable cache dir, ``REPRO_NATIVE=off``), the group-fused
index build, and CSR-mirror memoisation.
"""

from __future__ import annotations

import logging
import os
import random
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from repro.api import Database, Q
from repro.core import engine as engine_module
from repro.core import native
from repro.core.dfs import run_idx_dfs
from repro.core.engine import IdxDfs, IdxJoin, PathEnum
from repro.core.index import LightWeightIndex
from repro.core.join import run_idx_join
from repro.core.kernels import run_dfs_kernel, run_join_kernel, run_subquery_kernel
from repro.core.listener import Deadline, ResultCollector, RunConfig
from repro.core.native import (
    jit_ready,
    run_dfs_native,
    run_join_native,
    run_subquery_native,
    warmup,
)
from repro.core.constraints import PredicateConstraint
from repro.core.query import Query
from repro.core.result import EnumerationStats, PathBuffer
from repro.errors import EnumerationTimeout, ResultLimitReached
from repro.graph.generators import complete_graph, erdos_renyi
from repro.graph.traversal import multi_source_bfs_distances_bounded, bfs_distances_bounded

from tests.helpers import accept_all

#: Counters that must agree exactly between a native and a recursive run.
COUNTERS = (
    "edges_accessed",
    "partial_results_generated",
    "invalid_partial_results",
    "results_emitted",
)

#: Join runs additionally pin the partial-result peaks.
JOIN_COUNTERS = COUNTERS + (
    "peak_partial_result_tuples",
    "peak_partial_result_bytes",
)

requires_compiled = pytest.mark.skipif(
    not jit_ready(), reason="compiled C library not loaded (no cc, or REPRO_NATIVE=off)"
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


def _fill_loop(filler):
    return lambda index, collector, *, deadline=None, stats=None: (
        native._run_dfs_fill_loop(
            index,
            collector,
            deadline=deadline,
            stats=stats if stats is not None else EnumerationStats(),
            filler=filler,
        )
    )


def _dfs_runners():
    """The native DFS entry points under test: the resumable fill loop in
    Python always, and in C when the library loads."""
    yield "fill-loop", _fill_loop(native._dfs_fill)
    if jit_ready():
        yield "compiled", _fill_loop(native._c_dfs_filler(native._library()))


@pytest.fixture
def fresh_library_state(monkeypatch):
    """Make the next :func:`jit_ready` call build/load from scratch; the
    real state comes back after the test."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setitem(native._LIB, "checked", False)
    monkeypatch.setitem(native._LIB, "lib", None)
    monkeypatch.setitem(native._LIB, "warm", False)


class TestDfsNativeEquivalence:
    def test_paper_example(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        recursive, r_stats = ResultCollector(), EnumerationStats()
        run_idx_dfs(index, recursive, stats=r_stats)
        for label, runner in _dfs_runners():
            collector, stats = ResultCollector(), EnumerationStats()
            runner(index, collector, stats=stats)
            assert _paths_of(collector) == _paths_of(recursive), label
            for name in COUNTERS:
                assert getattr(stats, name) == getattr(r_stats, name), (label, name)

    def test_random_graphs_same_paths_same_order_same_stats(self):
        for _, graph, query in _random_cases(30):
            index = LightWeightIndex.build(graph, query)
            recursive, r_stats = ResultCollector(), EnumerationStats()
            run_idx_dfs(index, recursive, stats=r_stats)
            for label, runner in _dfs_runners():
                collector, stats = ResultCollector(), EnumerationStats()
                runner(index, collector, stats=stats)
                assert _paths_of(collector) == _paths_of(recursive), (label, query)
                for name in COUNTERS:
                    assert getattr(stats, name) == getattr(r_stats, name), (
                        label, query, name,
                    )

    def test_k2_and_dense_cliques(self):
        cases = [(complete_graph(8), Query(0, 7, 2))]
        cases += [
            (complete_graph(n), Query(0, n - 1, k))
            for n, k in ((10, 5), (12, 6), (9, 7))
        ]
        for graph, query in cases:
            index = LightWeightIndex.build(graph, query)
            recursive, r_stats = ResultCollector(), EnumerationStats()
            run_idx_dfs(index, recursive, stats=r_stats)
            collector, stats = ResultCollector(), EnumerationStats()
            run_dfs_native(index, collector, stats=stats)
            assert _paths_of(collector) == _paths_of(recursive), query
            for name in COUNTERS:
                assert getattr(stats, name) == getattr(r_stats, name), (query, name)

    def test_paths_are_plain_python_ints(self):
        index = LightWeightIndex.build(complete_graph(6), Query(0, 5, 3))
        collector = ResultCollector()
        run_dfs_native(index, collector)
        for path in _paths_of(collector):
            assert all(type(v) is int for v in path)

    def test_result_limit_interruption_identical(self):
        for rng, graph, query in _random_cases(20, seed=23):
            index = LightWeightIndex.build(graph, query)
            probe = ResultCollector()
            run_dfs_native(index, probe)
            if probe.count < 2:
                continue
            limit = rng.randint(1, probe.count - 1)
            recursive, r_stats = ResultCollector(result_limit=limit), EnumerationStats()
            with pytest.raises(ResultLimitReached):
                run_idx_dfs(index, recursive, stats=r_stats)
            for label, runner in _dfs_runners():
                collector = ResultCollector(result_limit=limit)
                stats = EnumerationStats()
                with pytest.raises(ResultLimitReached):
                    runner(index, collector, stats=stats)
                assert collector.count == limit, (label, query)
                assert _paths_of(collector) == _paths_of(recursive), (label, query)
                for name in COUNTERS:
                    assert getattr(stats, name) == getattr(r_stats, name), (
                        label, query, name,
                    )

    def test_limit_on_bulk_block_boundary(self):
        # complete_graph(10)/k=6 fills many NATIVE_FLUSH_PATHS-path blocks;
        # a limit of exactly one block (4096) makes the fill loop stop on a
        # full block and raise on its flush, and the other limits land
        # mid-block.
        index = LightWeightIndex.build(complete_graph(10), Query(0, 9, 6))
        full = ResultCollector()
        run_dfs_native(index, full)
        total = full.count
        for limit in (1, 999, 1000, 1001, native.NATIVE_FLUSH_PATHS, total - 1):
            if not 0 < limit < total:
                continue
            recursive = ResultCollector(result_limit=limit)
            with pytest.raises(ResultLimitReached):
                run_idx_dfs(index, recursive)
            runners = [("run_dfs_native", run_dfs_native), *_dfs_runners()]
            for label, runner in runners:
                collector = ResultCollector(result_limit=limit)
                with pytest.raises(ResultLimitReached):
                    runner(index, collector)
                assert collector.count == limit, (label, limit)
                assert _paths_of(collector) == _paths_of(recursive), (label, limit)

    def test_deadline_interruption_yields_prefix(self):
        index = LightWeightIndex.build(complete_graph(10), Query(0, 9, 6))
        full = ResultCollector()
        run_dfs_native(index, full)
        everything = _paths_of(full)
        for label, runner in _dfs_runners():
            collector = ResultCollector()
            with pytest.raises(EnumerationTimeout):
                runner(
                    index, collector, deadline=Deadline(0.0, poll_interval=1),
                    stats=EnumerationStats(),
                )
            emitted = _paths_of(collector)
            assert emitted == everything[: len(emitted)], label
            assert len(emitted) < len(everything), label

    def test_store_paths_disabled_still_counts(self):
        index = LightWeightIndex.build(complete_graph(8), Query(0, 7, 4))
        reference = ResultCollector()
        run_dfs_native(index, reference)
        collector = ResultCollector(store_paths=False)
        run_dfs_native(index, collector)
        assert collector.count == reference.count
        assert collector.stored_paths() is None


class TestJoinNativeEquivalence:
    def test_random_graphs_all_cut_positions(self):
        for _, graph, query in _random_cases(20, seed=37):
            index = LightWeightIndex.build(graph, query)
            for cut in range(1, query.k):
                kernel, k_stats = ResultCollector(), EnumerationStats()
                run_join_kernel(index, cut, kernel, stats=k_stats)
                collector, stats = ResultCollector(), EnumerationStats()
                run_join_native(index, cut, collector, stats=stats)
                assert _paths_of(collector) == _paths_of(kernel), (query, cut)
                for name in JOIN_COUNTERS:
                    assert getattr(stats, name) == getattr(k_stats, name), (
                        query, cut, name,
                    )

    def test_result_limit_interruption_identical(self):
        for rng, graph, query in _random_cases(15, seed=41):
            index = LightWeightIndex.build(graph, query)
            cut = rng.randint(1, query.k - 1)
            probe = ResultCollector()
            run_join_native(index, cut, probe)
            if probe.count < 2:
                continue
            limit = rng.randint(1, probe.count - 1)
            kernel, k_stats = ResultCollector(result_limit=limit), EnumerationStats()
            with pytest.raises(ResultLimitReached):
                run_join_kernel(index, cut, kernel, stats=k_stats)
            collector, stats = ResultCollector(result_limit=limit), EnumerationStats()
            with pytest.raises(ResultLimitReached):
                run_join_native(index, cut, collector, stats=stats)
            assert collector.count == limit
            assert _paths_of(collector) == _paths_of(kernel), (query, cut)
            for name in COUNTERS:
                assert getattr(stats, name) == getattr(k_stats, name), (query, cut)

    def test_invalid_cut_position_rejected(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        with pytest.raises(ValueError):
            run_join_native(index, 0, ResultCollector())
        with pytest.raises(ValueError):
            run_join_native(index, paper_query.k, ResultCollector())


class TestSubqueryNative:
    def test_matches_kernel_walks_and_counters(self):
        for _, graph, query in _random_cases(15, seed=53):
            index = LightWeightIndex.build(graph, query)
            for offset in range(query.k):
                for length in range(1, query.k - offset + 1):
                    k_stats = EnumerationStats()
                    k_data, k_width = run_subquery_kernel(
                        index, start=query.source, offset=offset, length=length,
                        stats=k_stats,
                    )
                    stats = EnumerationStats()
                    data, width = run_subquery_native(
                        index, start=query.source, offset=offset, length=length,
                        stats=stats,
                    )
                    assert width == k_width
                    assert list(data) == list(k_data), (query, offset, length)
                    for name in COUNTERS:
                        assert getattr(stats, name) == getattr(k_stats, name)

    def test_start_outside_index(self, paper_graph, paper_query):
        index = LightWeightIndex.build(paper_graph, paper_query)
        outside = paper_graph.num_vertices + 5
        data, width = run_subquery_native(index, start=outside, offset=0, length=0)
        assert list(data) == [outside] and width == 1
        data, width = run_subquery_native(index, start=outside, offset=0, length=2)
        assert list(data) == [] and width == 3


class TestEngineSelection:
    def test_native_runs_match_recursive(self, paper_graph, paper_query):
        for algorithm in (PathEnum(), IdxDfs(), IdxJoin()):
            recursive = algorithm.run(
                paper_graph, paper_query, RunConfig(constraint=accept_all(paper_graph))
            )
            native_run = algorithm.run(paper_graph, paper_query, RunConfig())
            assert native_run.paths == recursive.paths
            assert native_run.count == recursive.count
            assert native_run.stats.plan == recursive.stats.plan

    def test_native_uses_columnar_fast_path(self, paper_graph, paper_query):
        result = IdxDfs().run(paper_graph, paper_query, RunConfig())
        assert result.path_buffer is not None

    def test_auto_without_library_keeps_kernel_tier(
        self, paper_graph, paper_query, without_library, monkeypatch
    ):
        def compiled_must_not_run(*args, **kwargs):
            raise AssertionError("the compiled loop ran without the library")

        monkeypatch.setattr(native, "_c_dfs_filler", compiled_must_not_run)
        kernel = ResultCollector()
        run_dfs_kernel(LightWeightIndex.build(paper_graph, paper_query), kernel)
        auto = IdxDfs().run(paper_graph, paper_query, RunConfig())
        assert auto.paths == _paths_of(kernel)

    def test_constrained_native_falls_back_to_recursive(
        self, paper_graph, paper_query, monkeypatch
    ):
        calls = []
        for name, engine in (("run_idx_dfs", run_idx_dfs), ("run_idx_join", run_idx_join)):
            def spy(*args, _engine=engine, **kwargs):
                calls.append(_engine)
                return _engine(*args, **kwargs)

            monkeypatch.setattr(engine_module, name, spy)
        constraint = PredicateConstraint(lambda u, v, w, l: True, paper_graph)
        plain = PathEnum().run(paper_graph, paper_query, RunConfig())
        assert not calls
        constrained = PathEnum().run(
            paper_graph, paper_query, RunConfig(constraint=constraint)
        )
        assert calls  # the recursive engines ran
        assert constrained.paths == plain.paths
        assert constrained.path_buffer is not None

    def test_warmup_reports_toolchain(self):
        assert warmup() is jit_ready()


def _expired(poll_interval):
    """A deadline that raises at its first clock read: after exactly
    ``poll_interval`` work units, so where it fires is deterministic."""
    return Deadline(0.0, poll_interval=poll_interval)


def _join_run(join, index, cut, *, limit=None, deadline=None):
    """``(paths, counters, raised)`` of one join run."""
    collector, stats = ResultCollector(result_limit=limit), EnumerationStats()
    raised = None
    try:
        join(index, cut, collector, deadline=deadline, stats=stats)
    except (ResultLimitReached, EnumerationTimeout) as exc:
        raised = type(exc)
    return _paths_of(collector), [getattr(stats, n) for n in JOIN_COUNTERS], raised


@requires_compiled
class TestCompiledTier:
    def test_compiled_filler_matches_recursive(self):
        assert warmup() is True
        for _, graph, query in _random_cases(10, seed=71):
            index = LightWeightIndex.build(graph, query)
            recursive, r_stats = ResultCollector(), EnumerationStats()
            run_idx_dfs(index, recursive, stats=r_stats)
            collector, stats = ResultCollector(), EnumerationStats()
            run_dfs_native(index, collector, stats=stats)
            assert _paths_of(collector) == _paths_of(recursive), query
            for name in COUNTERS:
                assert getattr(stats, name) == getattr(r_stats, name), (query, name)

    def test_auto_selects_native(self, paper_graph, paper_query, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return run_dfs_native(*args, **kwargs)

        monkeypatch.setattr(engine_module, "run_dfs_native", spy)
        recursive = IdxDfs().run(
            paper_graph, paper_query, RunConfig(constraint=accept_all(paper_graph))
        )
        assert not calls
        auto = IdxDfs().run(paper_graph, paper_query, RunConfig())
        assert auto.paths == recursive.paths
        assert calls

    def test_compiled_dfs_interrupts_like_the_python_core(self):
        # Same driver, same tick accounting: an expired deadline must stop
        # the C core on exactly the step the Python core stops on.
        python, compiled = _fill_loop(native._dfs_fill), dict(_dfs_runners())["compiled"]
        for rng, graph, query in _random_cases(20, seed=83):
            index = LightWeightIndex.build(graph, query)
            poll = rng.choice([1, 2, 7, 64, 2048, 5000])
            runs = []
            for runner in (python, compiled):
                collector, stats = ResultCollector(), EnumerationStats()
                try:
                    runner(index, collector, deadline=_expired(poll), stats=stats)
                except EnumerationTimeout:
                    pass
                runs.append((_paths_of(collector), [getattr(stats, n) for n in COUNTERS]))
            assert runs[0] == runs[1], (query, poll)

    def test_subquery_walks_match_the_kernel_under_deadlines(self):
        for rng, graph, query in _random_cases(15, seed=89):
            index = LightWeightIndex.build(graph, query)
            for offset in range(query.k):
                length = rng.randint(1, query.k - offset)
                poll = rng.choice([1, 3, 50, 1024, 4000])
                runs = []
                for walker in (run_subquery_kernel, run_subquery_native):
                    stats = EnumerationStats()
                    try:
                        data = list(walker(
                            index, start=query.source, offset=offset, length=length,
                            deadline=_expired(poll), stats=stats,
                        )[0])
                    except EnumerationTimeout:
                        data = None
                    runs.append((data, [getattr(stats, n) for n in COUNTERS]))
                assert runs[0] == runs[1], (query, offset, length, poll)

    def test_subquery_walks_resume_after_polls_that_do_not_fire(self):
        # Thousands of steps per walk set: the C walker returns every 1024
        # ticks, sometimes between charging a candidate and recording it.
        graph = erdos_renyi(300, 12.0, seed=3)
        query = Query(0, 7, 5)
        index = LightWeightIndex.build(graph, query)
        for offset in range(query.k):
            for length in range(1, query.k - offset + 1):
                walks = [
                    list(walker(
                        index, start=0, offset=offset, length=length,
                        deadline=Deadline(3600.0),
                    )[0])
                    for walker in (run_subquery_kernel, run_subquery_native)
                ]
                assert walks[0] == walks[1], (offset, length)


@requires_compiled
class TestCompiledJoin:
    """The C join against :func:`run_join_kernel`: paths, order and every
    counter, complete and interrupted."""

    CASES = [(rng, graph, query) for rng, graph, query in _random_cases(40, seed=97)]

    def test_complete_runs_identical(self):
        for _, graph, query in self.CASES:
            index = LightWeightIndex.build(graph, query)
            for cut in range(1, query.k):
                assert _join_run(run_join_native, index, cut) == _join_run(
                    run_join_kernel, index, cut
                ), (query, cut)

    def test_result_limits_identical(self):
        for rng, graph, query in self.CASES:
            index = LightWeightIndex.build(graph, query)
            cut = rng.randint(1, query.k - 1)
            total = len(_join_run(run_join_kernel, index, cut)[0])
            for limit in {1, 2, total // 2 or 1, max(1, total - 1), total, total + 1}:
                kernel = _join_run(run_join_kernel, index, cut, limit=limit)
                assert _join_run(run_join_native, index, cut, limit=limit) == kernel, (
                    query, cut, limit,
                )

    def test_expired_deadlines_identical(self):
        # The kernel polls once per left walk and every 1024 sub-query
        # steps; the C join returns to poll exactly where those polls read
        # the clock, so an expired deadline stops both on the same step.
        for rng, graph, query in self.CASES:
            index = LightWeightIndex.build(graph, query)
            cut = rng.randint(1, query.k - 1)
            for poll in (1, 2, rng.randint(3, 300), 1024, 5000):
                kernel = _join_run(run_join_kernel, index, cut, deadline=_expired(poll))
                native_run = _join_run(run_join_native, index, cut, deadline=_expired(poll))
                assert native_run == kernel, (query, cut, poll)

    def test_large_join_crosses_block_boundaries(self):
        # Thousands of walks per sub-query: the C loops suspend and resume
        # for full output arrays and for deadline polls that do not fire.
        index = LightWeightIndex.build(complete_graph(12), Query(0, 11, 6))
        for limit in (None, 4095, 4096, 4097, 20000):
            for poll in (None, 1, 256):
                deadline = None if poll is None else Deadline(3600.0, poll_interval=poll)
                native_run = _join_run(
                    run_join_native, index, 3, limit=limit, deadline=deadline
                )
                assert native_run == _join_run(run_join_kernel, index, 3, limit=limit), (
                    limit, poll,
                )


def _spec_payloads():
    """Payload bytes of one spec list over DFS and join plans, limits and
    deadlines included, on whichever tier the library picks."""
    graph = erdos_renyi(60, 5.0, seed=5)
    rng = random.Random(13)
    specs = []
    while len(specs) < 16:
        s, t = rng.sample(range(graph.num_vertices), 2)
        specs.append(Q(s, t, rng.randint(3, 6)))
    payloads = []
    for algorithm in (PathEnum(), IdxDfs(), IdxJoin()):
        with Database(graph, algorithm=algorithm) as db:
            for options in ({}, {"limit": 7}, {"limit": 500}, {"deadline": 60.0}):
                payloads.append(db.batch(specs, **options).payload_bytes())
    return payloads


class TestLibraryLifecycle:
    def test_c_source_ships_with_the_package(self):
        source = resources.files("repro.core").joinpath("_cfill.c")
        assert source.is_file()
        assert b"repro_dfs_fill" in source.read_bytes()

    @requires_compiled
    def test_payloads_identical_with_library_and_with_native_off(
        self, fresh_library_state, monkeypatch, caplog
    ):
        compiled = _spec_payloads()
        monkeypatch.setenv("REPRO_NATIVE", "off")
        monkeypatch.setitem(native._LIB, "checked", False)
        monkeypatch.setitem(native._LIB, "lib", None)
        with caplog.at_level(logging.INFO, logger="repro.core.native"):
            assert not jit_ready()
            assert warmup() is False
        assert [r.message for r in caplog.records] == [
            "REPRO_NATIVE=off: compiled native tier disabled"
        ]
        assert _spec_payloads() == compiled

    @pytest.mark.parametrize(
        "algorithm, kernel",
        [(IdxJoin, "run_join_kernel"), (IdxDfs, "run_dfs_kernel")],
        ids=["join", "dfs"],
    )
    def test_native_without_library_runs_the_kernel(
        self, paper_graph, paper_query, without_library, monkeypatch, algorithm, kernel
    ):
        calls = []
        real = getattr(native, kernel)

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(native, kernel, spy)
        result = algorithm().run(paper_graph, paper_query, RunConfig())
        assert calls
        assert result.paths == algorithm().run(
            paper_graph, paper_query, RunConfig(constraint=accept_all(paper_graph))
        ).paths

    def test_unusable_cache_dir_degrades_to_kernel(
        self, tmp_path, fresh_library_state, monkeypatch, caplog, paper_graph, paper_query
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        with caplog.at_level(logging.WARNING, logger="repro.core.native"):
            assert not jit_ready()
        assert len(caplog.records) == 1
        auto = PathEnum().run(paper_graph, paper_query, RunConfig())
        kernel = ResultCollector()
        run_dfs_kernel(LightWeightIndex.build(paper_graph, paper_query), kernel)
        assert auto.stats.plan == "dfs"
        assert auto.paths == _paths_of(kernel)

    def test_missing_compiler_degrades_to_kernel(
        self, tmp_path, fresh_library_state, monkeypatch, caplog
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
        with caplog.at_level(logging.WARNING, logger="repro.core.native"):
            assert not jit_ready()
            assert warmup() is False
        assert "no C compiler" in caplog.text
        assert not list((tmp_path / "cache").glob("*.so"))

    @requires_compiled
    def test_concurrent_builds_into_an_empty_cache(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("REPRO_NATIVE", None)
        probe = "from repro.core.native import warmup; raise SystemExit(0 if warmup() else 1)"
        builders = [
            subprocess.Popen([sys.executable, "-c", probe], env=env) for _ in range(2)
        ]
        assert [b.wait(timeout=120) for b in builders] == [0, 0]
        assert [p.name for p in (tmp_path / "repro").iterdir()] == [
            native._library()._name.rsplit("/", 1)[-1]
        ]


class TestGroupFusedIndexBuild:
    def test_group_build_matches_per_query_build(self):
        graph = erdos_renyi(120, 4.0, seed=19)
        t, k = 5, 4
        sources = [s for s in range(16) if s != t]
        queries = [Query(s, t, k) for s in sources]
        dist_to_t = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        forward = multi_source_bfs_distances_bounded(
            graph, sources, cutoff=k, no_expand=t
        )
        fused = LightWeightIndex.build_group(
            graph, queries, dist_from_s_rows=forward, dist_to_t=dist_to_t
        )
        assert len(fused) == len(queries)
        for row, (query, index) in enumerate(zip(queries, fused)):
            solo = LightWeightIndex.build(
                graph, query, dist_to_t=dist_to_t, dist_from_s=forward[row]
            )
            assert index.num_index_vertices == solo.num_index_vertices
            assert index.num_index_edges == solo.num_index_edges
            v_f, _, nbr_f, ptr_f, off_f = index.native_csr()
            v_s, _, nbr_s, ptr_s, off_s = solo.native_csr()
            assert np.array_equal(v_f, v_s), query
            assert np.array_equal(nbr_f, nbr_s), query
            assert np.array_equal(ptr_f, ptr_s), query
            assert np.array_equal(off_f, off_s), query

    def test_group_build_rejects_mixed_targets(self):
        graph = erdos_renyi(30, 3.0, seed=7)
        dist_to_t = bfs_distances_bounded(graph, 5, cutoff=3, reverse=True)
        forward = multi_source_bfs_distances_bounded(graph, [0, 1], cutoff=3)
        with pytest.raises(ValueError):
            LightWeightIndex.build_group(
                graph,
                [Query(0, 5, 3), Query(1, 6, 3)],
                dist_from_s_rows=forward,
                dist_to_t=dist_to_t,
            )

    def test_prebuilt_index_through_algorithm_run(self):
        graph = erdos_renyi(80, 4.0, seed=29)
        t, k = 3, 4
        queries = [Query(s, t, k) for s in (0, 1, 2, 4, 5)]
        dist_to_t = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        forward = multi_source_bfs_distances_bounded(
            graph, [q.source for q in queries], cutoff=k, no_expand=t
        )
        fused = LightWeightIndex.build_group(
            graph, queries, dist_from_s_rows=forward, dist_to_t=dist_to_t
        )
        for query, index in zip(queries, fused):
            direct = PathEnum().run(graph, query, RunConfig())
            injected = PathEnum().run(graph, query, RunConfig(), index=index)
            assert injected.paths == direct.paths
            assert injected.count == direct.count
            assert injected.stats.index_edges == direct.stats.index_edges


class TestCsrMemoisation:
    def test_kernel_csr_cached_per_index(self):
        index = LightWeightIndex.build(complete_graph(8), Query(0, 7, 4))
        assert index.kernel_csr() is index.kernel_csr()

    def test_native_csr_cached_per_index(self):
        index = LightWeightIndex.build(complete_graph(8), Query(0, 7, 4))
        assert index.native_csr() is index.native_csr()

    def test_mirrors_survive_repeated_runs(self):
        index = LightWeightIndex.build(complete_graph(8), Query(0, 7, 4))
        first_mirror = index.kernel_csr()
        collectors = [ResultCollector() for _ in range(3)]
        for collector in collectors:
            run_dfs_kernel(index, collector)
        assert index.kernel_csr() is first_mirror
        assert len({c.count for c in collectors}) == 1
