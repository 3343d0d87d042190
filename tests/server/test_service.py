"""Tests for the serving core: streaming jobs over the executor."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.algorithm import Algorithm
from repro.core.engine import QuerySession
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import EnumerationStats, PathBuffer, QueryResult
from repro.graph.generators import erdos_renyi
from repro.server.service import JobState, QueryService
from repro.workloads.queries import generate_target_centric_set


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(150, 4.0, seed=11)


@pytest.fixture(scope="module")
def queries(graph):
    workload = generate_target_centric_set(graph, count=10, k=4, num_targets=3, seed=5)
    return list(workload)


class _SlowAlgorithm(Algorithm):
    """Sleeps per query so streaming/cancellation timing is observable."""

    name = "SLOW"

    def __init__(self, delay: float = 0.05) -> None:
        self.delay = delay

    def run(self, graph, query, config=None):
        time.sleep(self.delay)
        return QueryResult(
            source=query.source, target=query.target, k=query.k,
            algorithm=self.name, count=1,
            paths=PathBuffer.from_paths([(query.source, query.target)]),
            stats=EnumerationStats(),
        )


class TestServiceResults:
    def test_results_identical_to_sequential_session(self, graph, queries):
        config = RunConfig(store_paths=True)
        session = QuerySession(graph)
        expected = [session.run(query, config) for query in queries]

        async def scenario():
            service = QueryService(graph, threads=2)
            try:
                return await service.run(queries, config)
            finally:
                await service.close()

        actual = asyncio.run(scenario())
        for exp, act in zip(expected, actual):
            assert act.source == exp.source
            assert act.target == exp.target
            assert act.count == exp.count
            assert act.paths == exp.paths
            assert act.stats.bfs_cache_hit == exp.stats.bfs_cache_hit

    def test_events_stream_before_completion(self, graph):
        """The first result event must arrive while later queries still run."""
        queries = [Query(i, 100 + i, 2) for i in range(6)]

        async def scenario():
            service = QueryService(graph, algorithm=_SlowAlgorithm(0.05), threads=1)
            try:
                job = await service.submit(queries, RunConfig(store_paths=True))
                loop = asyncio.get_running_loop()
                started = loop.time()
                first_result = done = None
                async for event in job.events():
                    if event[0] == "result" and first_result is None:
                        first_result = loop.time() - started
                    elif event[0] == "done":
                        done = loop.time() - started
                assert first_result is not None and done is not None
                # 6 queries x 50 ms on one worker: the first frame lands
                # roughly one delay in, far before the job completes.
                assert first_result < done / 2
                assert job.state is JobState.DONE
            finally:
                await service.close()

        asyncio.run(scenario())

    def test_positions_cover_workload_order(self, graph, queries):
        async def scenario():
            service = QueryService(graph, threads=2)
            try:
                job = await service.submit(queries, RunConfig(store_paths=False))
                positions = []
                async for event in job.events():
                    if event[0] == "result":
                        positions.append(event[1])
                return positions
            finally:
                await service.close()

        positions = asyncio.run(scenario())
        assert sorted(positions) == list(range(len(queries)))


class TestCancellation:
    def test_cancel_mid_stream(self, graph):
        queries = [Query(i, 100 + i, 2) for i in range(20)]

        async def scenario():
            service = QueryService(graph, algorithm=_SlowAlgorithm(0.03), threads=1)
            try:
                job = await service.submit(queries, RunConfig(store_paths=False))
                events = []
                async for event in job.events():
                    events.append(event)
                    if event[0] == "result" and len(events) == 2:
                        job.cancel()
                return job, events
            finally:
                await service.close()

        job, events = asyncio.run(scenario())
        assert events[-1][0] == "cancelled"
        delivered = sum(1 for event in events if event[0] == "result")
        # Some results streamed, but cancellation stopped the rest.
        assert 0 < delivered < len(queries)
        assert events[-1][1] == delivered
        assert job.state is JobState.CANCELLED

    def test_cancel_before_drive_starts(self, graph, queries):
        async def scenario():
            # A single busy drive slot delays the second job, so cancelling
            # it hits the pre-run branch deterministically.
            service = QueryService(
                graph, algorithm=_SlowAlgorithm(0.05), threads=1, max_concurrent_jobs=1
            )
            try:
                blocker = await service.submit(queries[:3], RunConfig(store_paths=False))
                victim = await service.submit(queries, RunConfig(store_paths=False))
                victim.cancel()
                events = [event async for event in victim.events()]
                async for _ in blocker.events():
                    pass
                return events
            finally:
                await service.close()

        events = asyncio.run(scenario())
        assert events == [("cancelled", 0)]


class TestServiceStats:
    def test_counters_and_cache_sharing(self, graph, queries):
        async def scenario():
            service = QueryService(graph, threads=2)
            try:
                await service.run(queries, RunConfig(store_paths=False))
                after_first = service.stats()
                await service.run(queries, RunConfig(store_paths=False))
                return after_first, service.stats()
            finally:
                await service.close()

        first, second = asyncio.run(scenario())
        assert first["jobs_completed"] == 1
        assert first["queries_completed"] == len(queries)
        assert first["reverse_bfs_runs"] == 3  # distinct targets
        # The second job reuses the warm distance cache entirely.
        assert second["reverse_bfs_runs"] == 3
        assert second["jobs_completed"] == 2
        assert second["backend"] == "thread"

    def test_submit_after_close_raises(self, graph, queries):
        async def scenario():
            service = QueryService(graph, threads=1)
            await service.close()
            await service.close()  # idempotent
            with pytest.raises(RuntimeError):
                await service.submit(queries, RunConfig())

        asyncio.run(scenario())

    def test_worker_error_becomes_error_event(self, graph, queries):
        class Exploder(Algorithm):
            name = "BOOM"

            def run(self, graph, query, config=None):
                raise RuntimeError("kaboom")

        async def scenario():
            service = QueryService(graph, algorithm=Exploder(), threads=1)
            try:
                job = await service.submit(queries[:2], RunConfig())
                return [event async for event in job.events()]
            finally:
                await service.close()

        events = asyncio.run(scenario())
        assert events[-1][0] == "error"
        assert "kaboom" in events[-1][1]
