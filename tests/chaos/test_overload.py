"""Admission control and load shedding under sustained overload.

The server's contract: a submit that would blow the pending-work budget is
*refused immediately* with a typed ``overloaded`` frame carrying a
retry-after hint — never queued into unbounded latency — and a job whose
queue wait exceeded the delay budget is shed at drive time instead of
running long after its caller gave up.  Clients honour the hint with
backoff; shed work is counted, not silently dropped.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.api import Database
from repro.core.algorithm import DelayedAlgorithm
from repro.core.engine import PathEnum
from repro.errors import ServiceOverloaded
from repro.server.client import open_loop_load

from tests.chaos._support import SlowAlgorithm, serve_scenario


class TestAdmissionBudget:
    def test_over_budget_submit_answered_with_retry_hint(self, graph):
        queries = [[i, 100 + i, 2] for i in range(5)]

        async def scenario(client, server, service):
            first = await client.submit(queries)  # fills the budget
            second = await client.submit(queries)
            reject = [f async for f in client.frames(second)]
            drained = [f async for f in client.frames(first)]
            return reject, drained, service.stats()

        reject, drained, stats = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.03), threads=1,
            max_pending_queries=5,
        )
        assert [f["type"] for f in reject] == ["overloaded"]
        assert reject[0]["retry_after_ms"] > 0
        assert reject[0]["pending"] == 5
        assert reject[0]["limit"] == 5
        # The admitted job is unharmed by the rejection.
        assert drained[-1]["type"] == "done"
        assert stats["jobs_shed"] == 1
        assert stats["queries_shed"] == 5
        assert stats["queries_admitted"] == 5
        assert stats["queue_depth_high_water"] == 5

    def test_run_with_retries_rides_out_the_burst(self, graph):
        big = [[i, 100 + i, 2] for i in range(6)]
        small = [[0, 50, 2]]

        async def scenario(client, server, service):
            blocker = await client.submit(big)
            outcome = await client.run_with_retries(
                small, overload_retries=20, rng=random.Random(0)
            )
            async for _ in client.frames(blocker):
                pass
            return outcome

        outcome = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.02), threads=1,
            max_pending_queries=6,
        )
        assert outcome.status == "done"
        assert outcome.retries >= 1
        assert len(outcome.results) == 1

    def test_exhausted_retries_surface_the_final_reject(self, graph):
        big = [[i, 100 + i, 2] for i in range(6)]

        async def scenario(client, server, service):
            blocker = await client.submit(big)
            outcome = await client.run_with_retries(
                [[0, 50, 2]], overload_retries=0, rng=random.Random(0)
            )
            async for _ in client.frames(blocker):
                pass
            return outcome

        outcome = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.05), threads=1,
            max_pending_queries=6,
        )
        assert outcome.status == "overloaded"
        assert outcome.info["retry_after_ms"] > 0


class TestQueueDelayShedding:
    def test_stale_queued_job_is_shed_not_run(self, graph):
        blocker = [[i, 100 + i, 2] for i in range(10)]

        async def scenario(client, server, service):
            first = await client.submit(blocker)
            second = await client.submit([[0, 50, 2]])
            reject = [f async for f in client.frames(second)]
            drained = [f async for f in client.frames(first)]
            return reject, drained, service.stats()

        reject, drained, stats = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.04), threads=1,
            max_concurrent_jobs=1, max_queue_delay=0.05,
        )
        assert [f["type"] for f in reject] == ["overloaded"]
        assert reject[0]["queue_delay_ms"] > 50.0
        assert drained[-1]["type"] == "done"
        assert stats["jobs_shed"] == 1

    def test_deadline_expired_in_queue_answers_timeouts(self, graph):
        blocker = [[i, 100 + i, 2] for i in range(10)]

        async def scenario(client, server, service):
            first = await client.submit(blocker)
            outcome = await client.run(
                [[0, 50, 2], [1, 51, 2]], time_limit_seconds=0.05
            )
            async for _ in client.frames(first):
                pass
            return outcome, service.stats()

        # Expiry is part of the hardening bundle: it only activates once an
        # admission knob is set (an unconfigured server stays byte-identical
        # to inline, already-expired queries included).
        outcome, stats = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.04), threads=1,
            max_concurrent_jobs=1, max_pending_queries=64,
        )
        assert outcome.status == "done"
        assert all(result.timed_out for result in outcome.results)
        assert all(result.count == 0 for result in outcome.results)
        assert stats["queries_expired"] == 2


class TestOpenLoopShedding:
    def test_shed_queries_counted_not_errored(self, graph):
        # Offered load far beyond a budget of 2: the driver must finish with
        # every arrival accounted for as completed or shed — none hung, none
        # surfaced as a transport error — and every admitted query must
        # return exactly the inline result (the delay changes time only).
        queries = [[i % 50, 100 + (i % 40), 4] for i in range(16)]
        arrivals = [0.0] * len(queries)
        with Database(graph) as db:
            expected = db.batch(queries).results()

        async def scenario(client, server, service):
            return await open_loop_load(
                queries, arrivals, port=server.port, connections=2,
                store_paths=True, overload_retries=1, rng=random.Random(7),
                keep_outcomes=True,
            )

        report = serve_scenario(
            graph, scenario, algorithm=DelayedAlgorithm(PathEnum(), 0.03),
            threads=1, max_pending_queries=2,
        )
        assert report.errors == 0
        assert report.shed > 0
        assert report.completed + report.shed == len(queries)
        assert report.retried >= report.shed  # every shed saw >= 1 retry
        assert len(report.outcomes) == report.completed
        for index, outcome in report.outcomes:
            (result,) = outcome.results
            assert result.count == expected[index].count
            assert result.paths == expected[index].paths

    def test_zero_queue_budget_run_still_terminates(self, graph):
        # Same burst with no retry budget at all: nothing waits forever.
        queries = [[i % 50, 100 + (i % 40), 2] for i in range(12)]

        async def scenario(client, server, service):
            return await asyncio.wait_for(
                open_loop_load(
                    queries, [0.0] * len(queries), port=server.port,
                    connections=1, overload_retries=0,
                ),
                timeout=30,
            )

        report = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.02), threads=1,
            max_pending_queries=1,
        )
        assert report.completed + report.shed == len(queries)


class TestTypedBackendErrors:
    def test_remote_backend_raises_service_overloaded(self, graph):
        from repro.api import Database

        async def scenario(client, server, service):
            blocker = await client.submit([[i, 100 + i, 2] for i in range(6)])

            def blocking_batch():
                with Database(f"127.0.0.1:{server.port}") as db:
                    stream = db.batch([(0, 50, 2)], store_paths=False)
                    return stream.results()

            try:
                with pytest.raises(ServiceOverloaded) as info:
                    await asyncio.to_thread(blocking_batch)
            finally:
                async for _ in client.frames(blocker):
                    pass
            return info.value

        error = serve_scenario(
            graph, scenario, algorithm=SlowAlgorithm(0.05), threads=1,
            max_pending_queries=6,
        )
        assert error.retry_after > 0
        assert isinstance(error, RuntimeError)  # except-RuntimeError still works
