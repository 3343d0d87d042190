"""End-to-end tests for the distributed shard router.

The failure paths are the point here: a shard dying mid-stream must be
absorbed by its replica with the merged stream unchanged, cancel must fan
out to every shard promptly, and a hedged duplicate's results must be
deduplicated exactly once.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.api import Database
from repro.core.algorithm import Algorithm
from repro.core.engine import QuerySession
from repro.core.listener import RunConfig
from repro.core.result import EnumerationStats, PathBuffer, QueryResult
from repro.errors import ReproError
from repro.graph.generators import erdos_renyi
from repro.server.client import QueryClient, ReconnectPolicy
from repro.server.router import RouterJob, RouterServer, ShardMap, ShardRouter, parse_address
from repro.server.server import QueryServer
from repro.server.service import QueryService
from repro.workloads.queries import generate_target_centric_set


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(150, 4.0, seed=11)


@pytest.fixture(scope="module")
def queries(graph):
    workload = generate_target_centric_set(graph, count=12, k=4, num_targets=5, seed=5)
    return list(workload)


@pytest.fixture(scope="module")
def triples(queries):
    return [[q.source, q.target, q.k] for q in queries]


@pytest.fixture(scope="module")
def expected(graph, queries):
    session = QuerySession(graph)
    return [session.run(q, RunConfig(store_paths=True)) for q in queries]


class _SlowAlgorithm(Algorithm):
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


class _Fleet:
    """In-process shard fleet: ``shards`` lists of (service, server) replicas."""

    def __init__(self):
        self.shards = []

    async def add_shard(self, graph, replicas=1, **service_kwargs):
        entries = []
        shard_id = len(self.shards)
        for _ in range(replicas):
            service = QueryService(graph, shard_id=shard_id, **service_kwargs)
            server = QueryServer(service, port=0)
            await server.start()
            entries.append((service, server))
        self.shards.append(entries)

    def shard_map(self) -> ShardMap:
        return ShardMap.from_entries(
            [
                ",".join(f"127.0.0.1:{server.port}" for _, server in replicas)
                for replicas in self.shards
            ]
        )

    async def close(self):
        for replicas in self.shards:
            for service, server in replicas:
                await server.close()
                await service.close()


def _run(coro):
    return asyncio.run(coro)


def _check_results(outcome_results, expected):
    assert [r.position for r in outcome_results] == list(range(len(expected)))
    for exp, act in zip(expected, outcome_results):
        assert (act.source, act.target, act.k) == (exp.source, exp.target, exp.k)
        assert act.count == exp.count
        assert act.paths == exp.paths


def _free_port() -> int:
    """A port that was just free — dialling it refuses (dead replica stand-in)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestShardMap:
    def test_from_entries_and_to_dict_round_trip(self):
        shard_map = ShardMap.from_entries(["127.0.0.1:7301,127.0.0.1:7401", "127.0.0.1:7302"])
        assert shard_map.num_shards == 2
        assert shard_map.num_replicas == 3
        assert ShardMap.from_dict(shard_map.to_dict()) == shard_map

    def test_from_file(self, tmp_path):
        payload = {"shards": [{"replicas": ["127.0.0.1:7301"]}, ["127.0.0.1:7302"]]}
        path = tmp_path / "shards.json"
        path.write_text(json.dumps(payload))
        shard_map = ShardMap.from_file(path)
        assert shard_map.shards == ((("127.0.0.1", 7301),), (("127.0.0.1", 7302),))

    def test_rejects_empty_and_malformed(self, tmp_path):
        with pytest.raises(ReproError):
            ShardMap(())
        with pytest.raises(ReproError):
            ShardMap(((),))
        with pytest.raises(ReproError):
            parse_address("no-port-here")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            ShardMap.from_file(bad)

    def test_shard_of_is_stable(self):
        shard_map = ShardMap.from_entries(["h:1", "h:2", "h:3"])
        assignments = [shard_map.shard_of(target) for target in range(50)]
        assert assignments == [shard_map.shard_of(target) for target in range(50)]
        assert set(assignments) == {0, 1, 2}


class TestMergedStream:
    def test_two_shard_merge_matches_sequential_session(self, graph, triples, expected):
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=2)
                await fleet.add_shard(graph, threads=2)
                router = ShardRouter(fleet.shard_map(), hedge=False)
                async with RouterServer(router, port=0) as front:
                    client = await QueryClient.connect(port=front.port)
                    async with client:
                        outcome = await client.run(triples)
                await router.close()
                per_shard = [
                    replicas[0][0].stats()["queries_completed"]
                    for replicas in fleet.shards
                ]
                return outcome, per_shard
            finally:
                await fleet.close()

        outcome, per_shard = _run(scenario())
        assert outcome.status == "done"
        assert outcome.info["queries"] == len(triples)
        _check_results(outcome.results, expected)
        # The workload really was split: every shard served some queries.
        assert all(count > 0 for count in per_shard)
        assert sum(per_shard) == len(triples)


    def test_router_ping_and_stats(self, graph, triples):
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=2)
                await fleet.add_shard(graph, threads=2)
                router = ShardRouter(fleet.shard_map(), hedge=False)
                async with RouterServer(router, port=0) as front:
                    client = await QueryClient.connect(port=front.port)
                    async with client:
                        pong = await client.ping()
                        await client.run(triples)
                        stats = await client.stats()
                await router.close()
                return pong, stats
            finally:
                await fleet.close()

        pong, stats = _run(scenario())
        assert pong.protocol >= 2
        assert pong.server_version
        assert pong.shard_id is None  # the router is not a shard
        assert stats["role"] == "router"
        assert stats["jobs_completed"] == 1
        assert stats["results_merged"] == len(triples)
        probes = [r for shard in stats["shards"] for r in shard["replicas"]]
        assert all(probe["connected"] for probe in probes)
        assert {probe["shard_id"] for probe in probes} == {0, 1}

    def test_shard_error_fails_the_job(self, graph):
        # Vertex 10**9 exists on no shard: the owning shard rejects its
        # sub-batch and the whole job must fail, not hang.
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1)
                await fleet.add_shard(graph, threads=1)
                router = ShardRouter(fleet.shard_map(), hedge=False)
                job = await router.submit([[0, 10**9, 4]], {})
                frames = [frame async for frame in job.frames()]
                await router.close()
                return frames
            finally:
                await fleet.close()

        frames = _run(scenario())
        assert frames[-1]["type"] == "error"
        assert "out of range" in frames[-1]["error"]


class TestColumnarRelay:
    """Protocol v4 through the router: shards send what the end client
    announced, and the router relays the columns without rendering paths."""

    def test_v4_routed_job_carries_columns_end_to_end(self, graph, triples, expected):
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=2)
                await fleet.add_shard(graph, threads=2)
                router = ShardRouter(fleet.shard_map(), hedge=False)
                async with RouterServer(router, port=0) as front:
                    client = await QueryClient.connect(port=front.port)
                    async with client:
                        job_id = await client.submit(triples)
                        columnar = [frame async for frame in client.frames(job_id)]
                        legacy = await client.run(triples, protocol=None)
                        v4 = await client.run(triples)
                await router.close()
                return columnar, legacy, v4
            finally:
                await fleet.close()

        columnar, legacy, v4 = _run(scenario())
        results = [frame for frame in columnar if frame["type"] == "result"]
        assert len(results) == len(triples)
        assert all("paths_data" in frame and "paths" not in frame for frame in results)
        _check_results(v4.results, expected)
        # A version-less submit through the same router still reads JSON.
        _check_results(legacy.results, expected)

    def test_routed_database_results_are_buffer_backed(self, graph, triples):
        holder = {}
        ready = threading.Event()

        def host() -> None:
            async def main() -> None:
                fleet = _Fleet()
                await fleet.add_shard(graph, threads=2)
                await fleet.add_shard(graph, threads=2)
                router = ShardRouter(fleet.shard_map(), hedge=False)
                front = RouterServer(router, port=0)
                await front.start()
                holder.update(shard_map=fleet.shard_map(), port=front.port,
                              loop=asyncio.get_running_loop(), stop=asyncio.Event())
                ready.set()
                await holder["stop"].wait()
                await front.close()
                await router.close()
                await fleet.close()

            asyncio.run(main())

        thread = threading.Thread(target=host, name="columnar-fleet", daemon=True)
        thread.start()
        assert ready.wait(10), "fleet failed to boot"
        # Result caps and already-expired deadlines interrupt
        # deterministically, so the routed payloads must match inline too.
        interrupted = ({"limit": 3}, {"deadline": 0.0})
        try:
            with Database(graph) as inline:
                reference = inline.batch(triples).payload_bytes()
                references = [
                    inline.batch(triples, **options).payload_bytes()
                    for options in interrupted
                ]
            for target in (holder["shard_map"], f"router://127.0.0.1:{holder['port']}"):
                with Database(target) as db:
                    stream = db.batch(triples)
                    assert all(r.path_buffer is not None for r in stream.results())
                    assert stream.payload_bytes() == reference
                    for options, expected_bytes in zip(interrupted, references):
                        payload = db.batch(triples, **options).payload_bytes()
                        assert payload == expected_bytes, (target, options)
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(10)
        assert not thread.is_alive(), "fleet failed to shut down"


class TestFailover:
    def test_shard_death_mid_stream_is_absorbed_by_replica(self, graph, triples, expected):
        """Kill the primary replica after two results; the merged stream must
        still be byte-identical to the sequential session."""

        async def scenario():
            fleet = _Fleet()
            try:
                # One shard, two replicas, slow primary so the kill lands
                # mid-stream deterministically.
                await fleet.add_shard(graph, replicas=2, threads=1,
                                      algorithm=_SlowAlgorithm(0.03))
                shard_map = fleet.shard_map()
                router = ShardRouter(shard_map, hedge=False,
                                     policy=ReconnectPolicy(attempts=1))
                job = await router.submit(list(triples), {"store_paths": True})
                primary_service, primary_server = fleet.shards[0][0]
                frames, results_seen = [], 0
                async for frame in job.frames():
                    frames.append(frame)
                    if frame["type"] == "result":
                        results_seen += 1
                        if results_seen == 2:
                            await primary_server.close()
                            await primary_service.close()
                failovers = router.counters.failovers
                await router.close()
                return frames, failovers
            finally:
                await fleet.close()

        frames, failovers = _run(scenario())
        assert frames[-1]["type"] == "done"
        assert failovers >= 1
        results = [f for f in frames if f["type"] == "result"]
        positions = [f["position"] for f in results]
        assert sorted(positions) == list(range(len(triples)))
        assert len(positions) == len(set(positions)), "duplicate positions delivered"
        by_position = {f["position"]: f for f in results}
        # The replica ran the slow stand-in algorithm too, so compare the
        # stand-in's known output (not the real enumeration results).
        for position, (s, t, k) in enumerate(triples):
            frame = by_position[position]
            assert (frame["source"], frame["target"], frame["k"]) == (s, t, k)
            assert frame["count"] == 1
            assert frame["paths"] == [[s, t]]

    def test_real_results_identical_after_failover(self, graph, triples, expected):
        """Same scenario on the real algorithm: payload equality end to end."""

        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, replicas=2, threads=1)
                router = ShardRouter(fleet.shard_map(), hedge=False,
                                     policy=ReconnectPolicy(attempts=1))
                # Kill the primary *before* the submit: failover happens at
                # dial time and every query lands on the replica.
                primary_service, primary_server = fleet.shards[0][0]
                await primary_server.close()
                await primary_service.close()
                job = await router.submit(list(triples), {"store_paths": True})
                frames = [frame async for frame in job.frames()]
                failovers = router.counters.failovers
                await router.close()
                return frames, failovers
            finally:
                await fleet.close()

        frames, failovers = _run(scenario())
        assert frames[-1]["type"] == "done"
        assert failovers >= 1
        by_position = {f["position"]: f for f in frames if f["type"] == "result"}
        assert sorted(by_position) == list(range(len(triples)))
        for position, exp in enumerate(expected):
            frame = by_position[position]
            assert frame["count"] == exp.count
            assert [tuple(p) for p in frame["paths"]] == [tuple(p) for p in exp.paths]

    def test_unreachable_then_reachable_replica(self, graph, triples):
        """First replica address refuses connections outright."""

        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1)
                live_port = fleet.shards[0][0][1].port
                shard_map = ShardMap.from_entries(
                    [f"127.0.0.1:{_free_port()},127.0.0.1:{live_port}"]
                )
                router = ShardRouter(shard_map, hedge=False,
                                     policy=ReconnectPolicy(attempts=1))
                job = await router.submit(list(triples), {})
                frames = [frame async for frame in job.frames()]
                failovers = router.counters.failovers
                await router.close()
                return frames, failovers
            finally:
                await fleet.close()

        frames, failovers = _run(scenario())
        assert frames[-1]["type"] == "done"
        assert failovers >= 1

    def test_single_replica_death_fails_the_job(self, graph, triples):
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1, algorithm=_SlowAlgorithm(0.05))
                router = ShardRouter(fleet.shard_map(), hedge=False, max_attempts=2,
                                     policy=ReconnectPolicy(attempts=1))
                job = await router.submit(list(triples), {})
                frames = []
                async for frame in job.frames():
                    frames.append(frame)
                    if frame["type"] == "result":
                        service, server = fleet.shards[0][0]
                        await server.close()
                        await service.close()
                await router.close()
                return frames
            finally:
                await fleet.close()

        frames = _run(scenario())
        assert frames[-1]["type"] == "error"


class TestCancelFanOut:
    def test_cancel_reaches_every_shard_promptly(self, graph):
        # Enough slow queries that both shards are mid-batch when the
        # cancel lands; both shard services must record the cancellation.
        workload = generate_target_centric_set(
            graph, count=16, k=4, num_targets=8, seed=9
        )
        triples = [[q.source, q.target, q.k] for q in workload]

        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1, algorithm=_SlowAlgorithm(0.08))
                await fleet.add_shard(graph, threads=1, algorithm=_SlowAlgorithm(0.08))
                router = ShardRouter(fleet.shard_map(), hedge=False)
                job = await router.submit(triples, {})
                # Wait for the first streamed result, then cancel.
                first = await asyncio.wait_for(job.queue.get(), timeout=10.0)
                assert first["type"] == "result"
                cancelled_at = asyncio.get_event_loop().time()
                await router.cancel(job)
                frames = [frame async for frame in job.frames()]
                terminal_delay = asyncio.get_event_loop().time() - cancelled_at
                # Give the shard drive threads a beat to mark their jobs.
                await asyncio.sleep(0.3)
                shard_counts = [
                    replicas[0][0].stats()["jobs_cancelled"]
                    for replicas in fleet.shards
                ]
                await router.close()
                return frames, terminal_delay, shard_counts
            finally:
                await fleet.close()

        frames, terminal_delay, shard_counts = _run(scenario())
        assert frames[-1]["type"] == "cancelled"
        # Prompt: well under the ~1.3 s a shard would need to drain its
        # sub-batch at 80 ms per query.
        assert terminal_delay < 1.0
        assert all(count == 1 for count in shard_counts), shard_counts

    def test_cancel_before_any_result_cancels_cleanly(self, graph, triples):
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1, algorithm=_SlowAlgorithm(0.2))
                router = ShardRouter(fleet.shard_map(), hedge=False)
                job = await router.submit(list(triples), {})
                await asyncio.sleep(0.05)
                await router.cancel(job)
                frames = [frame async for frame in job.frames()]
                await router.close()
                return frames
            finally:
                await fleet.close()

        frames = _run(scenario())
        assert frames[-1]["type"] == "cancelled"


class TestHedging:
    def test_hedged_duplicate_deduplicated_exactly_once(self, graph, triples, expected):
        """Slow primary + fast replica: the hedge fires, the replica wins,
        and every position is delivered exactly once."""

        async def scenario():
            fleet = _Fleet()
            shard_id = 0
            try:
                # Replica 0 (primary): slow stand-in; replica 1: the real,
                # fast algorithm.  Built by hand to mix per-replica configs.
                primary = QueryService(graph, shard_id=shard_id, threads=1,
                                       algorithm=_SlowAlgorithm(0.25))
                primary_server = QueryServer(primary, port=0)
                await primary_server.start()
                fast = QueryService(graph, shard_id=shard_id, threads=2)
                fast_server = QueryServer(fast, port=0)
                await fast_server.start()
                fleet.shards.append([(primary, primary_server), (fast, fast_server)])
                router = ShardRouter(
                    fleet.shard_map(),
                    hedge=True,
                    hedge_initial_delay=0.05,
                    hedge_min_delay=0.05,
                )
                job = await router.submit(list(triples), {"store_paths": True})
                frames = [frame async for frame in job.frames()]
                counters = router.counters
                snapshot = (
                    counters.hedges_fired,
                    counters.hedge_wins,
                    counters.duplicates_dropped,
                )
                await router.close()
                return frames, snapshot
            finally:
                await fleet.close()

        frames, (hedges_fired, hedge_wins, duplicates_dropped) = _run(scenario())
        assert frames[-1]["type"] == "done"
        assert hedges_fired >= 1
        assert hedge_wins >= 1
        results = [f for f in frames if f["type"] == "result"]
        positions = [f["position"] for f in results]
        # Exactly once: every workload position delivered, none twice —
        # duplicates from the losing attempt were dropped, not merged.
        assert sorted(positions) == list(range(len(triples)))
        assert len(positions) == len(set(positions))
        # The fast replica's results are the real algorithm's output.
        by_position = {f["position"]: f for f in results}
        winners = [p for p, f in by_position.items() if f["count"] == expected[p].count
                   and [tuple(q) for q in f["paths"]] == [tuple(q) for q in expected[p].paths]]
        assert len(winners) >= 1

    def test_second_claim_of_a_position_loses(self):
        async def scenario():
            job = RouterJob("r1", 3)
            return [job.claim(1), job.claim(1), job.claim(0), job.claim(1)], job.delivered

        claims, delivered = _run(scenario())
        assert claims == [True, False, True, False]
        assert delivered == {0, 1}

    def test_overlapping_attempts_merge_each_position_once(self, graph, triples, expected):
        """Two attempts that both deliver every position (a failover or
        hedge overlap whose loser is not cancelled in time): the job sees
        one result frame per position, the other attempt's are dropped."""
        sub_batch = triples[:5]

        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1)
                router = ShardRouter(fleet.shard_map(), hedge=False)
                job = RouterJob("r1", len(sub_batch))
                channel = router.channels[0]
                statuses = []
                for _ in range(2):
                    # Each attempt starts from the full sub-batch, so both
                    # stream a result for every position.
                    statuses.append(await router._attempt(
                        job, channel, 0, set(range(len(sub_batch))), sub_batch,
                        {"store_paths": True},
                    ))
                frames = []
                while not job.queue.empty():
                    frames.append(job.queue.get_nowait())
                counters = router.counters
                merged = (counters.results_merged, counters.duplicates_dropped)
                await router.close()
                return statuses, frames, merged
            finally:
                await fleet.close()

        statuses, frames, (merged, dropped) = _run(scenario())
        assert statuses == ["done", "done"]
        assert [f["type"] for f in frames] == ["result"] * len(sub_batch)
        assert sorted(f["position"] for f in frames) == list(range(len(sub_batch)))
        assert (merged, dropped) == (len(sub_batch), len(sub_batch))
        for frame in frames:
            assert frame["count"] == expected[frame["position"]].count

    def test_hedge_delay_tracks_winning_latency_percentile(self):
        shard_map = ShardMap.from_entries(["h:1,h:2"])
        router = ShardRouter(shard_map, hedge_min_samples=4,
                             hedge_min_delay=0.01, hedge_max_delay=1.0,
                             hedge_initial_delay=0.2)
        # Below the sample threshold: the initial delay rules.
        assert router.hedge_delay() == pytest.approx(0.2)
        for latency in (0.02, 0.03, 0.04, 0.05):
            router.record_latency(latency)
        # p95 of the window, clamped: near the top sample.
        assert router.hedge_delay() == pytest.approx(0.05)
        router.record_latency(5.0)
        assert router.hedge_delay() == pytest.approx(1.0)  # upper clamp

    def test_no_hedge_with_single_replica(self, graph, triples):
        async def scenario():
            fleet = _Fleet()
            try:
                await fleet.add_shard(graph, threads=1, algorithm=_SlowAlgorithm(0.05))
                router = ShardRouter(fleet.shard_map(), hedge=True,
                                     hedge_initial_delay=0.01, hedge_min_delay=0.01)
                job = await router.submit(list(triples[:4]), {})
                frames = [frame async for frame in job.frames()]
                fired = router.counters.hedges_fired
                await router.close()
                return frames, fired
            finally:
                await fleet.close()

        frames, fired = _run(scenario())
        assert frames[-1]["type"] == "done"
        assert fired == 0
