"""Per-replica circuit breakers in the shard router.

A flapping replica must stop absorbing attempts after a few consecutive
failures (breaker opens), keep serving traffic through its peers, and be
re-admitted through exactly one half-open probe once its cooldown elapsed.
"""

from __future__ import annotations

import asyncio
import socket

from repro.api import Database
from repro.server.client import ReconnectPolicy
from repro.server.router import ShardChannel, ShardMap, ShardRouter
from repro.server.server import QueryServer
from repro.server.service import QueryService


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _channel(**kwargs) -> ShardChannel:
    return ShardChannel(
        0,
        [("127.0.0.1", 1), ("127.0.0.1", 2)],
        ReconnectPolicy(attempts=1),
        **kwargs,
    )


class TestBreakerStateMachine:
    def test_trips_after_threshold_consecutive_failures(self):
        async def scenario():
            channel = _channel(breaker_threshold=3)
            assert channel.breaker_state(0) == "closed"
            assert channel.record_failure(0) is False
            assert channel.record_failure(0) is False
            assert channel.record_failure(0) is True  # the tripping failure
            assert channel.breaker_state(0) == "open"
            assert channel.breaker_state(1) == "closed"  # per replica

        asyncio.run(scenario())

    def test_success_resets_the_streak(self):
        async def scenario():
            channel = _channel(breaker_threshold=2)
            channel.record_failure(0)
            channel.record_success(0)
            assert channel.record_failure(0) is False  # streak restarted
            assert channel.breaker_state(0) == "closed"

        asyncio.run(scenario())

    def test_pick_replica_routes_around_an_open_breaker(self):
        async def scenario():
            channel = _channel(breaker_threshold=1)
            channel.record_failure(0)
            replica, skipped = channel.pick_replica(0)
            assert (replica, skipped) == (1, 1)
            # With every breaker open, round-robin survives (a flap must
            # not become a self-inflicted full outage).
            channel.record_failure(1)
            replica, skipped = channel.pick_replica(0)
            assert replica == 0
            assert skipped == 2

        asyncio.run(scenario())

    def test_cooldown_admits_exactly_one_half_open_probe(self):
        async def scenario():
            channel = _channel(breaker_threshold=1, breaker_cooldown=0.05)
            channel.record_failure(0)
            assert channel.pick_replica(0) == (1, 1)  # open: refused
            await asyncio.sleep(0.06)
            replica, _ = channel.pick_replica(0)
            assert replica == 0  # the probe
            assert channel.breaker_state(0) == "half-open"
            # A second caller while the probe is in flight keeps skipping.
            assert channel.pick_replica(0) == (1, 1)
            channel.record_success(0)
            assert channel.breaker_state(0) == "closed"
            assert channel.pick_replica(0) == (0, 0)

        asyncio.run(scenario())

    def test_failed_probe_reopens_for_another_cooldown(self):
        async def scenario():
            channel = _channel(breaker_threshold=1, breaker_cooldown=0.05)
            channel.record_failure(0)
            await asyncio.sleep(0.06)
            assert channel.pick_replica(0)[0] == 0  # probe admitted
            channel.record_failure(0)  # probe failed
            assert channel.breaker_state(0) == "open"
            assert channel.pick_replica(0) == (1, 1)

        asyncio.run(scenario())


class TestBreakerEndToEnd:
    def test_flapping_replica_is_tripped_skipped_then_readmitted(self, graph, workload):
        """The full flap: dead primary trips its breaker, traffic flows via
        the replica, the primary comes back, the half-open probe re-admits
        it — all while every job completes with the inline results."""
        with Database(graph) as db:
            expected = [
                (r.count, [list(p) for p in r.paths]) for r in db.batch(workload).results()
            ]

        async def scenario():
            live_service = QueryService(graph, threads=2, shard_id=0)
            live_server = QueryServer(live_service, port=0)
            await live_server.start()
            dead_port = _free_port()
            shard_map = ShardMap.from_entries(
                [f"127.0.0.1:{dead_port},127.0.0.1:{live_server.port}"]
            )
            router = ShardRouter(
                shard_map,
                hedge=False,
                policy=ReconnectPolicy(attempts=1),
                breaker_threshold=2,
                breaker_cooldown=0.5,
            )
            revived_service = revived_server = None
            try:
                async def run_job():
                    job = await router.submit(list(workload), {"store_paths": True})
                    frames = [f async for f in job.frames()]
                    assert frames[-1]["type"] == "done"
                    results = sorted(
                        (f for f in frames if f["type"] == "result"),
                        key=lambda f: f["position"],
                    )
                    assert [(f["count"], f["paths"]) for f in results] == expected

                # Jobs 1+2: primary unreachable, failover each time — the
                # second failure trips the breaker.
                await run_job()
                await run_job()
                assert router.counters.breaker_trips == 1
                snapshot = await router.stats(probe_timeout=0.5)
                primary = snapshot["shards"][0]["replicas"][0]
                assert primary["breaker"] == "open"
                assert primary["connected"] is False

                # Job 3: the open breaker is skipped outright (no dial, no
                # failover) — traffic flows straight to the live replica.
                failovers_before = router.counters.failovers
                await run_job()
                assert router.counters.failovers == failovers_before
                assert router.counters.breaker_skips >= 1

                # Revive the primary at its old address; after the cooldown
                # the half-open probe re-admits it.
                revived_service = QueryService(graph, threads=1, shard_id=0)
                revived_server = QueryServer(revived_service, port=dead_port)
                await revived_server.start()
                await asyncio.sleep(0.6)
                await run_job()
                channel = router.channels[0]
                assert channel.breaker_state(0) == "closed"
                return router.counters
            finally:
                await router.close()
                await live_server.close()
                await live_service.close()
                if revived_server is not None:
                    await revived_server.close()
                    await revived_service.close()

        counters = asyncio.run(scenario())
        assert counters.jobs_completed == 4
        assert counters.jobs_failed == 0

    def test_single_replica_shard_never_fully_blocked(self, graph, workload):
        # Threshold 1 with one (dead) replica: pick_replica must still
        # return it — the breaker degrades to plain retries, and the job
        # fails with a routing error instead of hanging.
        async def scenario():
            dead_port = _free_port()
            router = ShardRouter(
                ShardMap.from_entries([f"127.0.0.1:{dead_port}"]),
                hedge=False,
                policy=ReconnectPolicy(attempts=1),
                breaker_threshold=1,
                max_attempts=2,
            )
            try:
                job = await router.submit(list(workload), {"store_paths": False})
                frames = [f async for f in job.frames()]
                return frames
            finally:
                await router.close()

        frames = asyncio.run(scenario())
        assert frames[-1]["type"] == "error"
