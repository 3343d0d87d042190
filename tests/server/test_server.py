"""End-to-end tests: TCP server + client over a real socket."""

from __future__ import annotations

import asyncio
import contextlib
import struct
import time

import pytest

from repro.core.algorithm import Algorithm
from repro.core.engine import QuerySession
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import EnumerationStats, PathBuffer, QueryResult
from repro.graph.builder import GraphBuilder
from repro.graph.generators import erdos_renyi
from repro.server.client import QueryClient, run_queries
from repro.server.protocol import decode_frame, encode_frame, frame_paths, read_frame
from repro.server.router import ShardMap, ShardRouter
from repro.server.server import QueryServer
from repro.server.service import QueryService
from repro.workloads.queries import generate_target_centric_set


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(150, 4.0, seed=11)


@pytest.fixture(scope="module")
def queries(graph):
    workload = generate_target_centric_set(graph, count=10, k=4, num_targets=3, seed=5)
    return list(workload)


class _SlowAlgorithm(Algorithm):
    name = "SLOW"

    def __init__(self, delay: float = 0.04) -> None:
        self.delay = delay

    def run(self, graph, query, config=None):
        time.sleep(self.delay)
        return QueryResult(
            source=query.source, target=query.target, k=query.k,
            algorithm=self.name, count=1,
            paths=PathBuffer.from_paths([(query.source, query.target)]),
            stats=EnumerationStats(),
        )


#: The two ways a client reaches a service: ``repro serve`` in front of it,
#: or ``repro route`` in front of a one-shard fleet serving it.
FRONT_ENDS = ("serve", "route")


@contextlib.asynccontextmanager
async def _front_end(graph, front="serve", **service_kwargs):
    """Boot a service and the ``front`` end; yields ``(front end, service)``."""
    async with contextlib.AsyncExitStack() as stack:
        service = QueryService(graph, **service_kwargs)
        stack.push_async_callback(service.close)
        server = await stack.enter_async_context(QueryServer(service, port=0))
        if front == "route":
            router = ShardRouter(
                ShardMap.from_entries([f"127.0.0.1:{server.port}"]), hedge=False
            )
            stack.push_async_callback(router.close)
            server = await stack.enter_async_context(QueryServer(router, port=0))
        yield server, service


def _serve(graph, scenario, front="serve", **service_kwargs):
    """Run ``scenario(client, server)`` against a freshly booted front end."""

    async def runner():
        async with _front_end(graph, front, **service_kwargs) as (server, _service):
            client = await QueryClient.connect(port=server.port)
            async with client:
                return await scenario(client, server)

    return asyncio.run(runner())


class TestRoundTrip:
    def test_results_byte_identical_to_sequential_session(self, graph, queries):
        session = QuerySession(graph)
        expected = [session.run(q, RunConfig(store_paths=True)) for q in queries]

        async def scenario(client, server):
            return await client.run([[q.source, q.target, q.k] for q in queries])

        outcome = _serve(graph, scenario, threads=2)
        assert outcome.status == "done"
        assert outcome.info["queries"] == len(queries)
        for exp, act in zip(expected, outcome.results):
            assert (act.source, act.target, act.k) == (exp.source, exp.target, exp.k)
            assert act.count == exp.count
            # Same paths, same order — the wire format must not reorder.
            # The client keeps the frame's columns; tuples are a lazy view.
            assert isinstance(act.path_buffer, PathBuffer)
            assert "paths" not in vars(act)
            assert act.path_buffer == exp.path_buffer
            assert act.paths == exp.paths
            assert act.bfs_cache_hit == exp.stats.bfs_cache_hit

    def test_frames_stream_before_batch_completion(self, graph):
        queries = [[i, 100 + i, 2] for i in range(6)]

        async def scenario(client, server):
            job_id = await client.submit(queries)
            loop = asyncio.get_running_loop()
            started = loop.time()
            arrival_times = []
            async for frame in client.frames(job_id):
                arrival_times.append((frame["type"], loop.time() - started))
            return arrival_times

        arrivals = _serve(graph, scenario, algorithm=_SlowAlgorithm(0.04), threads=1)
        kinds = [kind for kind, _ in arrivals]
        assert kinds[-1] == "done"
        assert kinds.count("result") == len(queries)
        first_result = next(t for kind, t in arrivals if kind == "result")
        done_time = arrivals[-1][1]
        # One worker, 40 ms per query: the first frame arrives while the
        # batch is still enumerating, not with the final blob.
        assert first_result < done_time / 2

    def test_count_only_omits_paths(self, graph, queries):
        async def scenario(client, server):
            return await client.run(
                [[q.source, q.target, q.k] for q in queries[:4]], store_paths=False
            )

        outcome = _serve(graph, scenario, threads=1)
        assert outcome.status == "done"
        assert all(result.paths is None for result in outcome.results)
        assert all(result.count > 0 for result in outcome.results)

    def test_external_endpoints_resolve_to_internal_results(self):
        builder = GraphBuilder()
        builder.add_edges([("a", "b"), ("b", "c"), ("a", "c")])
        labelled = builder.build()
        a, c = labelled.to_internal("a"), labelled.to_internal("c")
        expected = QuerySession(labelled).run(Query(a, c, 2), RunConfig(store_paths=True))

        async def scenario(client, server):
            return await client.run([["a", "c", 2]], external=True)

        outcome = _serve(labelled, scenario, threads=1)
        assert outcome.status == "done"
        result = outcome.results[0]
        # Only the endpoints are translated: the result is the internal-id
        # result an inline run of the resolved query gives.
        assert (result.source, result.target) == (a, c)
        assert result.count == expected.count
        assert result.paths == expected.paths
        assert sorted(map(labelled.translate_path, result.paths)) == [
            ("a", "b", "c"), ("a", "c")
        ]


_TERMINAL = ("done", "cancelled", "error", "overloaded")


async def _raw_job(port, submit):
    """Write one raw submit frame; returns the job's ``(body, frame)`` pairs."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_frame(submit))
        await writer.drain()
        frames = []
        while True:
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            body = await reader.readexactly(length)
            frames.append((body, decode_frame(body)))
            if frames[-1][1]["type"] in _TERMINAL:
                return frames
    finally:
        writer.close()
        await writer.wait_closed()


async def _job_frames(client, queries, **opts):
    job_id = await client.submit(queries, **opts)
    return [frame async for frame in client.frames(job_id)]


class TestColumnarResults:
    """Protocol v4: columnar ``result`` frames exactly where negotiated."""

    def test_versionless_raw_submit_gets_todays_json_frames(self, graph, queries):
        session = QuerySession(graph)
        expected = [session.run(q, RunConfig(store_paths=True)) for q in queries]
        triples = [[q.source, q.target, q.k] for q in queries]

        async def scenario(client, server):
            return await _raw_job(
                server.port, {"type": "submit", "id": "nc", "queries": triples, "opts": {}}
            )

        frames = _serve(graph, scenario, threads=2)
        results = sorted((f for f in frames if f[1]["type"] == "result"),
                         key=lambda pair: pair[1]["position"])
        assert len(results) == len(queries)
        for (body, frame), exp in zip(results, expected):
            assert body[:1] == b"{" and "paths_data" not in frame
            # The JSON paths list, byte for byte as rendered from the session.
            today = {key: value for key, value in frame.items() if key != "paths"}
            today["paths"] = [list(path) for path in exp.paths]
            assert body == encode_frame(today)[4:]

    def test_v4_client_receives_columns(self, graph, queries):
        session = QuerySession(graph)
        expected = [session.run(q, RunConfig(store_paths=True)) for q in queries]

        async def scenario(client, server):
            return await _job_frames(client, [[q.source, q.target, q.k] for q in queries])

        frames = _serve(graph, scenario, threads=2)
        results = {f["position"]: f for f in frames if f["type"] == "result"}
        assert len(results) == len(queries)
        for position, exp in enumerate(expected):
            frame = results[position]
            assert "paths" not in frame
            assert frame["paths_data"].dtype.itemsize == 4  # ids fit int32
            assert frame_paths(frame).to_paths() == exp.paths

    def test_external_submit_gets_columns_under_v4(self):
        builder = GraphBuilder()
        builder.add_edges([("a", "b"), ("b", "c"), ("a", "c")])
        labelled = builder.build()

        async def external(client, server):
            return await _job_frames(client, [["a", "c", 2]], external=True)

        frames = _serve(labelled, external, threads=1)
        result = next(f for f in frames if f["type"] == "result")
        assert "paths" not in result and "paths_data" in result
        paths = frame_paths(result).to_paths()
        assert sorted(map(labelled.translate_path, paths)) == [("a", "b", "c"), ("a", "c")]

    def test_legacy_path_frames_option_is_ignored(self, graph, queries):
        triples = [[q.source, q.target, q.k] for q in queries[:4]]

        def result_frames(opts):
            async def scenario(client, server):
                return await _raw_job(
                    server.port,
                    {"type": "submit", "id": "nc", "queries": triples, "opts": opts},
                )

            frames = [frame for _, frame in _serve(graph, scenario, threads=1)]
            assert frames[-1]["type"] == "done"
            assert all(frame["type"] in ("result", "done") for frame in frames)
            return sorted(
                ({k: v for k, v in f.items() if k != "query_ms"}
                 for f in frames if f["type"] == "result"),
                key=lambda frame: frame["position"],
            )

        plain = result_frames({})
        assert len(plain) == len(triples)
        assert result_frames({"frames": "path"}) == plain

    def test_count_only_sends_no_columns(self, graph, queries):
        async def scenario(client, server):
            return await _job_frames(
                client, [[q.source, q.target, q.k] for q in queries[:4]], store_paths=False
            )

        results = [f for f in _serve(graph, scenario, threads=1) if f["type"] == "result"]
        assert len(results) == 4
        assert not any("paths_data" in f or "paths" in f for f in results)

    def test_zero_path_and_limit_truncated_results_roundtrip(self, graph, queries):
        session = QuerySession(graph)
        source = queries[0].source
        unreachable = next(
            v for v in graph.vertices()
            if v != source and session.run(Query(source, v, 2)).count == 0
        )
        wide = max(queries, key=lambda q: session.run(q).count)
        limited = session.run(wide, RunConfig(store_paths=True, result_limit=3))
        assert limited.count == 3

        async def scenario(client, server):
            zero = await client.run([[source, unreachable, 2]])
            cut = await client.run([[wide.source, wide.target, wide.k]], result_limit=3)
            return zero, cut

        zero, cut = _serve(graph, scenario, threads=1)
        assert zero.results[0].count == 0 and zero.results[0].paths == []
        assert cut.results[0].count == 3 and cut.results[0].paths == limited.paths


class TestProtocolErrors:
    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_malformed_queries_produce_error_frame(self, graph, front):
        async def scenario(client, server):
            job_id = await client.submit([[0, 1]])  # missing k
            return [frame async for frame in client.frames(job_id)]

        frames = _serve(graph, scenario, front=front, threads=1)
        assert frames[-1]["type"] == "error"
        assert "malformed query" in frames[-1]["error"]

    def test_out_of_range_vertex_rejected(self, graph):
        async def scenario(client, server):
            job_id = await client.submit([[0, graph.num_vertices + 7, 3]])
            return [frame async for frame in client.frames(job_id)]

        frames = _serve(graph, scenario, threads=1)
        assert frames[-1]["type"] == "error"
        assert "out of range" in frames[-1]["error"]

    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_duplicate_in_flight_job_id_rejected(self, graph, front):
        queries = [[i, 100 + i, 2] for i in range(10)]

        async def scenario(client, server):
            from repro.server.protocol import write_frame

            # Two raw submits sharing one id: the second must be rejected
            # (an overwritten jobs-map entry would orphan the first job).
            await write_frame(
                client._writer,
                {"type": "submit", "id": "dup", "queries": queries, "opts": {}},
            )
            client._jobs["dup"] = asyncio.Queue()
            await write_frame(
                client._writer,
                {"type": "submit", "id": "dup", "queries": queries, "opts": {}},
            )
            queue = client._jobs["dup"]
            frames = []
            while True:
                frame = await asyncio.wait_for(queue.get(), timeout=15)
                frames.append(frame)
                if frame["type"] == "done":
                    return frames

        frames = _serve(graph, scenario, front=front, algorithm=_SlowAlgorithm(0.02), threads=1)
        rejections = [f for f in frames if f["type"] == "error"]
        assert rejections and "already in flight" in rejections[0]["error"]
        # The first job still completes normally.
        assert frames[-1]["type"] == "done"

    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_typeless_frame_from_a_client_is_a_typed_error(self, graph, front):
        async def scenario(client, server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_frame({"id": "c1"}))
                await writer.drain()
                return await read_frame(reader), await read_frame(reader)
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()

        reply, after = _serve(graph, scenario, front=front, threads=1)
        # A typed error, then the front end hangs up: the stream is unframed.
        assert reply == {"type": "error", "error": "frame has no string 'type'"}
        assert after is None

    def test_typeless_frame_from_a_peer_is_a_typed_error(self):
        async def scenario():
            async def peer(reader, writer):
                (length,) = struct.unpack(">I", await reader.readexactly(4))
                await reader.readexactly(length)  # the submit
                writer.write(encode_frame({"id": "c1"}))
                await writer.drain()
                await reader.read()  # hold the socket until the client hangs up
                writer.close()
                await writer.wait_closed()

            listener = await asyncio.start_server(peer, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                async with await QueryClient.connect(port=port) as client:
                    return await asyncio.wait_for(client.run([[0, 1, 2]]), timeout=10)
            finally:
                listener.close()
                await listener.wait_closed()

        outcome = asyncio.run(scenario())
        assert outcome.status == "error"
        assert "FrameError" in outcome.info["error"]

    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_unknown_message_type_answered_not_fatal(self, graph, front):
        async def scenario(client, server):
            from repro.server.protocol import write_frame

            await write_frame(client._writer, {"type": "frobnicate"})
            frame = await client._control.get()
            assert frame["type"] == "error"
            # The connection survives: a ping still round-trips.
            assert await client.ping()
            return True

        assert _serve(graph, scenario, front=front, threads=1)


class TestCancelAndStats:
    def test_cancel_over_the_wire(self, graph):
        queries = [[i, 100 + i, 2] for i in range(20)]

        async def scenario(client, server):
            job_id = await client.submit(queries)
            frames = []
            async for frame in client.frames(job_id):
                frames.append(frame)
                if frame["type"] == "result" and len(frames) == 2:
                    await client.cancel(job_id)
            return frames

        frames = _serve(graph, scenario, algorithm=_SlowAlgorithm(0.03), threads=1)
        assert frames[-1]["type"] == "cancelled"
        results = sum(1 for frame in frames if frame["type"] == "result")
        assert 0 < results < len(queries)
        assert frames[-1]["delivered"] == results

    def test_stats_roundtrip(self, graph, queries):
        async def scenario(client, server):
            await client.run([[q.source, q.target, q.k] for q in queries[:5]])
            return await client.stats()

        stats = _serve(graph, scenario, threads=2)
        assert stats["jobs_completed"] == 1
        assert stats["queries_completed"] == 5
        assert stats["backend"] == "thread"
        assert stats["graph_vertices"] == graph.num_vertices

    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_disconnect_cancels_running_jobs(self, graph, front):
        queries = [[i, 100 + i, 2] for i in range(30)]

        async def runner():
            async with _front_end(
                graph, front, algorithm=_SlowAlgorithm(0.03), threads=1
            ) as (server, service):
                client = await QueryClient.connect(port=server.port)
                await client.submit(queries)
                await asyncio.sleep(0.1)
                await client.close()  # vanish mid-job
                # Behind a router the shard's job must drain too: the router
                # forwards the cancel over its own, still open, connection.
                deadline = asyncio.get_running_loop().time() + 5.0
                while service.stats()["jobs_active"]:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("job survived its client")
                    await asyncio.sleep(0.05)
                return service.stats()

        stats = asyncio.run(runner())
        assert stats["jobs_cancelled"] == 1


class TestShutdown:
    def test_close_with_idle_client_does_not_hang(self, graph):
        # Since Python 3.12.1 Server.wait_closed() waits for every
        # connection handler; an idle client must not stall shutdown.
        async def runner():
            service = QueryService(graph, threads=1)
            server = QueryServer(service, port=0)
            await server.start()
            client = await QueryClient.connect(port=server.port)
            try:
                assert await client.ping()
                await asyncio.wait_for(server.close(), timeout=10.0)
            finally:
                await client.close()
                await service.close()
            return True

        assert asyncio.run(runner())

    def test_close_with_job_in_flight_cancels_it(self, graph):
        queries = [[i, 100 + i, 2] for i in range(30)]

        async def runner():
            service = QueryService(graph, algorithm=_SlowAlgorithm(0.03), threads=1)
            server = QueryServer(service, port=0)
            await server.start()
            client = await QueryClient.connect(port=server.port)
            try:
                await client.submit(queries)
                await asyncio.sleep(0.1)
                await asyncio.wait_for(server.close(), timeout=10.0)
                await service.close()
                return service.stats()
            finally:
                await client.close()

        stats = asyncio.run(runner())
        assert stats["jobs_active"] == 0


class TestSyncHelpers:
    def test_run_queries_helper(self, graph, queries):
        async def runner():
            service = QueryService(graph, threads=1)
            server = QueryServer(service, port=0)
            await server.start()
            try:
                workload = [[q.source, q.target, q.k] for q in queries[:3]]
                return await asyncio.to_thread(
                    run_queries, workload, port=server.port
                )
            finally:
                await server.close()
                await service.close()

        outcome = asyncio.run(runner())
        assert outcome.status == "done"
        assert len(outcome.results) == 3


class TestProtocolIdentity:
    """Protocol v2: identity fields on pong/stats, RTT, negotiation."""

    def test_ping_returns_identity_and_rtt(self, graph):
        from repro._version import __version__
        from repro.server.protocol import PROTOCOL_VERSION

        async def scenario(client, server):
            return await client.ping()

        pong = _serve(graph, scenario, threads=1, shard_id=3)
        assert pong  # still truthy for liveness asserts
        assert pong.protocol == PROTOCOL_VERSION
        assert pong.server_version == __version__
        assert pong.shard_id == 3
        assert 0.0 < pong.rtt_ms < 5_000.0

    def test_stats_carry_shard_identity(self, graph):
        from repro._version import __version__
        from repro.server.protocol import PROTOCOL_VERSION

        async def scenario(client, server):
            return await client.stats()

        stats = _serve(graph, scenario, threads=1, shard_id=7)
        assert stats["shard_id"] == 7
        assert stats["server_version"] == __version__
        assert stats["protocol"] == PROTOCOL_VERSION

    def test_standalone_server_has_no_shard_id(self, graph):
        async def scenario(client, server):
            return (await client.ping()).shard_id, (await client.stats())["shard_id"]

        assert _serve(graph, scenario, threads=1) == (None, None)

    def test_negotiate_against_live_server(self, graph):
        from repro.server.protocol import PROTOCOL_VERSION

        async def scenario(client, server):
            return await client.negotiate()

        assert _serve(graph, scenario, threads=1) == PROTOCOL_VERSION


class TestReconnect:
    def test_dead_endpoint_raises_connection_lost(self, graph):
        import socket

        from repro.errors import ConnectionLost

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]

        async def runner():
            with pytest.raises(ConnectionLost) as info:
                await QueryClient.connect("127.0.0.1", dead_port)
            return info.value

        error = asyncio.run(runner())
        assert error.port == dead_port
        assert error.attempts == 1
        # The old behaviour leaked raw OSErrors; the typed error still
        # satisfies except-ConnectionError handlers.
        assert isinstance(error, ConnectionError)

    def test_retries_follow_backoff_then_raise(self, graph):
        import socket

        from repro.errors import ConnectionLost
        from repro.server.client import ReconnectPolicy

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]

        policy = ReconnectPolicy(attempts=3, base_delay=0.01, max_delay=0.02, jitter=0.0)

        async def runner():
            started = asyncio.get_running_loop().time()
            with pytest.raises(ConnectionLost) as info:
                await QueryClient.connect("127.0.0.1", dead_port, policy=policy)
            return info.value, asyncio.get_running_loop().time() - started

        error, elapsed = asyncio.run(runner())
        assert error.attempts == 3
        assert elapsed >= 0.02  # slept between attempts (0.01 + 0.02)

    def test_reconnect_restores_a_working_connection(self, graph):
        async def runner():
            service = QueryService(graph, threads=1)
            server = QueryServer(service, port=0)
            await server.start()
            try:
                client = await QueryClient.connect(port=server.port, retries=2)
                assert client.connected
                # Simulate a dropped connection by closing the transport.
                client._writer.close()
                deadline = asyncio.get_running_loop().time() + 5.0
                while client.connected:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("reader loop never noticed the drop")
                    await asyncio.sleep(0.01)
                await client.reconnect()
                assert client.connected
                outcome = await client.run([[0, 100, 3]])
                await client.close()
                return outcome
            finally:
                await server.close()
                await service.close()

        outcome = asyncio.run(runner())
        assert outcome.status == "done"

    def test_submit_on_a_dead_connection_is_typed_not_a_hang(self, graph):
        """A job registered after the reader loop died would never see the
        loop's poison frame; ``submit`` refuses it instead."""
        from repro.errors import ConnectionLost

        async def runner():
            service = QueryService(graph, threads=1)
            server = QueryServer(service, port=0)
            await server.start()
            try:
                client = await QueryClient.connect(port=server.port)
                await server.close()
                deadline = asyncio.get_running_loop().time() + 5.0
                while client.connected:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("reader loop never noticed the drop")
                    await asyncio.sleep(0.01)
                with pytest.raises(ConnectionLost, match="connection closed"):
                    await asyncio.wait_for(client.submit([[0, 100, 3]]), 5.0)
                assert client._jobs == {}
                await client.close()
            finally:
                await server.close()
                await service.close()

        asyncio.run(runner())

    def test_reconnect_policy_delay_schedule(self):
        from repro.server.client import ReconnectPolicy

        policy = ReconnectPolicy(attempts=5, base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.5]
        jittered = ReconnectPolicy(base_delay=0.1, jitter=0.5)
        samples = {round(jittered.delay(1), 6) for _ in range(20)}
        assert all(0.1 <= delay <= 0.15 for delay in samples)
        assert len(samples) > 1  # actually randomised
