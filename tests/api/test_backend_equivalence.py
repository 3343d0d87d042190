"""Cross-backend equivalence: one spec list, byte-identical payloads.

The acceptance contract of the façade: the same :class:`~repro.api.QuerySpec`
batch produces byte-identical :meth:`~repro.api.ResultStream.payload_bytes`
whichever backend executes it — inline, thread pool, worker processes or a
TCP server or a shard router — including runs interrupted by a result
limit or a deadline, runs submitted with external vertex ids, on the kernel
tier (no C library) and against a reference taken from the recursive
engines.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import Database
from repro.graph.builder import GraphBuilder
from repro.graph.generators import erdos_renyi
from repro.server.client import QueryClient
from repro.server.protocol import write_frame
from repro.server.router import ShardMap, ShardRouter
from repro.server.server import QueryServer
from repro.server.service import QueryService
from repro.workloads.queries import generate_target_centric_set

from tests.helpers import UNCONSTRAINED_TIERS, accept_all

BACKENDS = ("inline", "threads", "processes", "remote")


@pytest.fixture(scope="module")
def graph():
    # Dense enough that a zero deadline interrupts mid-enumeration (the
    # cooperative deadline only polls the clock every ~256 work units).
    return erdos_renyi(300, 8.0, seed=11)


@pytest.fixture(scope="module")
def shared_target_triples(graph):
    """Ten queries over three targets — the cache-sharing traffic shape."""
    workload = generate_target_centric_set(graph, count=10, k=4, num_targets=3, seed=5)
    return [(q.source, q.target, q.k) for q in workload]


@pytest.fixture(scope="module")
def distinct_target_triples(graph):
    """Queries with pairwise-distinct ``(target, k)`` keys.

    Used for the deadline scenario: with no key shared, no backend injects
    multi-source forward sweeps, so the cooperative deadline's poll
    countdown sees the identical call sequence everywhere and interruption
    points coincide exactly.
    """
    workload = generate_target_centric_set(graph, count=12, k=6, num_targets=8, seed=9)
    triples, seen = [], set()
    for q in workload:
        if (q.target, q.k) not in seen:
            seen.add((q.target, q.k))
            triples.append((q.source, q.target, q.k))
    triples = triples[:6]
    assert len(triples) == 6
    return triples


def _host(graph, *, router: bool):
    """Serve ``graph`` from a background event loop until the generator
    resumes: one ``repro serve`` equivalent, or with ``router`` two such
    shard hosts behind a ``repro route`` equivalent.  Yields the URL."""
    holder = {}
    ready = threading.Event()

    def serve() -> None:
        async def main() -> None:
            hosts = []
            for _ in range(2 if router else 1):
                service = QueryService(graph, threads=2)
                server = QueryServer(service, port=0)
                await server.start()
                hosts.append((service, server))
            front = shard_router = None
            if router:
                shard_map = ShardMap.from_entries(
                    [f"127.0.0.1:{server.port}" for _, server in hosts]
                )
                shard_router = ShardRouter(shard_map, hedge=False)
                front = QueryServer(shard_router, port=0)
                await front.start()
            holder["url"] = (
                f"router://127.0.0.1:{front.port}" if router
                else f"127.0.0.1:{hosts[0][1].port}"
            )
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = asyncio.Event()
            ready.set()
            await holder["stop"].wait()
            if router:
                await front.close()
                await shard_router.close()
            for service, server in hosts:
                await server.close()
                await service.close()

        asyncio.run(main())

    thread = threading.Thread(target=serve, name="equivalence-server", daemon=True)
    thread.start()
    assert ready.wait(10), "server failed to boot"
    yield holder["url"]
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(10)


@pytest.fixture(scope="module")
def remote_url(graph):
    """A live ``repro serve`` equivalent on a free port, torn down after."""
    yield from _host(graph, router=False)


def _open(graph, backend, remote_url):
    if backend in ("remote", "router"):
        return Database(remote_url)
    if backend == "inline":
        return Database(graph)
    return Database(graph, backend=backend, workers=2)


def _payload(graph, backend, remote_url, triples, options, tier="native"):
    """The payload of one backend run; ``tier`` ``kernel`` runs it without
    the C library, ``recursive`` (inline only) under an accept-all
    constraint."""
    if tier == "recursive":
        assert backend == "inline", "constraints cannot leave an inline Database"
        options = {**options, "constraint": accept_all(graph)}
        tier = "native"
    with UNCONSTRAINED_TIERS[tier](), _open(graph, backend, remote_url) as db:
        return db.batch(triples, **options).payload_bytes()


#: Scenario name -> (run options, enumeration tier).  Every scenario runs the
#: same spec list on all four backends and the payloads must agree byte for
#: byte with the inline reference.  ``kernel`` runs both sides without the C
#: library; ``recursive`` takes the reference from the recursive engines.
SCENARIOS = {
    "plain": ({}, "native"),
    "count_only": ({"store_paths": False}, "native"),
    "limit_interrupted": ({"limit": 3}, "native"),
    "engine_kernel": ({}, "kernel"),
    "engine_kernel_limit": ({"limit": 3}, "kernel"),
    "engine_recursive": ({}, "recursive"),
    "engine_recursive_limit": ({"limit": 3}, "recursive"),
}


def _reference(graph, remote_url, triples, scenario):
    options, tier = SCENARIOS[scenario]
    return _payload(graph, "inline", remote_url, triples, options, tier)


class TestPayloadEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_inline_reference(
        self, graph, shared_target_triples, remote_url, backend, scenario
    ):
        triples = shared_target_triples
        reference = _reference(graph, remote_url, triples, scenario)
        options, tier = SCENARIOS[scenario]
        tier = "native" if tier == "recursive" else tier  # constraints stay inline
        assert _payload(graph, backend, remote_url, triples, options, tier) == reference

    @pytest.mark.parametrize("scenario", ["plain", "limit_interrupted", "engine_recursive"])
    def test_remote_results_are_buffer_backed(
        self, graph, shared_target_triples, remote_url, scenario
    ):
        """Remote paths arrive as columns: the results wrap the frame bytes
        in a PathBuffer, and the payload stays byte-identical to inline."""
        options, _ = SCENARIOS[scenario]
        with Database(remote_url) as db:
            stream = db.batch(shared_target_triples, **options)
            assert all(result.path_buffer is not None for result in stream.results())
            actual = stream.payload_bytes()
        assert actual == _reference(graph, remote_url, shared_target_triples, scenario)

    def test_limit_scenario_actually_truncates(self, graph, shared_target_triples):
        with Database(graph) as db:
            results = db.batch(shared_target_triples, limit=3).results()
        assert any(r.stats.truncated for r in results)
        assert all(r.count <= 3 for r in results)

    def test_engine_choice_does_not_change_the_payload(
        self, graph, shared_target_triples, remote_url
    ):
        triples = shared_target_triples
        kernel = _payload(graph, "remote", remote_url, triples, {}, "kernel")
        native = _payload(graph, "remote", remote_url, triples, {}, "native")
        recursive = _payload(graph, "inline", remote_url, triples, {}, "recursive")
        assert kernel == recursive
        assert native == recursive

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadline_interruption_is_identical(
        self, graph, distinct_target_triples, remote_url, backend
    ):
        options = {"deadline": 0.0}
        reference = _payload(
            graph, "inline", remote_url, distinct_target_triples, options
        )
        assert any(
            entry["timed_out"] for entry in json.loads(reference)
        ), "deadline scenario never timed out — not exercising interruption"
        actual = _payload(graph, backend, remote_url, distinct_target_triples, options)
        assert actual == reference


class TestCacheFlagEquivalence:
    """Local backends charge cache flags the way a sequential session would.

    The remote backend is excluded: a long-lived server keeps its distance
    cache warm across jobs (flags go to all-hit), which is exactly why the
    flags are not part of the canonical payload.
    """

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_flags_match_a_fresh_inline_run(
        self, graph, shared_target_triples, backend
    ):
        def flags(chosen: str):
            kwargs = {} if chosen == "inline" else {"workers": 2}
            with Database(graph, backend=chosen, **kwargs) as db:
                return [
                    r.stats.bfs_cache_hit for r in db.batch(shared_target_triples).results()
                ]

        assert flags(backend) == flags("inline")


class TestRemoteEnginePlumbing:
    def test_legacy_engine_option_is_ignored(self, graph, shared_target_triples, remote_url):
        """Older clients sent an ``engine`` submit option; the server ignores
        it like any unknown option and answers with the inline paths."""
        host, port = remote_url.rsplit(":", 1)
        frame = {
            "type": "submit",
            "id": "legacy",
            "queries": [list(triple) for triple in shared_target_triples],
            "opts": {"engine": "recursive"},
        }

        async def scenario():
            async with await QueryClient.connect(host, int(port)) as client:
                client._jobs["legacy"] = asyncio.Queue()
                await write_frame(client._writer, frame)
                return await client.collect("legacy")

        outcome = asyncio.run(scenario())
        assert outcome.status == "done"
        with Database(graph) as db:
            inline = db.batch(shared_target_triples).results()
        assert [list(r.paths) for r in outcome.results] == [list(r.paths) for r in inline]


@pytest.fixture(scope="module")
def labelled(graph):
    """``graph`` with string vertex ids, added in an order that makes the
    internal ids differ from the numbers in the names."""
    builder = GraphBuilder()
    builder.add_edges((f"v{u}", f"v{v}") for u, v in sorted(graph.edges(), reverse=True))
    return builder.build()


@pytest.fixture(scope="module")
def labelled_urls(labelled):
    """The labelled graph served by one host and by a two-shard router."""
    remote = _host(labelled, router=False)
    routed = _host(labelled, router=True)
    urls = {"remote": next(remote), "router": next(routed)}
    yield urls
    for host in (remote, routed):
        next(host, None)


class TestExternalIds:
    """``external=True`` translates the endpoints only: every backend
    returns the internal-id payload an inline run returns."""

    @pytest.fixture(scope="class")
    def external_triples(self, labelled):
        workload = generate_target_centric_set(
            labelled, count=8, k=4, num_targets=3, seed=7
        )
        return [
            (labelled.to_external(q.source), labelled.to_external(q.target), q.k)
            for q in workload
        ]

    @pytest.mark.parametrize("backend", BACKENDS + ("router",))
    def test_external_payload_matches_inline(
        self, labelled, labelled_urls, external_triples, backend
    ):
        with Database(labelled) as db:
            reference = db.batch(external_triples, external=True).payload_bytes()
            internal = [
                (labelled.to_internal(s), labelled.to_internal(t), k)
                for s, t, k in external_triples
            ]
            assert db.batch(internal).payload_bytes() == reference
        assert sum(entry["count"] for entry in json.loads(reference)) > 0
        with _open(labelled, backend, labelled_urls.get(backend)) as db:
            stream = db.batch(external_triples, external=True)
            assert all(result.path_buffer is not None for result in stream.results())
            assert stream.payload_bytes() == reference


class TestBufferBackedResults:
    """Every stored result is one PathBuffer, whichever tier and backend
    produced it."""

    @pytest.mark.parametrize(
        "backend, tier",
        [("inline", "recursive")]
        + [(backend, tier) for backend in BACKENDS for tier in UNCONSTRAINED_TIERS],
    )
    def test_every_stored_result_has_a_buffer(
        self, graph, shared_target_triples, remote_url, backend, tier
    ):
        options = {"constraint": accept_all(graph)} if tier == "recursive" else {}
        context = UNCONSTRAINED_TIERS.get(tier, UNCONSTRAINED_TIERS["native"])
        with context(), _open(graph, backend, remote_url) as db:
            results = db.batch(shared_target_triples, **options).results()
        assert results and all(result.path_buffer is not None for result in results)
