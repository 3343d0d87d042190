"""Unit tests of the ``Database`` façade and its ``ResultStream`` surface."""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import BACKEND_CHOICES, Database, Q, QuerySpec
from repro.core.algorithm import DelayedAlgorithm
from repro.core.constraints import PredicateConstraint
from repro.core.engine import ExecutorCore, PathEnum, QuerySession
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.errors import BackendError, ConnectionLost, QuerySpecError, ReproError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import erdos_renyi
from repro.graph.io import _save_npz as save_npz
from repro.graph.io import write_edge_list
from repro.server.client import QueryClient
from repro.server.router import ShardMap
from repro.server.server import QueryServer
from repro.server.service import QueryService
from repro.workloads.queries import generate_target_centric_set


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(80, 4.0, seed=3)


@pytest.fixture(scope="module")
def workload(graph):
    return list(generate_target_centric_set(graph, count=8, k=4, num_targets=2, seed=5))


class TestOpening:
    def test_open_from_digraph_defaults_to_inline(self, graph):
        with Database(graph) as db:
            assert db.backend_name == "inline"
            assert db.graph is graph

    def test_open_from_npz_snapshot(self, graph, tmp_path):
        path = tmp_path / "snapshot.npz"
        save_npz(graph, path)
        with Database(str(path)) as db:
            assert db.backend_name == "inline"
            assert db.graph.num_vertices == graph.num_vertices
            assert db.query((0, 10, 4)).result().count == _direct_count(graph, 0, 10, 4)

    def test_open_from_edge_list(self, tmp_path):
        builder = GraphBuilder()
        builder.add_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        path = tmp_path / "edges.txt"
        write_edge_list(builder.build(), path)
        with Database(str(path)) as db:
            result = db.query(Q(0, 3, 3), external=True).result()
            assert result.count == 2

    def test_url_target_infers_remote(self):
        db = Database("127.0.0.1:7284")
        assert db.backend_name == "remote"
        assert db.graph is None
        db.close()

    def test_repr_names_what_the_database_talks_to(self, graph):
        with Database("127.0.0.1:7284") as db:
            assert repr(db) == "Database(backend='remote', 127.0.0.1:7284)"
        shard_map = ShardMap.from_entries(["127.0.0.1:7301,127.0.0.1:7401", "127.0.0.1:7302"])
        with Database(shard_map) as db:
            assert repr(db) == (
                "Database(backend='router', 127.0.0.1:7301,127.0.0.1:7401 | 127.0.0.1:7302)"
            )
        with Database(graph) as db:
            assert repr(db) == "Database(backend='inline', |V|=80, |E|=" f"{graph.num_edges})"

    def test_open_classmethod_is_the_constructor(self, graph):
        with Database.open(graph, backend="threads", workers=2) as db:
            assert db.backend_name == "threads"

    def test_unknown_backend_name_is_rejected(self, graph):
        with pytest.raises(BackendError, match="unknown backend 'quantum'"):
            Database(graph, backend="quantum")
        with pytest.raises(ValueError):
            Database(graph, backend="quantum")

    def test_every_documented_backend_is_constructible(self, graph):
        for backend in BACKEND_CHOICES:
            if backend in ("remote", "router"):  # need a live host / fleet
                continue
            workers = None if backend == "inline" else 2
            Database(graph, backend=backend, workers=workers).close()

    def test_router_backend_needs_a_shard_target(self, graph):
        with pytest.raises(BackendError, match="router"):
            Database(graph, backend="router")

    def test_workers_argument_infers_the_thread_backend(self, graph):
        with Database(graph, workers=4) as db:
            assert db.backend_name == "threads"

    def test_inline_backend_rejects_workers(self, graph):
        with pytest.raises(BackendError, match="takes no workers"):
            Database(graph, backend="inline", workers=4)

    def test_remote_backend_needs_a_url(self, graph):
        with pytest.raises(BackendError, match="needs a host:port target"):
            Database(graph, backend="remote")

    def test_local_backend_rejects_a_url(self):
        with pytest.raises(BackendError, match="cannot run against the remote target"):
            Database("127.0.0.1:7284", backend="threads")

    def test_remote_rejects_an_algorithm(self):
        with pytest.raises(BackendError, match="drop the algorithm argument"):
            Database("127.0.0.1:7284", algorithm=PathEnum())

    def test_unresolvable_target_is_rejected(self, tmp_path):
        with pytest.raises(BackendError, match="cannot open"):
            Database(str(tmp_path / "missing.edges"))
        with pytest.raises(BackendError, match="cannot open"):
            Database(12345)


class TestLifecycle:
    def test_context_manager_closes(self, graph):
        with Database(graph) as db:
            assert not db.closed
        assert db.closed

    def test_submitting_after_close_fails(self, graph):
        db = Database(graph)
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.query((0, 1, 4))

    def test_close_is_idempotent(self, graph):
        db = Database(graph, backend="threads", workers=2)
        db.batch([(0, 10, 4)]).results()
        db.close()
        db.close()


def _direct_count(graph, s, t, k):
    return QuerySession(graph).run_external(s, t, k, RunConfig(store_paths=False)).count


class TestExecution:
    def test_query_returns_a_one_result_stream(self, graph):
        with Database(graph) as db:
            stream = db.query(Q(0, 10, 4))
            assert len(stream) == 1
            result = stream.result()
            assert result.count == _direct_count(graph, 0, 10, 4)

    def test_result_rejects_multi_query_streams(self, graph, workload):
        with Database(graph) as db:
            with pytest.raises(RuntimeError, match="single-query stream"):
                db.batch(workload).result()

    def test_batch_iterates_in_workload_order(self, graph, workload):
        with Database(graph) as db:
            stream = db.batch(workload)
            iterated = [(r.source, r.target, r.k) for r in stream]
        assert iterated == [(q.source, q.target, q.k) for q in workload]

    def test_stream_yields_every_result_with_positions(self, graph, workload):
        with Database(graph, backend="threads", workers=2) as db:
            pairs = list(db.stream(workload).as_completed())
        assert sorted(position for position, _ in pairs) == list(range(len(workload)))

    def test_query_option_overrides_apply(self, graph):
        with Database(graph) as db:
            limited = db.query((0, 10, 4), limit=1).result()
            assert limited.count <= 1
            counted = db.query((0, 10, 4), store_paths=False).result()
            assert counted.paths is None

    def test_empty_batch_yields_an_empty_stream(self, graph):
        with Database(graph) as db:
            stream = db.batch([])
            assert stream.results() == []
            assert stream.stats().completed == 0
            assert stream.payload() == []

    def test_mixed_run_options_are_rejected(self, graph):
        with Database(graph) as db:
            with pytest.raises(QuerySpecError, match="'limit' differs between query 0"):
                db.batch([QuerySpec(0, 10, 4, limit=5), QuerySpec(1, 10, 4)])

    def test_external_ids_resolve_through_the_graph(self):
        builder = GraphBuilder()
        builder.add_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        with Database(builder.build()) as db:
            paths = db.query(Q("a", "d", 3), external=True).paths()[0]
            translated = [db.graph.translate_path(p) for p in paths]
        assert sorted(translated, key=len) == [("a", "c", "d"), ("a", "b", "c", "d")]

    def test_internal_mode_rejects_non_integer_endpoints(self, graph):
        with Database(graph) as db:
            with pytest.raises(QuerySpecError, match="external=True"):
                db.query(Q("a", "b", 4))

    def test_constraints_run_on_the_inline_backend(self, graph):
        allow_all = PredicateConstraint(lambda u, v, weight, label: True, graph)
        with Database(graph) as db:
            plain = db.query((0, 10, 4)).result()
            constrained = db.query(Q(0, 10, 4).where(allow_all)).result()
        assert constrained.count == plain.count

    def test_constraints_are_rejected_off_inline(self, graph):
        allow_all = PredicateConstraint(lambda u, v, weight, label: True, graph)
        with Database(graph, backend="threads", workers=2) as db:
            with pytest.raises(BackendError, match="inline Database"):
                db.query(Q(0, 10, 4).where(allow_all))
        # The executor core behind the pool backends points at the same place.
        with ExecutorCore(graph, backend="thread", workers=2) as core:
            with pytest.raises(ValueError, match=r"inline Database\(graph\)"):
                core.start([Query(0, 10, 4)], RunConfig(constraint=allow_all))

    def test_numpy_integer_endpoints_are_accepted(self, graph):
        np = pytest.importorskip("numpy")
        triple = (np.int64(0), np.int64(10), np.int64(4))
        with Database(graph) as db:
            fromnumpy = db.query(triple).result()
            plain = db.query((0, 10, 4)).result()
        assert fromnumpy.count == plain.count
        assert QuerySpec(*triple).k == 4

    def test_inline_streams_lazily(self, graph, workload):
        with Database(graph) as db:
            stream = db.batch(workload)
            first = next(iter(stream))
            # Only the pulled prefix has been evaluated.
            assert stream.delivered < len(workload)
            assert (first.source, first.target) == (workload[0].source, workload[0].target)

    def test_cancel_stops_between_queries(self, graph, workload):
        with Database(graph) as db:
            stream = db.batch(workload)
            iterator = iter(stream)
            next(iterator)
            stream.cancel()
            assert list(iterator) == []
            assert stream.cancelled
            with pytest.raises(RuntimeError, match="missing"):
                stream.results()

    def test_stats_match_session_accounting(self, graph, workload):
        with Database(graph) as db:
            stream = db.batch(workload)
            stream.results()
            stats = stream.stats()
        targets = {(q.target, q.k) for q in workload}
        assert stats.completed == len(workload)
        assert stats.reverse_bfs_runs == len(targets)
        assert stats.bfs_cache_hits == len(workload) - len(targets)
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.as_row()["queries"] == len(workload)

    def test_payload_bytes_is_deterministic(self, graph, workload):
        with Database(graph) as db:
            first = db.batch(workload).payload_bytes()
            second = db.batch(workload).payload_bytes()
        assert first == second


class TestDeprecationShims:
    """The pre-façade executor shims are gone from the top-level package;
    the machinery ``Database`` is built on stays in ``repro.core``."""

    @pytest.mark.parametrize("name", ["QuerySession", "ExecutorCore", "StreamRun"])
    def test_top_level_executor_access_raises(self, name):
        import repro
        import repro.core

        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert name not in repro.__all__
        assert getattr(repro.core, name) is not None

    def test_internal_imports_stay_silent(self, recwarn):
        from repro.core import ExecutorCore, QuerySession, StreamRun  # noqa: F401

        deprecations = [w for w in recwarn.list if w.category is DeprecationWarning]
        assert deprecations == []

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.NoSuchThing


# --------------------------------------------------------------------- #
# remote lifecycle: one persistent connection per Database
# --------------------------------------------------------------------- #
class _Server:
    """An in-process ``repro serve`` on its own loop thread.

    ``delay`` adds a fixed service time per query, so a batch stays in
    flight long enough to cancel or cut; ``stop()`` then ``start()``
    restarts it on the same port.
    """

    def __init__(self, graph, delay: float = 0.0) -> None:
        self.graph = graph
        self.delay = delay
        self.port = 0
        self._thread = None

    @property
    def url(self) -> str:
        return f"127.0.0.1:{self.port}"

    def start(self) -> "_Server":
        ready = threading.Event()

        async def main() -> None:
            algorithm = DelayedAlgorithm(PathEnum(), self.delay) if self.delay else None
            service = QueryService(self.graph, algorithm=algorithm, threads=1)
            server = QueryServer(service, port=self.port)
            await server.start()
            self.port = server.port
            self._loop, self._stop = asyncio.get_running_loop(), asyncio.Event()
            ready.set()
            await self._stop.wait()
            await server.close()
            await service.close()

        self._thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
        self._thread.start()
        assert ready.wait(10), "server failed to boot"
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(10)
            assert not self._thread.is_alive(), "server failed to stop"
            self._thread = None


@pytest.fixture
def server(graph):
    running = _Server(graph).start()
    yield running
    running.stop()


@pytest.fixture
def slow_server(graph):
    running = _Server(graph, delay=0.05).start()
    yield running
    running.stop()


@pytest.fixture
def dials(monkeypatch):
    """Every ``QueryClient.connect`` call made while the test runs.

    Each dial is slowed down, so callers racing for a connection overlap it.
    """
    calls = []
    connect = QueryClient.connect.__func__

    async def counting(cls, *args, **kwargs):
        calls.append(args)
        await asyncio.sleep(0.05)
        return await connect(cls, *args, **kwargs)

    monkeypatch.setattr(QueryClient, "connect", classmethod(counting))
    return calls


def _loop_threads():
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("repro-remote-"))


class TestRemoteLifecycle:
    def test_every_call_shares_one_dial(self, graph, workload, server, dials):
        edge = next(iter(graph.edges()))
        with Database(server.url) as db:
            assert dials == []  # construction never dials
            for query in workload:
                db.query(query).result()
            db.batch(workload).results()
            db.insert_edges([edge])  # already present: a no-op update
        assert len(dials) == 1

    def test_a_restarted_server_is_redialled_and_a_cut_stream_is_typed(self, graph, dials):
        running = _Server(graph, delay=0.05).start()
        try:
            with Database(running.url) as db:
                first = db.query((0, 10, 4)).result()
                running.stop()
                running.start()  # same port
                assert db.query((0, 10, 4)).result().count == first.count
                assert len(dials) == 2
                stream = db.batch([(0, 10, 4)] * 20)
                iterator = iter(stream)
                next(iterator)
                running.stop()
                with pytest.raises(ConnectionLost):
                    list(iterator)
                assert stream.delivered < stream.num_queries
        finally:
            running.stop()

    def test_threads_share_one_connection(self, graph, workload, server, dials):
        with Database(graph) as inline:
            expected = inline.batch(workload).payload_bytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread interleavings per batch
        try:
            with Database(server.url) as db:
                with ThreadPoolExecutor(4) as pool:
                    payloads = list(
                        pool.map(lambda _: db.batch(workload).payload_bytes(), range(8))
                    )
        finally:
            sys.setswitchinterval(interval)
        assert payloads == [expected] * 8
        assert len(dials) == 1

    def test_close_stops_the_loop_and_ends_live_streams(self, slow_server):
        db = Database(slow_server.url)
        db.query((0, 10, 4)).result()
        assert _loop_threads() == ["repro-remote-loop"]
        stream = db.batch([(0, 10, 4)] * 40)  # ~2 s of server work
        began = time.perf_counter()
        db.close()
        with pytest.raises(ConnectionLost, match="Database closed"):
            stream.results()
        assert time.perf_counter() - began < 1.0
        assert _loop_threads() == []

    def test_cancel_is_sent_at_once(self, slow_server, monkeypatch):
        sent = []
        cancel = QueryClient.cancel

        async def recording(self, job_id):
            sent.append(time.perf_counter())
            await cancel(self, job_id)

        monkeypatch.setattr(QueryClient, "cancel", recording)
        lags = []
        with Database(slow_server.url) as db:
            for _ in range(6):
                stream = db.batch([(0, 10, 4)] * 20)
                iterator = iter(stream)
                next(iterator)
                asked = time.perf_counter()
                stream.cancel()
                list(iterator)
                lags.append(sent[-1] - asked)
                assert stream.cancelled and stream.delivered < stream.num_queries
            # A cancel issued before the job id is known still lands.
            stream = db.batch([(0, 10, 4)] * 20)
            stream.cancel()
            assert len(list(stream)) < stream.num_queries
        # The 20 ms cancel poll this replaces would miss this on most runs.
        assert max(lags) < 0.01, lags


class TestTypedConnectionErrors:
    @pytest.mark.parametrize("url", ["127.0.0.1:1", "router://127.0.0.1:1"])
    def test_an_unreachable_server_raises_connection_lost(self, url):
        with Database(url) as db:
            with pytest.raises(ConnectionLost) as info:
                db.query((0, 10, 4)).result()
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ConnectionError)
        assert (info.value.host, info.value.port) == ("127.0.0.1", 1)

    def test_an_unreachable_server_fails_updates_typed(self):
        with Database("127.0.0.1:1") as db:
            with pytest.raises(ConnectionLost):
                db.insert_edges([(0, 1)])

    def test_server_side_rejections_stay_runtime_errors(self, graph, server):
        with Database(server.url) as db:
            with pytest.raises(RuntimeError, match="remote query failed") as info:
                db.query((0, graph.num_vertices + 5, 4)).result()
            assert not isinstance(info.value, ConnectionError)
            assert db.query((0, 10, 4)).result().count >= 0  # the connection survives
