"""Live updates under serving traffic: MVCC epoch pinning end to end.

A reader that started on epoch N must drain results computed on epoch N even
while epoch N+1 publishes mid-flight; the next batch must see N+1.  A worker
holding a retired epoch's handle must fail loudly rather than serve stale
data.  The server's ``update`` frame must behave exactly like a local
``Database`` replaying the same batch.
"""

from __future__ import annotations

import asyncio
import os
import random

import pytest

from repro.api import Database, Q
from repro.core.engine import ExecutorCore
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.live import Epoch, LiveGraph
from repro.server.client import QueryClient, open_loop_load
from repro.server.server import QueryServer
from repro.server.service import QueryService


@pytest.fixture(scope="module")
def base_graph():
    return erdos_renyi(150, 4.0, seed=11)


def _specs(graph, count=10, k=4, seed=9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = rng.randrange(graph.num_vertices)
        t = rng.randrange(graph.num_vertices)
        if s != t:
            out.append(Q(s, t, k))
    return out


def _batch(graph, seed=21, count=6):
    """A batch of insertable (absent) edges."""
    rng = random.Random(seed)
    add = []
    while len(add) < count:
        u = rng.randrange(graph.num_vertices)
        v = rng.randrange(graph.num_vertices)
        if u != v and not graph.has_edge(u, v) and (u, v) not in add:
            add.append((u, v))
    return add


def _result_key(result):
    return (result.source, result.target, result.k, result.count, result.paths)


# CI runs the suite once per backend (REPRO_LIVE_BACKENDS=threads / processes);
# locally both run in one invocation.
_BACKENDS = [
    backend
    for backend in ("threads", "processes")
    if backend in os.environ.get("REPRO_LIVE_BACKENDS", "threads,processes")
]


class TestMidFlightMutation:
    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_pinned_reader_drains_old_epoch_next_batch_sees_new(
        self, base_graph, backend
    ):
        specs = _specs(base_graph)
        add = _batch(base_graph)

        with Database(base_graph) as reference:
            old_expected = [_result_key(r) for r in reference.batch(specs).results()]
        with Database(base_graph) as reference:
            reference.insert_edges(add)
            new_expected = [_result_key(r) for r in reference.batch(specs).results()]
        assert old_expected != new_expected  # the batch must be observable

        with Database(base_graph, backend=backend, workers=2) as database:
            stream = iter(database.batch(specs))
            drained = [_result_key(next(stream))]
            # Publish epoch 1 while the epoch-0 reader is mid-flight.
            info = database.insert_edges(add)
            assert info["epoch"] == 1
            assert info["added"] == len(add)
            drained.extend(_result_key(r) for r in stream)
            assert drained == old_expected

            after = [_result_key(r) for r in database.batch(specs).results()]
            assert after == new_expected

    def test_core_holds_each_epoch_until_its_graph_is_swapped_out(
        self, base_graph, monkeypatch
    ):
        # LiveGraph.apply retires the previous epoch before the core swaps
        # its graph pointer, and a run starting in between warms distances
        # on that graph: the core's own reference must keep its shared
        # segment mapped until the swap.
        refs_after_apply = []
        real_apply = LiveGraph.apply

        def apply(live, *args, **kwargs):
            previous = live.epoch
            info = real_apply(live, *args, **kwargs)
            refs_after_apply.append(previous.refs)
            return info

        monkeypatch.setattr(LiveGraph, "apply", apply)
        add = _batch(base_graph)
        with ExecutorCore(base_graph, backend="process", workers=2) as core:
            for edge in add[:3]:
                core.mutate(add=[edge])
        # Epoch 0 is the caller's own graph; every later one was still held.
        assert len(refs_after_apply) == 3
        assert all(refs > 0 for refs in refs_after_apply[1:])

    def test_epoch_counters_advance(self, base_graph):
        add = _batch(base_graph)
        with Database(base_graph, backend="threads", workers=2) as database:
            first = database.insert_edges(add[:3])
            second = database.remove_edges(add[:3])
            assert (first["epoch"], second["epoch"]) == (1, 2)
            stats = second["stats"]
            assert stats["epochs_published"] == 2
            assert stats["updates_applied"] == 6


class TestRetiredEpochHandle:
    def test_stale_worker_cannot_attach_retired_epoch(self, base_graph):
        add = _batch(base_graph)
        live = LiveGraph(base_graph, store="shared_memory")
        try:
            live.apply(add=add[:2])
            pin = live.pin()
            handle = live.epoch.handle()
            assert handle is not None

            # Epoch 1 retires when epoch 2 publishes, but the pinned reader
            # keeps the segment mapped: attaching still works.
            live.apply(add=add[2:4])
            attached = handle.attach()
            assert attached.num_edges == base_graph.num_edges + 2
            attached.close_store()

            # Once the last reader drains, the segment is released and a
            # stale worker holding the old handle must fail, not serve.
            pin.release()
            with pytest.raises(GraphError):
                handle.attach()
        finally:
            live.close()


class TestEpochRefcount:
    def test_pin_on_a_drained_epoch_raises(self):
        epoch = Epoch(3, erdos_renyi(20, 2.0, seed=1))
        epoch.pin().release()
        epoch.retire()
        assert epoch.refs == 0
        with pytest.raises(GraphError, match="drained"):
            epoch.pin()
        assert epoch.refs == 0

    def test_store_lives_until_the_last_of_two_pins_is_released(self):
        graph = erdos_renyi(40, 3.0, seed=2)
        handle = graph.share()
        epoch = Epoch(1, graph, owns_store=True)
        first, second = epoch.pin(), epoch.pin()
        epoch.retire()
        first.release()
        # One reader is still pinned: a late attach (broken-pool recovery)
        # must still map the segment.
        attached = DiGraph.from_handle(handle)
        assert attached.num_edges == graph.num_edges
        attached.close_store()
        second.release()
        assert epoch.refs == 0
        with pytest.raises(GraphError):
            DiGraph.from_handle(handle)


class TestServerUpdateFrame:
    def _serve(self, graph, scenario, **service_kwargs):
        async def runner():
            service = QueryService(graph, **service_kwargs)
            server = QueryServer(service, port=0)
            await server.start()
            try:
                client = await QueryClient.connect(port=server.port)
                async with client:
                    return await scenario(client, server)
            finally:
                await server.close()
                await service.close()

        return asyncio.run(runner())

    def test_update_frame_matches_local_database(self, base_graph):
        specs = _specs(base_graph)
        add = _batch(base_graph)
        remove = sorted(base_graph.edges())[:3]

        with Database(base_graph) as reference:
            reference.insert_edges(add)
            reference.remove_edges(remove)
            expected = [_result_key(r) for r in reference.batch(specs).results()]

        async def scenario(client, server):
            first = await client.update(add=[list(e) for e in add])
            second = await client.update(remove=[list(e) for e in remove])
            stats = await client.stats()
            outcome = await client.run([list(q.spec().triple) for q in specs])
            return first, second, stats, outcome

        first, second, stats, outcome = self._serve(base_graph, scenario, threads=2)
        assert first["type"] == "updated"
        assert (first["epoch"], first["added"]) == (1, len(add))
        assert (second["epoch"], second["removed"]) == (2, len(remove))
        assert stats["current_epoch"] == 2
        assert stats["epochs_published"] == 2
        assert outcome.status == "done"
        actual = [
            (r.source, r.target, r.k, r.count, r.paths) for r in outcome.results
        ]
        assert actual == expected

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_open_loop_reads_complete_while_updates_publish(self, base_graph, backend):
        # Reads arrive on their own schedule while a writer removes and
        # re-inserts edges: no read may stall, be shed or fail, and each one
        # must equal the inline answer on some graph the writer published.
        specs = _specs(base_graph, count=24)
        triples = [list(q.spec().triple) for q in specs]
        arrivals = [0.02 * i for i in range(len(triples))]
        edges = random.Random(5).sample(sorted(base_graph.edges()), 3)

        answers = [[] for _ in specs]
        with Database(base_graph) as reference:
            for edge in (None, *edges):
                if edge is not None:
                    reference.remove_edges([edge])
                for i, result in enumerate(reference.batch(specs).results()):
                    answers[i].append(_result_key(result))
                if edge is not None:
                    reference.insert_edges([edge])

        async def writer(client):
            for edge in edges:
                for change in ({"remove": [list(edge)]}, {"add": [list(edge)]}):
                    await asyncio.sleep(0.05)
                    last = await client.update(**change)
            return last

        async def scenario(client, server):
            reads = open_loop_load(
                triples, arrivals, port=server.port, connections=2,
                store_paths=True, rng=random.Random(3), keep_outcomes=True,
            )
            return await asyncio.gather(reads, writer(client))

        workers = {"processes": 2} if backend == "processes" else {"threads": 2}
        report, last = self._serve(base_graph, scenario, **workers)
        assert last["epoch"] == 2 * len(edges)
        assert report.errors == 0
        assert report.shed == 0
        assert report.completed == len(triples)
        for index, outcome in report.outcomes:
            (result,) = outcome.results
            assert _result_key(result) in answers[index], index

    def test_malformed_update_frame_reports_error(self, base_graph):
        async def scenario(client, server):
            writer = client._writer
            from repro.server.protocol import write_frame

            await write_frame(
                writer, {"type": "update", "id": 7, "add": [[0, 1, 2]]}
            )
            frame = await client._control.get()
            return frame

        frame = self._serve(base_graph, scenario, threads=1)
        assert frame["type"] == "error"
        assert frame.get("id") == 7
