"""Property tests for the snapshot file format and its storage backends.

Every storage backend must be observationally identical to the heap CSR
graph: byte-identical neighbour lists and degrees (forward and transpose),
identical reverse-BFS distances, and byte-identical enumeration payloads.
On top of equivalence, the suite pins the operational contract: mapped
views are read-only, handles attach across processes, close is idempotent
and fd-clean, and corrupt files fail loudly.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct

import numpy as np
import pytest

from repro.api import Database
from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.snapshot import (
    SNAPSHOT_MAGIC,
    load_snapshot,
    read_snapshot_header,
    save_snapshot,
    snapshot_codec,
    write_snapshot,
)
from repro.graph.store import CompressedStore, MmapStore
from repro.graph.traversal import bfs_distances

from tests.helpers import UNCONSTRAINED_TIERS, shared_memory_names

#: Every load_snapshot store choice that must be equivalent to the heap.
STORES = ("mmap", "compressed", "heap", "shared_memory")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 8.0, seed=13)


@pytest.fixture(scope="module")
def raw_path(graph, tmp_path_factory):
    return save_snapshot(graph, tmp_path_factory.mktemp("snap") / "graph.rsnap")


@pytest.fixture(scope="module")
def compressed_path(graph, tmp_path_factory):
    return save_snapshot(
        graph, tmp_path_factory.mktemp("snap") / "graph.crsnap", codec="compressed"
    )


def _open_variant(store, raw_path, compressed_path):
    # Compressed loads come from the compressed file; everything else from raw.
    return load_snapshot(compressed_path if store == "compressed" else raw_path, store=store)


class TestFileFormat:
    def test_header_layout(self, raw_path, graph):
        header = read_snapshot_header(raw_path)
        assert header["codec"] == "raw"
        assert header["meta"]["num_vertices"] == graph.num_vertices
        for spec in header["arrays"].values():
            assert spec["offset"] % 4096 == 0

    def test_codec_sniffing(self, raw_path, compressed_path):
        assert snapshot_codec(raw_path) == "raw"
        assert snapshot_codec(compressed_path) == "compressed"

    def test_magic_prefix(self, raw_path):
        assert raw_path.read_bytes()[:8] == SNAPSHOT_MAGIC

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "not_a_snapshot.rsnap"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(GraphError, match="bad magic"):
            load_snapshot(path)

    def test_corrupt_header_is_rejected(self, tmp_path):
        path = tmp_path / "corrupt.rsnap"
        path.write_bytes(SNAPSHOT_MAGIC + struct.pack("<Q", 10) + b"\xff" * 10)
        with pytest.raises(GraphError, match="corrupt snapshot header"):
            load_snapshot(path)

    def test_codec_mismatch_is_rejected(self, raw_path, compressed_path):
        with pytest.raises(GraphError, match="codec"):
            MmapStore.open(compressed_path)
        with pytest.raises(GraphError, match="codec"):
            CompressedStore.open(raw_path)

    def test_unknown_codec_and_store_are_rejected(self, graph, raw_path, tmp_path):
        with pytest.raises(GraphError, match="unknown snapshot codec"):
            save_snapshot(graph, tmp_path / "bad.rsnap", codec="zstd")
        with pytest.raises(GraphError, match="unknown snapshot store"):
            load_snapshot(raw_path, store="tape")

    def test_exotic_vertex_ids_are_rejected(self, tmp_path):
        builder = GraphBuilder()
        builder.add_edge(("tuple", 1), ("tuple", 2))
        with pytest.raises(GraphError, match="vertex ids"):
            save_snapshot(builder.build(), tmp_path / "bad.rsnap")

    def test_empty_meta_write_read(self, tmp_path):
        path = write_snapshot(tmp_path / "arrays.rsnap", {"x": np.arange(10)})
        header = read_snapshot_header(path)
        assert header["meta"] == {}
        assert header["arrays"]["x"]["shape"] == [10]

    @pytest.mark.parametrize("codec", ("raw", "compressed"))
    def test_vertex_ids_live_in_arrays_not_header(self, codec, tmp_path):
        # The JSON header must stay O(1): ids go into data arrays, the
        # header only records how they are encoded.
        builder = GraphBuilder()
        for u, v in ((10, 20), (20, 30), (30, 10)):
            builder.add_edge(u, v)
        int_graph = builder.build()
        path = save_snapshot(int_graph, tmp_path / f"ids.{codec}.rsnap", codec=codec)
        header = read_snapshot_header(path)
        assert "vertex_ids" not in header["meta"]
        assert header["meta"]["vertex_ids_kind"] == "int"
        assert "vertex_ids" in header["arrays"]
        loaded = load_snapshot(path)
        try:
            assert [loaded.to_external(v) for v in loaded.vertices()] == [10, 20, 30]
            assert loaded.to_internal(30) == 2
        finally:
            loaded.close_store()

    @pytest.mark.parametrize("codec", ("raw", "compressed"))
    def test_string_vertex_ids_round_trip_as_arrays(self, codec, tmp_path):
        builder = GraphBuilder()
        ids = ["alpha", "", "βeta", "x" * 300]
        for u, v in zip(ids, ids[1:] + ids[:1]):
            builder.add_edge(u, v)
        original = builder.build()
        path = save_snapshot(original, tmp_path / f"sids.{codec}.rsnap", codec=codec)
        header = read_snapshot_header(path)
        assert "vertex_ids" not in header["meta"]
        assert header["meta"]["vertex_ids_kind"] == "str"
        assert "vertex_id_offsets" in header["arrays"]
        assert "vertex_id_bytes" in header["arrays"]
        loaded = load_snapshot(path)
        try:
            original_ids = [original.to_external(v) for v in original.vertices()]
            assert [loaded.to_external(v) for v in loaded.vertices()] == original_ids
            assert loaded.to_internal("βeta") == original.to_internal("βeta")
        finally:
            loaded.close_store()

    def test_legacy_header_vertex_ids_still_load(self, tmp_path):
        # Snapshots from before the id arrays existed carry the ids inline
        # in the JSON header; they must keep loading unchanged.
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        path = write_snapshot(
            tmp_path / "legacy.rsnap",
            {
                "out_indptr": indptr,
                "out_indices": indices,
                "in_indptr": indptr,
                "in_indices": indices,
            },
            {"num_vertices": 2, "vertex_ids": ["north", "south"]},
        )
        loaded = load_snapshot(path)
        try:
            assert loaded.to_external(0) == "north"
            assert loaded.to_internal("south") == 1
        finally:
            loaded.close_store()


class TestCorruptAttach:
    def _write(self, tmp_path, arrays, num_vertices):
        return write_snapshot(
            tmp_path / "corrupt.rsnap", arrays, {"num_vertices": num_vertices}
        )

    def test_truncated_indices_rejected(self, tmp_path):
        # indptr promises more edges than the indices array holds.
        indptr = np.array([0, 2, 4], dtype=np.int64)
        path = self._write(
            tmp_path,
            {
                "out_indptr": indptr,
                "out_indices": np.array([1, 0, 1], dtype=np.int64),
                "in_indptr": indptr,
                "in_indices": np.array([1, 0, 1], dtype=np.int64),
            },
            2,
        )
        with pytest.raises(GraphError, match="corrupt graph store"):
            load_snapshot(path)

    def test_non_monotone_indptr_rejected(self, tmp_path):
        indices = np.array([1, 0], dtype=np.int64)
        path = self._write(
            tmp_path,
            {
                "out_indptr": np.array([0, 2, 2], dtype=np.int64),
                "out_indices": indices,
                "in_indptr": np.array([0, 3, 2], dtype=np.int64),
                "in_indices": indices,
            },
            2,
        )
        with pytest.raises(GraphError, match="monotone"):
            load_snapshot(path)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        path = self._write(
            tmp_path,
            {
                "out_indptr": indptr,
                "out_indices": indices,
                "in_indptr": indptr,
                "in_indices": indices,
            },
            5,
        )
        with pytest.raises(GraphError, match="vertex count"):
            load_snapshot(path)


class TestEquivalence:
    @pytest.mark.parametrize("store", STORES)
    def test_neighbour_lists_and_degrees(self, store, graph, raw_path, compressed_path):
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            assert loaded.num_vertices == graph.num_vertices
            assert loaded.num_edges == graph.num_edges
            assert np.array_equal(loaded.out_degrees(), graph.out_degrees())
            assert np.array_equal(loaded.in_degrees(), graph.in_degrees())
            for v in range(graph.num_vertices):
                assert np.array_equal(loaded.neighbors(v), graph.neighbors(v))
                assert np.array_equal(loaded.in_neighbors(v), graph.in_neighbors(v))
        finally:
            loaded.close_store(unlink=True)

    @pytest.mark.parametrize("store", STORES)
    def test_transpose_view_matches(self, store, graph, raw_path, compressed_path):
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            view = loaded.reverse_view()
            assert view.num_edges == graph.num_edges
            for v in range(0, graph.num_vertices, 7):
                assert np.array_equal(view.neighbors(v), graph.in_neighbors(v))
                assert np.array_equal(view.in_neighbors(v), graph.neighbors(v))
            # The view is cached and swaps back to the original.
            assert loaded.reverse_view() is view
            assert view.reverse_view() is loaded
        finally:
            loaded.close_store(unlink=True)

    @pytest.mark.parametrize("store", STORES)
    def test_reverse_bfs_distances_match(self, store, graph, raw_path, compressed_path):
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            for target in (0, 17, 123):
                expected = bfs_distances(graph, target, reverse=True)
                assert np.array_equal(bfs_distances(loaded, target, reverse=True), expected)
                # Forward BFS on the transpose view is the same computation.
                assert np.array_equal(
                    bfs_distances(loaded.reverse_view(), target), expected
                )
        finally:
            loaded.close_store(unlink=True)

    def test_attributes_round_trip(self, tmp_path):
        builder = GraphBuilder()
        builder.add_edge("a", "b", weight=2.0, label="x")
        builder.add_edge("b", "c", weight=0.5, label=None)
        builder.add_edge("c", "a", weight=1.0, label="")
        original = builder.build()
        for codec in ("raw", "compressed"):
            path = save_snapshot(original, tmp_path / f"attrs.{codec}.rsnap", codec=codec)
            loaded = load_snapshot(path)
            try:
                a, b = loaded.to_internal("a"), loaded.to_internal("b")
                assert loaded.edge_weight(a, b) == pytest.approx(2.0)
                assert loaded.edge_label(a, b) == "x"
                b, c = loaded.to_internal("b"), loaded.to_internal("c")
                assert loaded.edge_label(b, c, default=None) is None
            finally:
                loaded.close_store()

    def test_compressed_from_raw_matches(self, graph, raw_path):
        loaded = load_snapshot(raw_path, store="compressed")
        try:
            assert loaded.store_backend == "compressed"
            for v in range(0, graph.num_vertices, 11):
                assert np.array_equal(loaded.neighbors(v), graph.neighbors(v))
        finally:
            loaded.close_store()


class TestEnumerationPayloads:
    @pytest.mark.parametrize("store", STORES)
    def test_payloads_byte_identical(self, store, graph, raw_path, compressed_path):
        queries = [(0, 25, 4), (3, 200, 5), (17, 40, 3)]
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            for tier, pinned in UNCONSTRAINED_TIERS.items():
                with pinned(), Database(graph) as db:
                    reference = db.batch(queries).payload_bytes()
                with pinned(), Database(loaded) as db:
                    payload = db.batch(queries).payload_bytes()
                assert payload == reference, tier
        finally:
            loaded.close_store(unlink=True)

    @pytest.mark.parametrize("store", ("mmap", "compressed"))
    def test_threaded_backend_payloads_match(self, store, graph, raw_path, compressed_path):
        # `repro serve --snapshot <file> --threads N` runs several worker
        # threads over one mapped graph object; with the compressed store
        # that hammers the shared single-slot decode cache, so the threaded
        # payload must stay byte-identical to the inline heap reference.
        queries = [(0, 25, 4), (3, 200, 5), (17, 40, 3), (42, 7, 4), (99, 150, 5)]
        with Database(graph) as db:
            reference = db.batch(queries).payload()
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            with Database(loaded, backend="threads", workers=4) as db:
                for _ in range(3):
                    assert db.batch(queries).payload() == reference
        finally:
            loaded.close_store()

    @pytest.mark.parametrize("store", STORES)
    def test_interrupted_payloads_match(self, store, graph, raw_path, compressed_path):
        # limit and an already-expired deadline interrupt deterministically.
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            for tier, pinned in UNCONSTRAINED_TIERS.items():
                for options in ({"limit": 5}, {"deadline": 0.0}):
                    with pinned(), Database(graph) as db:
                        reference = db.query((0, 25, 4), **options).result()
                    with pinned(), Database(loaded) as db:
                        result = db.query((0, 25, 4), **options).result()
                    assert result.count == reference.count, (tier, options)
                    assert result.paths == reference.paths, (tier, options)
        finally:
            loaded.close_store(unlink=True)


class TestReadOnly:
    def test_mmap_views_reject_writes(self, raw_path):
        loaded = load_snapshot(raw_path, store="mmap")
        try:
            indptr, indices = loaded.out_csr()
            with pytest.raises(ValueError):
                indices[0] = 99
            with pytest.raises(ValueError):
                indptr[0] = 99
        finally:
            loaded.close_store()

    def test_compressed_flat_views_reject_writes(self, compressed_path):
        loaded = load_snapshot(compressed_path)
        try:
            indptr, _ = loaded.out_csr()
            with pytest.raises(ValueError):
                indptr[0] = 99
        finally:
            loaded.close_store()


def _attach_and_probe(payload, vertex, queue):
    handle = pickle.loads(payload)
    twin = DiGraph.from_handle(handle)
    try:
        neighbours = twin.neighbors(vertex)
        writable = neighbours.flags.writeable if hasattr(neighbours, "flags") else False
        queue.put((list(map(int, neighbours)), int(twin.num_edges), writable))
    finally:
        twin.close_store()


class TestCrossProcess:
    @pytest.mark.parametrize("store", ("mmap", "compressed"))
    def test_concurrent_attach(self, store, graph, raw_path, compressed_path):
        loaded = _open_variant(store, raw_path, compressed_path)
        try:
            payload = pickle.dumps(loaded.share())
            ctx = multiprocessing.get_context()
            queue = ctx.Queue()
            vertex = 5
            workers = [
                ctx.Process(target=_attach_and_probe, args=(payload, vertex, queue))
                for _ in range(3)
            ]
            for worker in workers:
                worker.start()
            results = [queue.get(timeout=30) for _ in workers]
            for worker in workers:
                worker.join(timeout=30)
                assert worker.exitcode == 0
            expected = list(map(int, graph.neighbors(vertex)))
            for neighbours, num_edges, writable in results:
                assert neighbours == expected
                assert num_edges == graph.num_edges
                assert not writable
        finally:
            loaded.close_store()

    def test_handle_survives_pickle_locally(self, raw_path):
        loaded = load_snapshot(raw_path)
        try:
            handle = pickle.loads(pickle.dumps(loaded.share()))
            twin = DiGraph.from_handle(handle)
            try:
                assert twin.num_edges == loaded.num_edges
            finally:
                twin.close_store()
        finally:
            loaded.close_store()


class TestLifecycle:
    @pytest.mark.parametrize("store", ("mmap", "compressed"))
    def test_close_is_idempotent(self, store, raw_path, compressed_path):
        loaded = _open_variant(store, raw_path, compressed_path)
        loaded.close_store()
        loaded.close_store()

    def test_attach_holds_no_fd(self, raw_path):
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc")
        before = len(os.listdir(fd_dir))
        loaded = load_snapshot(raw_path)
        open_delta = len(os.listdir(fd_dir)) - before
        loaded.close_store()
        del loaded
        after = len(os.listdir(fd_dir))
        # The opening fd is closed immediately; only the mapping's internal
        # dup remains while attached, and close releases it.
        assert open_delta <= 1
        assert after == before

    def test_database_owns_and_closes_file_stores(self, raw_path):
        db = Database(str(raw_path))
        graph = db.graph
        assert graph.store_backend == "mmap"
        db.close()
        # The database opened the store, so closing the database closed it.
        assert graph._store._closed
        # A caller-supplied graph is NOT closed with the database.
        supplied = load_snapshot(raw_path)
        try:
            with Database(supplied):
                pass
            assert not supplied._store._closed
            assert supplied.num_edges > 0
        finally:
            supplied.close_store()

    def test_database_unlinks_the_shared_segment_it_loaded(self, raw_path):
        db = Database(str(raw_path), store="shared_memory")
        store = db.graph._store
        assert store.is_owner
        db.close()
        assert store.is_unlinked
        assert store.segment_name not in shared_memory_names()

    def test_compressed_snapshot_at_most_0_6x_raw(self, tmp_path):
        # The gap/varint codec pays off once rows are long enough to
        # amortise its per-block anchors; at average out-degree 12 the
        # compressed file is under half the raw one.
        dense = erdos_renyi(2000, 12.0, seed=11)
        raw = save_snapshot(dense, tmp_path / "dense.rsnap")
        packed = save_snapshot(dense, tmp_path / "dense.crsnap", codec="compressed")
        assert packed.stat().st_size <= 0.6 * raw.stat().st_size

    def test_memory_usage_reports_mapping(self, graph, raw_path, compressed_path):
        mapped = load_snapshot(raw_path)
        try:
            usage = mapped.memory_usage()
            assert usage["backend"] == "mmap"
            assert usage["resident_bytes"] == 0
            assert usage["mapped_bytes"] == usage["total_bytes"] > 0
        finally:
            mapped.close_store()
        packed = load_snapshot(compressed_path)
        try:
            usage = packed.memory_usage()
            assert usage["backend"] == "compressed"
            assert usage["logical_bytes"] > usage["total_bytes"]
            assert usage["compression_ratio"] < 1.0
        finally:
            packed.close_store()
        assert graph.memory_usage()["resident_bytes"] == graph.memory_usage()["total_bytes"]


class TestCorruptNeighbourIds:
    """A mapped snapshot with one bad neighbour id attaches (the attach
    checks are O(|V|)), but the first query that reads it raises a typed
    error on the compiled and on the NumPy sweep alike."""

    @pytest.mark.parametrize("tier", ("compiled", "numpy"))
    @pytest.mark.parametrize("direction", ("out", "in"))
    def test_query_over_a_corrupt_id_raises_graph_error(self, tier, direction, tmp_path, monkeypatch):
        from repro import _clib
        from repro.graph.snapshot import map_snapshot

        if tier == "compiled" and not _clib.jit_ready():
            pytest.skip("compiled C library not loaded")
        if tier == "numpy":
            monkeypatch.setitem(_clib._LIB, "checked", True)
            monkeypatch.setitem(_clib._LIB, "lib", None)
        graph = erdos_renyi(60, 4.0, seed=3)
        n = graph.num_vertices
        s = next(v for v in range(n) if graph.out_degree(v))
        t = next(v for v in range(n) if v != s and graph.in_degree(v))
        path = save_snapshot(graph, tmp_path / "graph.rsnap")
        header, mapping = map_snapshot(path)
        mapping.close()
        if direction == "out":
            position, value = int(graph.out_csr()[0][s]), n + 5
        else:
            position, value = int(graph.in_csr()[0][t]), -1
        offset = header["arrays"][f"{direction}_indices"]["offset"] + 8 * position
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(struct.pack("<q", value))
        loaded = load_snapshot(path, store="mmap")
        try:
            with pytest.raises(GraphError, match="corrupt graph store"):
                with Database(loaded) as db:
                    db.query((s, t, 3)).results()
        finally:
            loaded.close_store()
