"""Unit tests for edge-list reading and writing."""

from __future__ import annotations

import gzip

import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.io import parse_edge_lines, read_edge_list, write_edge_list


class TestParseEdgeLines:
    def test_skips_comments_and_blank_lines(self):
        lines = ["# header", "", "% other header", "// c-style", "1 2", "2 3"]
        parsed = list(parse_edge_lines(lines))
        assert [(p[0], p[1]) for p in parsed] == [("1", "2"), ("2", "3")]

    def test_comma_separated_values(self):
        parsed = list(parse_edge_lines(["a,b", "b,c"]))
        assert [(p[0], p[1]) for p in parsed] == [("a", "b"), ("b", "c")]

    def test_weighted_parsing(self):
        parsed = list(parse_edge_lines(["1 2 0.5"], weighted=True))
        assert parsed[0][2] == pytest.approx(0.5)

    def test_labeled_parsing(self):
        parsed = list(parse_edge_lines(["1 2 pays"], labeled=True))
        assert parsed[0][3] == "pays"

    def test_weighted_and_labeled(self):
        parsed = list(parse_edge_lines(["1 2 3.5 transfer"], weighted=True, labeled=True))
        assert parsed[0][2] == pytest.approx(3.5)
        assert parsed[0][3] == "transfer"

    def test_missing_column_raises(self):
        with pytest.raises(GraphError):
            list(parse_edge_lines(["only-one-token"]))
        with pytest.raises(GraphError):
            list(parse_edge_lines(["1 2"], weighted=True))

    def test_invalid_weight_raises(self):
        with pytest.raises(GraphError):
            list(parse_edge_lines(["1 2 notanumber"], weighted=True))


class TestReadWriteRoundTrip:
    def test_round_trip_plain(self, tmp_path):
        graph = from_edges([(0, 1), (1, 2), (2, 0), (0, 3)])
        path = tmp_path / "graph.txt"
        written = write_edge_list(graph, path, header="round trip test")
        assert written == graph.num_edges
        loaded = read_edge_list(path)

        def external_edges(g):
            return {(g.to_external(u), g.to_external(v)) for u, v in g.edges()}

        assert external_edges(loaded) == external_edges(graph)

    def test_round_trip_gzip(self, tmp_path):
        graph = from_edges([(0, 1), (1, 2)])
        path = tmp_path / "graph.txt.gz"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_edges == 2
        # The file really is gzip-compressed.
        with gzip.open(path, "rt") as handle:
            assert "0 1" in handle.read()

    def test_round_trip_with_weights_and_labels(self, tmp_path):
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_edge("x", "y", weight=2.5, label="wire")
        builder.add_edge("y", "z", weight=0.25, label="ach")
        path = tmp_path / "weighted.txt"
        write_edge_list(builder.build(), path, include_weights=True, include_labels=True)
        loaded = read_edge_list(path, weighted=True, labeled=True, as_int_ids=False)
        x, y = loaded.to_internal("x"), loaded.to_internal("y")
        assert loaded.edge_weight(x, y) == pytest.approx(2.5)
        assert loaded.edge_label(x, y) == "wire"

    def test_read_string_ids(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("# names\nalice bob\nbob carol\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 3
        assert graph.has_edge(graph.to_internal("alice"), graph.to_internal("bob"))

    def test_read_numeric_ids_are_compacted(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("1000 2000\n2000 3000\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 3
        assert graph.to_external(graph.to_internal(1000)) == 1000

    def test_read_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_self_loops_dropped_on_read(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("1 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 1


class TestNpzSnapshots:
    def test_round_trip_structure(self, tmp_path):
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import _load_npz as load_npz
        from repro.graph.io import _save_npz as save_npz

        graph = erdos_renyi(40, 3.0, seed=2)
        path = save_npz(graph, tmp_path / "graph.npz")
        loaded = load_npz(path)
        assert loaded.num_vertices == graph.num_vertices
        assert loaded.num_edges == graph.num_edges
        assert list(loaded.edges()) == list(graph.edges())

    def test_round_trip_attributes_and_ids(self, tmp_path):
        from repro.graph.builder import GraphBuilder
        from repro.graph.io import _load_npz as load_npz
        from repro.graph.io import _save_npz as save_npz

        builder = GraphBuilder()
        builder.add_edge("a", "b", weight=2.0, label="x")
        builder.add_edge("b", "c", weight=0.5, label=None)
        builder.add_edge("c", "a", weight=1.0, label="")
        graph = builder.build()
        path = save_npz(graph, tmp_path / "attrs.npz")
        loaded = load_npz(path)
        a, b = loaded.to_internal("a"), loaded.to_internal("b")
        assert loaded.edge_weight(a, b) == pytest.approx(2.0)
        assert loaded.edge_label(a, b) == "x"
        b, c = loaded.to_internal("b"), loaded.to_internal("c")
        assert loaded.edge_label(b, c, default=None) is None
        c, a = loaded.to_internal("c"), loaded.to_internal("a")
        assert loaded.edge_label(c, a) == ""

    def test_load_into_shared_memory_store(self, tmp_path):
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import _load_npz as load_npz
        from repro.graph.io import _save_npz as save_npz

        graph = erdos_renyi(30, 3.0, seed=4)
        path = save_npz(graph, tmp_path / "shared.npz")
        loaded = load_npz(path, store="shared_memory")
        try:
            assert loaded.store_backend == "shared_memory"
            assert list(loaded.edges()) == list(graph.edges())
            handle = loaded.share()
            from repro.graph.digraph import DiGraph

            twin = DiGraph.from_handle(handle)
            try:
                assert twin.num_edges == graph.num_edges
            finally:
                twin.close_store()
        finally:
            loaded.close_store(unlink=True)

    def test_exotic_vertex_ids_are_rejected(self, tmp_path):
        from repro.graph.builder import GraphBuilder
        from repro.graph.io import _save_npz as save_npz

        builder = GraphBuilder()
        builder.add_edge(("tuple", 1), ("tuple", 2))
        with pytest.raises(GraphError):
            save_npz(builder.build(), tmp_path / "bad.npz")
