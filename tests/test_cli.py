"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph.builder import GraphBuilder
from repro.graph.io import write_edge_list

from tests.helpers import PAPER_FIGURE1_EDGES


@pytest.fixture()
def edge_list_file(tmp_path):
    builder = GraphBuilder()
    builder.add_edges(PAPER_FIGURE1_EDGES)
    path = tmp_path / "paper.txt"
    write_edge_list(builder.build(), path)
    return path


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--source", "a", "--target", "b", "-k", "4"])

    def test_serve_requires_a_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--dataset", "ye"])
        assert args.port is None  # resolved to the protocol default later
        assert args.processes == 1
        assert args.threads == 2
        assert args.host == "127.0.0.1"

    def test_client_defaults(self):
        from repro.server.protocol import DEFAULT_PORT

        args = build_parser().parse_args(["client", "--dataset", "ye"])
        assert args.port == DEFAULT_PORT
        assert args.rate is None
        assert args.connections == 1


class TestQueryCommand:
    def test_query_on_edge_list(self, edge_list_file, capsys):
        exit_code = main(
            [
                "query",
                "--edge-list",
                str(edge_list_file),
                "--source",
                "s",
                "--target",
                "t",
                "-k",
                "4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "paths: 5" in output
        assert "s -> v0 -> t" in output

    def test_query_count_only(self, edge_list_file, capsys):
        exit_code = main(
            [
                "query",
                "--edge-list",
                str(edge_list_file),
                "--source",
                "s",
                "--target",
                "t",
                "-k",
                "4",
                "--count-only",
                "--algorithm",
                "BC-DFS",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "algorithm: BC-DFS" in output
        assert "paths: 5" in output
        assert "->" not in output.replace("q(s, t, 4)", "")

    def test_query_with_limit(self, edge_list_file, capsys):
        main(
            [
                "query",
                "--edge-list",
                str(edge_list_file),
                "--source",
                "s",
                "--target",
                "t",
                "-k",
                "4",
                "--limit",
                "2",
            ]
        )
        assert "paths: 2" in capsys.readouterr().out

    def test_query_on_named_dataset(self, capsys):
        # ye is small and dense, so vertex 0 -> 1 within 3 hops exists.
        exit_code = main(
            [
                "query",
                "--dataset",
                "ye",
                "--source",
                "0",
                "--target",
                "1",
                "-k",
                "3",
                "--count-only",
            ]
        )
        assert exit_code == 0
        assert "paths:" in capsys.readouterr().out


class TestOtherCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "Soc-Epinions1" in output
        assert "Twitter-mpi" in output


class TestBatchQueryCommand:
    def test_explicit_pairs_on_edge_list(self, edge_list_file, capsys):
        exit_code = main(
            [
                "batch-query",
                "--edge-list",
                str(edge_list_file),
                "--pair",
                "s,t",
                "--pair",
                "v0,t",
                "-k",
                "4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Batch of 2 queries" in output
        assert "reverse BFS runs: 1 for 2 queries" in output

    def test_generated_workload_on_dataset(self, capsys):
        exit_code = main(
            [
                "batch-query",
                "--dataset",
                "ye",
                "-k",
                "4",
                "--queries",
                "6",
                "--targets",
                "2",
                "--seed",
                "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Batch of 6 queries" in output
        assert "cache hit rate" in output

    def test_malformed_pair_is_an_error(self, edge_list_file, capsys):
        exit_code = main(
            [
                "batch-query",
                "--edge-list",
                str(edge_list_file),
                "--pair",
                "no-comma",
                "-k",
                "4",
            ]
        )
        assert exit_code == 2
        assert "invalid --pair" in capsys.readouterr().err

    def test_workers_flag_parses(self):
        args = build_parser().parse_args(
            ["batch-query", "--dataset", "ye", "-k", "3", "--workers", "4"]
        )
        assert args.workers == 4


class TestInfoCommand:
    def test_info_on_dataset(self, capsys):
        exit_code = main(["info", "ye"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "DiGraph(" in output
        assert "backend='heap'" in output
        assert "out_indices" in output
        assert "total" in output

    def test_info_on_edge_list(self, edge_list_file, capsys):
        exit_code = main(["info", str(edge_list_file)])
        assert exit_code == 0
        assert "DiGraph(" in capsys.readouterr().out

    def test_info_rejects_unknown_graph(self, capsys):
        exit_code = main(["info", "no-such-graph"])
        assert exit_code == 2
        assert "unknown graph" in capsys.readouterr().err


class TestProcessFlags:
    def test_batch_query_processes(self, capsys):
        exit_code = main(
            [
                "batch-query", "--dataset", "ye", "-k", "3",
                "--queries", "6", "--targets", "2", "--seed", "1",
                "--processes", "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "reverse BFS runs: 2" in output

    def test_workers_and_processes_are_exclusive(self, capsys):
        exit_code = main(
            [
                "batch-query", "--dataset", "ye", "-k", "3",
                "--workers", "2", "--processes", "2",
            ]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err
