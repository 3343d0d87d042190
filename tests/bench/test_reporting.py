"""Unit tests for the table rendering shared by the CLI and the driver's series."""

from __future__ import annotations

from paper import format_series

from repro.cli import format_latency_summary, format_table, format_value, latency_summary


class TestFormatValue:
    def test_scientific_float(self):
        assert format_value(0.228) == "2.28e-01"

    def test_plain_float(self):
        assert format_value(0.228, scientific=False) == "0.228"

    def test_none_and_bool(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_integers_and_strings_pass_through(self):
        assert format_value(42) == "42"
        assert format_value("IDX-DFS") == "IDX-DFS"


class TestFormatTable:
    def test_columns_inferred_from_first_row(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": None}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "2.50e+00" in text
        assert "-" in lines[-1]

    def test_title_and_explicit_columns(self):
        text = format_table([{"x": 1, "y": 2}], columns=["y"], title="Table 3")
        assert text.startswith("Table 3")
        assert "x" not in text.splitlines()[1]

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="Nothing")

    def test_alignment_is_consistent(self):
        rows = [{"name": "a", "value": 1}, {"name": "longer-name", "value": 22}]
        lines = format_table(rows).splitlines()
        assert len({len(line) for line in lines[1:]}) <= 2  # header sep + rows align


class TestFormatSeries:
    def test_series_by_k(self):
        series = {
            "BC-DFS": {3: 1.0, 4: 10.0},
            "IDX-DFS": {3: 0.5, 4: 2.0},
        }
        text = format_series(series, title="Figure 13")
        lines = text.splitlines()
        assert lines[0] == "Figure 13"
        assert lines[1].split() == ["k", "BC-DFS", "IDX-DFS"]
        assert len(lines) == 2 + 1 + 2  # title + header + separator + two rows

    def test_missing_points_rendered_as_dash(self):
        series = {"A": {3: 1.0}, "B": {4: 2.0}}
        text = format_series(series)
        assert "-" in text

    def test_empty_series(self):
        assert "(no rows)" in format_series({}, title="Nothing")


class TestLatencySummaryRendering:
    def test_renders_summary_keys_in_order(self):
        summary = latency_summary([1.0, 2.0, 3.0, 10.0])
        rendered = format_latency_summary(summary, title="Latency (ms)")
        lines = rendered.splitlines()
        assert lines[0] == "Latency (ms)"
        header = lines[1].split()
        assert header == ["count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p99_9_ms", "max_ms"]
        assert "10.000" in rendered  # plain (non-scientific) by default

