"""Stream/selectivity analysis reports + the analyze CLI."""

import pytest

from repro.analysis import analyze_selectivity, analyze_stream
from repro.cli import main
from repro.io.csv_stream import write_stream

from .conftest import fig3_stream, fig5_query


class TestStreamReport:
    def test_basic_statistics(self):
        report = analyze_stream(fig3_stream())
        assert report.num_edges == 10
        assert report.num_vertices == 9
        assert report.timespan == 9.0
        assert 0 < report.head_concentration() <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze_stream([])

    def test_render(self):
        text = analyze_stream(fig3_stream()).render()
        assert "edges:" in text and "10" in text
        assert "most common term labels" in text

    def test_wikitalk_skew_visible(self):
        """Small-alphabet streams show the head concentration clearly (for
        netflow the random source port makes full term labels near-unique,
        so port-level skew is asserted in the dataset tests instead)."""
        from repro.datasets import generate_wikitalk_stream
        report = analyze_stream(list(generate_wikitalk_stream(2000, seed=9)))
        assert report.head_concentration(20) > 0.3


class TestSelectivityReport:
    def test_probabilities_and_estimates(self):
        report = analyze_selectivity(fig5_query(), fig3_stream(),
                                     window_edges=9)
        assert report.edge_probabilities[1] == pytest.approx(0.2)
        assert len(report.subquery_estimates) == 3
        assert report.dead_edges == []

    def test_dead_edge_detection(self):
        from repro import QueryGraph
        q = QueryGraph()
        q.add_vertex("x", "zz")       # label absent from the stream
        q.add_vertex("y", "b")
        q.add_edge("dead", "x", "y")
        report = analyze_selectivity(q, fig3_stream(), window_edges=9)
        assert report.dead_edges == ["dead"]
        assert "never matches" in report.render()

    def test_render(self):
        text = analyze_selectivity(fig5_query(), fig3_stream(),
                                   window_edges=9).render()
        assert "per-edge match probability" in text
        assert "cardinalities" in text


class TestAnalyzeCLI:
    def test_analyze_stream_only(self, tmp_path, capsys):
        path = str(tmp_path / "s.csv")
        write_stream(fig3_stream(), path)
        assert main(["analyze", path]) == 0
        assert "Stream report" in capsys.readouterr().out

    def test_analyze_with_query(self, tmp_path, capsys):
        stream_path = str(tmp_path / "s.csv")
        write_stream(fig3_stream(), stream_path)
        query_path = tmp_path / "q.tq"
        query_path.write_text(
            "vertex x a\nvertex y b\nedge e x -> y\nwindow 9\n")
        assert main(["analyze", stream_path, "--query", str(query_path)]) == 0
        out = capsys.readouterr().out
        assert "Selectivity report" in out

    def test_analyze_warns_on_dead_edges(self, tmp_path, capsys):
        stream_path = str(tmp_path / "s.csv")
        write_stream(fig3_stream(), stream_path)
        query_path = tmp_path / "q.tq"
        query_path.write_text(
            "vertex x zz\nvertex y b\nedge e x -> y\nwindow 9\n")
        assert main(["analyze", stream_path, "--query", str(query_path)]) == 0
        captured = capsys.readouterr()
        assert "never match" in captured.err


class TestSimulateCLI:
    def test_simulate_prints_speedups(self, tmp_path, capsys):
        stream_path = str(tmp_path / "s.csv")
        write_stream(fig3_stream(), stream_path)
        query_path = tmp_path / "q.tq"
        query_path.write_text(
            "vertex x a\nvertex y b\nvertex z c\n"
            "edge e1 x -> y\nedge e2 y -> z\nwindow 9\n")
        assert main(["simulate", str(query_path), stream_path,
                     "--threads", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "fine-grained" in out and "all-locks" in out

    def test_simulate_stateless_plan_has_no_transactions(self, tmp_path,
                                                         capsys):
        """A one-edge query keeps no expansion list, so there is no item
        to lock and nothing to simulate — said so, not a crash."""
        stream_path = str(tmp_path / "s.csv")
        write_stream(fig3_stream(), stream_path)
        query_path = tmp_path / "q.tq"
        query_path.write_text(
            "vertex x a\nvertex y b\nedge e x -> y\nwindow 9\n")
        assert main(["simulate", str(query_path), stream_path]) == 0
        assert "stateless" in capsys.readouterr().out

    def test_simulate_empty_traces(self, tmp_path, capsys):
        stream_path = str(tmp_path / "s.csv")
        write_stream(fig3_stream(), stream_path)
        query_path = tmp_path / "q.tq"
        query_path.write_text(
            "vertex x zz\nvertex y zz\nvertex z zz\n"
            "edge e1 x -> y\nedge e2 y -> z\nwindow 9\n")
        assert main(["simulate", str(query_path), stream_path]) == 0
        assert "never matched" in capsys.readouterr().out
