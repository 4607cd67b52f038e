"""CLI: explain / run / generate end-to-end through main()."""

import os

import pytest

from repro.cli import main
from repro.io.csv_stream import read_stream

FIG1_QUERY = """\
vertex V IP
vertex W IP
vertex B IP
edge t1 V -> W [*, 80, tcp]
edge t2 W -> V [*, 80, tcp]
edge t3 V -> B [*, 6667, tcp]
edge t4 B -> V [*, 6667, tcp]
edge t5 V -> B [*, 6667, tcp]
order t1 < t2 < t3 < t4 < t5
window 30
"""

SIMPLE_QUERY = """\
vertex a A
vertex b B
vertex c A
edge e1 a -> b
edge e2 b -> c
order e1 < e2
window 10
"""

SIMPLE_STREAM = """\
src,dst,timestamp,src_label,dst_label,label
x1,y1,1.0,A,B,
y1,z1,2.0,B,A,
y1,z2,3.0,B,A,
"""


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "query.tq"
    path.write_text(SIMPLE_QUERY)
    return str(path)


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(SIMPLE_STREAM)
    return str(path)


class TestExplain:
    def test_explain_prints_plan(self, tmp_path, capsys):
        path = tmp_path / "fig1.tq"
        path.write_text(FIG1_QUERY)
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TC-query" in out
        assert "window hint: 30.0" in out


class TestRun:
    def test_run_reports_matches(self, query_file, stream_file, capsys):
        assert main(["run", query_file, stream_file]) == 0
        out = capsys.readouterr().out
        assert out.count("match @") == 2      # e1e2 via z1 and via z2
        assert "processed 3 edges" in out

    def test_run_quiet(self, query_file, stream_file, capsys):
        assert main(["run", query_file, stream_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "match @" not in out
        assert "2 matches" in out

    def test_run_window_override(self, query_file, stream_file, capsys):
        # A 0.5 window can never hold both edges.
        assert main(["run", query_file, stream_file,
                     "--window", "0.5"]) == 0
        assert "0 matches" in capsys.readouterr().out

    def test_run_without_window_errors(self, tmp_path, stream_file, capsys):
        path = tmp_path / "nowindow.tq"
        path.write_text(SIMPLE_QUERY.replace("window 10\n", ""))
        assert main(["run", str(path), stream_file]) == 2
        assert "no window" in capsys.readouterr().err

    def test_run_ind_storage(self, query_file, stream_file, capsys):
        assert main(["run", query_file, stream_file, "--no-mstree",
                     "--quiet"]) == 0
        assert "2 matches" in capsys.readouterr().out

    def test_run_backend_rejects_no_mstree(self, query_file, stream_file,
                                           capsys):
        assert main(["run", query_file, stream_file, "--backend", "sjtree",
                     "--no-mstree"]) == 2
        assert "only applies to the timing backend" in \
            capsys.readouterr().err

    def test_run_has_no_routing_flag(self, query_file, stream_file, capsys):
        """One ingest design: there is no routing mode to pick."""
        with pytest.raises(SystemExit) as info:
            main(["run", query_file, stream_file, "--routing", "shared"])
        assert info.value.code == 2
        assert "--routing" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--sharding", "process"), ("--shards", "2"), ("--transport", "shm")])
    def test_run_has_no_sharding_flags(self, flag, value, query_file,
                                       stream_file, capsys):
        """A run is one in-process session: there are no shard knobs."""
        with pytest.raises(SystemExit) as info:
            main(["run", query_file, stream_file, flag, value])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_run_duplicates_count(self, query_file, tmp_path, capsys):
        stream = tmp_path / "dups.csv"
        stream.write_text(
            "src,dst,timestamp,src_label,dst_label,label,edge_id\n"
            "x1,y1,1.0,A,B,,flow1\n"
            "y1,z1,2.0,B,A,,flow2\n"
            "y1,z2,3.0,B,A,,flow2\n")     # in-window duplicate flow id
        assert main(["run", query_file, str(stream), "--quiet",
                     "--duplicates", "count"]) == 0
        out = capsys.readouterr().out
        assert "1 matches" in out
        assert "1 duplicate arrivals skipped" in out


    @pytest.mark.parametrize("flag, value", [
        ("--indexing", "scan"), ("--subplan-sharing", "private")])
    def test_run_has_no_removed_mode_flags(self, flag, value, query_file,
                                           stream_file, capsys):
        """Hash joins and sub-plan sharing are not modes to pick."""
        with pytest.raises(SystemExit) as info:
            main(["run", query_file, stream_file, flag, value])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err


#: ``(argv with {query}/{stream}/{dlq}/{out} placeholders, the flag)`` of
#: every number a subcommand would misuse instead of refusing.
BAD_NUMBERS = {
    "run-window-negative": (["run", "{query}", "{stream}", "--window", "-5"],
                            "--window"),
    "run-window-nan": (["run", "{query}", "{stream}", "--window", "nan"],
                       "--window"),
    "simulate-window-negative": (
        ["simulate", "{query}", "{stream}", "--window", "-5"], "--window"),
    "simulate-threads-zero": (
        ["simulate", "{query}", "{stream}", "--threads", "0"], "--threads"),
    "analyze-window-edges-negative": (
        ["analyze", "{stream}", "--query", "{query}", "--window-edges", "-5"],
        "--window-edges"),
    "generate-negative-edges": (["generate", "netflow", "-5", "{out}"],
                                "num_edges"),
    "dlq-replay-batch-size-zero": (
        ["dlq", "replay", "{dlq}", "--batch-size", "0", "--dry-run"],
        "--batch-size"),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_bad_numbers_are_refused_at_parse_time(case, query_file, stream_file,
                                               tmp_path, capsys):
    """One ``error:`` line naming the argument and exit 2, before any
    file is read or written."""
    dlq = tmp_path / "deadletter.jsonl"
    dlq.write_text('{"at": 1.0, "reason": "poison_edge", "payload": '
                   '{"src": "a", "dst": "b", "src_label": "A", '
                   '"dst_label": "B", "timestamp": 1.0}}\n')
    out = tmp_path / "out.csv"
    argv, flag = BAD_NUMBERS[case]
    argv = [arg.format(query=query_file, stream=stream_file, dlq=dlq,
                       out=out) for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    (error,) = [line for line in err.splitlines() if "error:" in line]
    assert flag in error
    assert not out.exists()


class TestGenerate:
    @pytest.mark.parametrize("dataset", ["netflow", "wikitalk", "lsbench"])
    def test_generate_writes_readable_csv(self, dataset, tmp_path, capsys):
        out_path = str(tmp_path / f"{dataset}.csv")
        assert main(["generate", dataset, "50", out_path,
                     "--seed", "3"]) == 0
        assert os.path.exists(out_path)
        edges = list(read_stream(out_path))
        assert len(edges) == 50
        assert "wrote 50 edges" in capsys.readouterr().out

    def test_generated_stream_runs_through_query(self, tmp_path, capsys):
        stream_path = str(tmp_path / "flow.csv")
        main(["generate", "netflow", "200", stream_path])
        query_path = tmp_path / "fig1.tq"
        query_path.write_text(FIG1_QUERY)
        assert main(["run", str(query_path), stream_path, "--quiet"]) == 0
        assert "processed 200 edges" in capsys.readouterr().out
