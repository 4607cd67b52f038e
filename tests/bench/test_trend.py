"""Unit tests for the bench-trend aggregator (repro.bench.trend)."""

import json

import pytest

from repro.bench import trend


def write_report(path, **fields):
    path.write_text(json.dumps(fields), encoding="utf-8")


class TestPrNumber:
    @pytest.mark.parametrize("name,expected", [
        ("BENCH_pr2.json", 2),
        ("bench_pr9_ci.json", 9),
        ("some/dir/BENCH_pr12.json", 12),
        ("notes.json", None),
        ("trend.md", None),
    ])
    def test_extraction(self, name, expected):
        assert trend.pr_number(name) == expected


class TestCollect:
    def test_reads_reports_and_skips_garbage(self, tmp_path):
        write_report(tmp_path / "BENCH_pr2.json",
                     benchmark="pr2-indexing", speedup=5.5)
        write_report(tmp_path / "BENCH_pr9.json",
                     benchmark="pr9-sharding", speedup=2.8,
                     wall_speedup=2.1)
        (tmp_path / "BENCH_pr3.json").write_text("{not json",
                                                 encoding="utf-8")
        write_report(tmp_path / "BENCH_pr4.json", benchmark="no-gate")
        write_report(tmp_path / "unrelated.json", speedup=1.0)
        reports = trend.collect(str(tmp_path), "BENCH_pr*.json")
        assert sorted(reports) == [2, 9]
        assert reports[9]["wall_speedup"] == 2.1

    def test_missing_directory_is_empty(self, tmp_path):
        assert trend.collect(str(tmp_path / "nope"), "*.json") == {}


class TestRowsAndMarkdown:
    def test_join_and_delta(self, tmp_path):
        committed = {2: {"benchmark": "pr2-indexing", "speedup": 5.0},
                     9: {"benchmark": "pr9-sharding", "speedup": 2.8,
                         "wall_speedup": 0.7}}
        fresh = {2: {"benchmark": "pr2-indexing", "speedup": 6.0},
                 9: {"benchmark": "pr9-sharding", "speedup": 2.8,
                     "wall_speedup": 2.4}}
        rows = trend.trend_rows(committed, fresh)
        assert [row["pr"] for row in rows] == [2, 9]
        assert rows[0]["delta"] == "+20.0%"
        assert rows[1]["fresh_wall"] == 2.4
        table = trend.render_markdown(rows)
        assert "| 2 | pr2-indexing | 5.0 | 6.0 | +20.0% | — | — |" \
            in table
        assert "| 9 | pr9-sharding | 2.8 | 2.8 | +0.0% | 0.7 | 2.4 |" \
            in table

    def test_committed_only_renders(self):
        rows = trend.trend_rows({8: {"benchmark": "pr8-wal",
                                     "speedup": 0.79}}, {})
        table = trend.render_markdown(rows)
        assert "| 8 | pr8-wal | 0.79 | — | — | — | — |" in table

    def test_empty_renders_placeholder(self):
        assert "no reports found" in trend.render_markdown([])


class TestCli:
    def test_end_to_end_against_committed_baselines(self, tmp_path,
                                                    capsys):
        write_report(tmp_path / "BENCH_pr2.json",
                     benchmark="pr2-indexing", speedup=5.0)
        ci = tmp_path / "ci"
        ci.mkdir()
        write_report(ci / "bench_pr2_ci.json",
                     benchmark="pr2-indexing", speedup=4.5)
        out = tmp_path / "trend.md"
        assert trend.main(["--committed", str(tmp_path),
                           "--fresh", str(ci),
                           "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "-10.0%" in stdout
        assert out.read_text(encoding="utf-8") == stdout

    def test_repo_baselines_parse(self, capsys):
        # The committed baselines at the repo root must always feed the
        # trend table (every BENCH_pr*.json carries a gated speedup).
        assert trend.main(["--committed", "."]) == 0
        stdout = capsys.readouterr().out
        for pr in (2, 3, 4, 5, 9, 10):
            assert f"| {pr} |" in stdout
