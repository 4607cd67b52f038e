"""Smoke tests keeping the shipped examples runnable.

Each example is self-checking (asserts its expected outcome); these tests
execute the fast ones in-process so a library change that breaks an example
fails CI rather than the README.  The slower, stream-heavy examples
(social_stream_monitoring, monitoring_service) are exercised at reduced
scale through the same entry points they wrap; all five also run headless
at full scale in the CI examples-smoke step.
"""

import os
import runpy
import sys

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def run_example(name: str, capsys, argv=()) -> str:
    path = os.path.join(EXAMPLES_DIR, name)
    old_argv = sys.argv
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "NEW MATCH" in out
        assert "decomposition" in out

    def test_credit_card_fraud(self, capsys):
        out = run_example("credit_card_fraud.py", capsys)
        assert "time-constrained monitor: 2 alert(s)" in out
        assert "1 false positive(s) avoided" in out

    def test_cyber_attack_detection(self, capsys):
        out = run_example("cyber_attack_detection.py", capsys)
        assert "EXFILTRATION PATTERN DETECTED" in out
        assert "1 alert(s) raised" in out

    def test_monitoring_service(self, capsys):
        out = run_example("monitoring_service.py", capsys,
                          argv=["--edges", "1200"])
        assert "alert totals: {'exfiltration': 1}" in out
        assert "session stats: 2 queries" in out

    def test_query_files_parse_and_plan(self):
        from repro.core.plan import explain
        from repro.io.dsl import parse_query
        queries_dir = os.path.join(EXAMPLES_DIR, "queries")
        files = [f for f in os.listdir(queries_dir) if f.endswith(".tq")]
        assert len(files) >= 2
        for filename in files:
            with open(os.path.join(queries_dir, filename),
                      encoding="utf-8") as handle:
                query, window = parse_query(handle.read())
            assert window is not None
            plan = explain(query)
            assert plan.k >= 1
