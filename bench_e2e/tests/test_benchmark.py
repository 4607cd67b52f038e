"""Determinism and contract checks of the benchmark itself.

``python -m pytest bench_e2e/tests`` — about a minute: the count checks
run ``--quick`` workloads twice.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from bench_e2e import inputs
from bench_e2e.workloads import SIZES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench_e2e", "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

BUILDERS = {
    "engine_join": inputs.engine_join,
    "session_exact16": inputs.session_exact16,
    "session_predicates1k": inputs.session_predicates1k,
}
SMALL = {"warmup": 300, "batches": 4, "batch_edges": 32}


def _wire(data: inputs.Inputs):
    return ([inputs.post_body(data.warmup)]
            + [inputs.post_body(batch) for batch in data.batches],
            inputs.query_texts(data.queries), data.window)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    build = BUILDERS[name]
    first, again, other = (build(5, **SMALL), build(5, **SMALL),
                           build(6, **SMALL))
    assert _wire(first) == _wire(again)
    assert _wire(first)[0] != _wire(other)[0]
    # The seed only renames vertices: shape, hence every count, is shared.
    assert inputs.shape_digest(first) == inputs.shape_digest(other)
    assert len(_wire(first)[0][1]) == len(_wire(other)[0][1])


def test_churn_names_cover_only_cold_queries():
    queries = inputs.predicate_queries()
    for batch in (0, 1, 399):
        names = inputs.churn_names(batch)
        assert len(set(names)) == inputs.CHURN_PAIRS_PER_BATCH
        assert all(name.startswith("cold") and name in queries
                   for name in names)


def test_names_and_units_follow_the_contract():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SIZES) == set(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_expected_digests_cover_every_workload():
    with open(os.path.join(ROOT, "bench_e2e", "expected.json"),
              encoding="utf-8") as handle:
        expected = json.load(handle)
    assert set(expected) == set(WORKLOADS)
    for entry in expected.values():
        assert set(entry) == {"full", "quick"}
        assert all(e["matches"] > 0 for e in entry.values())


def _run(*arguments):
    done = subprocess.run([sys.executable, RUN, *arguments],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            values[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), values


COUNTS = re.compile(
    r"space_cells|info\.(matches|batches)|harness\.nproc|"
    r".*(_per_edge|_per_batch|_per_match)$|.*\.(scan_fallbacks|trie_nodes|"
    r"cells|subplan_reuses|connects|match_yield|"
    r"route_hit_ratio)$")
TIMES = re.compile(r".*_(us|ms)_per_|.*edges_per_s")


def _counts(values):
    return {name: value for name, value in values.items()
            if COUNTS.match(name) and not TIMES.match(name)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_runs_agree_on_every_count(name):
    first, first_values = _run("--workload", name, "--quick")
    second, second_values = _run("--workload", name, "--quick",
                                 "--seed", "77")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    counts = _counts(first_values)
    assert "space_cells" in counts and "info.matches_total" in counts
    assert counts == _counts(second_values)


def test_traced_quick_run_reports_every_layer_metric_with_equal_counts():
    first, _ = _run("--workload", "session_exact16", "--quick",
                    "--trace", "1")
    second_values, _ = _run("--layers-only", "--quick")
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = _counts(second_values)
    assert len(counts) >= 20
    assert counts == {name: first["metrics"][name]["value"]
                      for name in counts}
    assert os.path.getsize(os.path.join(
        ROOT, "bench_e2e", "results", "trace-session_exact16.jsonl")) > 0
