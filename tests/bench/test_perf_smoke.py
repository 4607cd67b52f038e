"""The one perf-smoke checker, driven over synthetic reports.

No suite is run here (that is the ``perf-smoke`` CI matrix): every case
is a hand-built report checked against a hand-built baseline, so each
gate of :data:`repro.bench.perf_smoke.SUITES` is shown to fail on the
wrong side of its bound and to hold on the right one.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import perf_smoke
from repro.bench.perf_smoke import SUITES, check_suite
from repro.bench.perf_smoke import _put as put      # set a dotted report key

TOLERANCE = 0.30


def passing_report(name: str) -> dict:
    """The smallest report of suite ``name`` that clears every gate."""
    suite = SUITES[name]
    report = {"speedup": suite.floor * 2}
    put(report, f"{suite.pinned}.matches", 211)
    for gate in suite.gates:
        put(report, gate.key, gate.bound)
        if gate.when is not None:
            put(report, gate.when, True)
    return report


def check(name: str, report: dict, baseline: dict):
    return check_suite(SUITES[name], report, baseline, TOLERANCE)


@pytest.mark.parametrize("name", sorted(SUITES))
class TestEverySuite:
    def test_passing_report_against_itself(self, name):
        report = passing_report(name)
        assert check(name, report, copy.deepcopy(report)) == []

    def test_baseline_without_the_keys_gates_only_on_floors(self, name):
        assert check(name, passing_report(name), {}) == []

    def test_ratio_below_floor(self, name):
        report = passing_report(name)
        report["speedup"] = round(SUITES[name].floor - 0.01, 2)
        failures = check(name, report, {})
        assert len(failures) == 1
        assert SUITES[name].claim in failures[0]
        assert f"min {SUITES[name].floor}" in failures[0]

    def test_ratio_regressed_beyond_tolerance(self, name):
        report = passing_report(name)
        baseline = {"speedup": report["speedup"] / (1 - TOLERANCE) * 1.01}
        failures = check(name, report, baseline)
        assert len(failures) == 1
        assert "regressed >30%" in failures[0]

    def test_ratio_within_tolerance(self, name):
        report = passing_report(name)
        baseline = {"speedup": report["speedup"] / (1 - TOLERANCE) * 0.99}
        assert check(name, report, baseline) == []

    def test_workload_drift(self, name):
        report = passing_report(name)
        baseline = copy.deepcopy(report)
        put(baseline, f"{SUITES[name].pinned}.matches", 212)
        failures = check(name, report, baseline)
        assert failures == ["workload drifted: 211 matches vs baseline 212"]


#: ``(suite, report key, failing value, holding value)`` per extra gate.
EXTRA_GATES = [
    ("routing", "window_cells_ratio", 15.99, 16.0),
    ("sharing", "space_ratio", 1.99, 2.0),
    ("sharding", "sharded.transport", "pipe", "shm"),
    ("sharding", "wall_speedup", 1.99, 2.0),
    ("sharding", "shm_over_pipe", 0.89, 0.9),
    ("predicates", "scaling.per_edge_ratio", 1.501, 1.5),
]


@pytest.mark.parametrize("name, key, failing, holding", EXTRA_GATES)
def test_extra_gate(name, key, failing, holding):
    report = passing_report(name)
    put(report, key, holding)
    assert check(name, report, {}) == []
    put(report, key, failing)
    failures = check(name, report, {})
    assert len(failures) == 1
    assert f"{key} is {failing!r}" in failures[0]


def test_every_extra_gate_is_covered():
    declared = {(name, gate.key)
                for name, suite in SUITES.items() for gate in suite.gates}
    assert declared == {(name, key) for name, key, _, _ in EXTRA_GATES}


def test_wall_speedup_is_enforced_only_with_a_core_per_shard():
    report = passing_report("sharding")
    report["wall_speedup"] = 0.67
    assert len(check("sharding", report, {})) == 1
    report["wall_gate_enforced"] = False
    assert check("sharding", report, {}) == []
    # The flag itself is cpu_cores >= shards.
    extras = SUITES["sharding"].extras
    shards = perf_smoke.SHARDING_SHARDS
    assert extras({"environment": {"cpu_cores": shards}})[
        "wall_gate_enforced"] is True
    assert extras({"environment": {"cpu_cores": shards - 1}})[
        "wall_gate_enforced"] is False


def test_space_ratio_is_tracked_against_the_baseline():
    report = passing_report("sharing")
    report["space_ratio"] = 9.0
    assert check("sharing", report, {"space_ratio": 12.8}) == []
    failures = check("sharing", report, {"space_ratio": 13.99})
    assert len(failures) == 1 and "regressed >30%" in failures[0]


def test_check_reads_the_baseline_before_out_overwrites_it(
        tmp_path, monkeypatch, capsys):
    """``--check X --out X``: a gate that read X after writing the fresh
    report would compare the run against itself and always pass."""
    path = tmp_path / "BENCH.json"
    baseline = passing_report("routing")
    baseline["speedup"] = 100.0
    path.write_text(json.dumps(baseline))
    fresh = {**passing_report("routing"),
             "environment": {"cpu_cores": 2},
             "shared": {"elapsed_seconds": 0.3, "matches": 211},
             "fanout": {"elapsed_seconds": 1.8}}
    monkeypatch.setattr(perf_smoke, "run_suite", lambda suite: fresh)
    code = perf_smoke.main(["--suite", "routing", "--check", str(path),
                            "--out", str(path)])
    assert code == 1
    assert "vs committed baseline 100.0" in capsys.readouterr().err
    assert json.loads(path.read_text())["speedup"] == fresh["speedup"]
