"""The deterministic fault-injection registry (repro.faults)."""

import pytest

from repro import faults
from repro.faults import (
    KINDS, SITES, FaultError, FaultPlan, FaultSpec, InjectedFault,
)


class TestSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultError, match="unknown fault site"):
            FaultSpec(site="sink.wrte", kind="crash", rate=0.5).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec(site="sink.write", kind="explode", rate=0.5).validate()

    def test_exactly_one_trigger_required(self):
        with pytest.raises(FaultError, match="exactly one trigger"):
            FaultSpec(site="sink.write", kind="crash").validate()
        with pytest.raises(FaultError, match="exactly one trigger"):
            FaultSpec(site="sink.write", kind="crash",
                      rate=0.5, every=2).validate()

    def test_rate_bounds(self):
        with pytest.raises(FaultError, match="rate"):
            FaultSpec(site="sink.write", kind="crash", rate=1.5).validate()

    def test_registry_constants(self):
        assert "checkpoint.write" in SITES
        assert set(KINDS) == {"crash", "delay", "io_error"}


class TestParsing:
    def test_compact_form(self):
        plan = FaultPlan.parse(
            "seed=7;sink.write=io_error:0.01;"
            "queue.get=delay:at:40;queue.put=crash:every:3:2")
        assert plan.seed == 7
        by_site = {spec.site: spec for spec in plan.specs}
        assert by_site["sink.write"].rate == 0.01
        assert by_site["queue.get"].at == 40
        assert by_site["queue.put"].every == 3
        assert by_site["queue.put"].limit == 2

    def test_json_form(self):
        plan = FaultPlan.parse(
            '{"seed": 3, "inject": [{"site": "tailer.read", '
            '"kind": "io_error", "at": 2}]}')
        assert plan.seed == 3 and plan.specs[0].site == "tailer.read"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultError, match="unknown"):
            FaultPlan.from_dict({"seeed": 1})
        with pytest.raises(FaultError, match="unknown fault spec keys"):
            FaultPlan.from_dict({"inject": [
                {"site": "sink.write", "kind": "crash", "rte": 0.5}]})

    def test_parse_errors_are_descriptive(self):
        with pytest.raises(FaultError, match="no '='"):
            FaultPlan.parse("sink.write")
        with pytest.raises(FaultError, match="needs site=kind:trigger"):
            FaultPlan.parse("sink.write=crash")
        with pytest.raises(FaultError, match="bad trigger"):
            FaultPlan.parse("sink.write=crash:soon")

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": ""}) is None
        plan = FaultPlan.from_env(
            {"REPRO_FAULTS": "seed=1;queue.get=delay:at:1"})
        assert plan is not None and plan.specs[0].kind == "delay"

    def test_describe_round_trips_the_shape(self):
        text = "seed=7;sink.write=io_error:0.01;queue.put=crash:at:3"
        plan = FaultPlan.parse(text)
        assert plan.describe() == [
            "sink.write=io_error:rate:0.01", "queue.put=crash:at:3"]


class TestFiring:
    def test_at_trigger_fires_exactly_once(self):
        plan = FaultPlan.parse("queue.put=crash:at:3")
        fired = 0
        for _ in range(10):
            try:
                plan.fire("queue.put")
            except InjectedFault:
                fired += 1
        assert fired == 1
        assert plan.report()["queue.put"] == {"calls": 10, "fires": 1}

    def test_every_trigger_with_limit(self):
        plan = FaultPlan.parse("queue.put=io_error:every:2:2")
        failures = 0
        for _ in range(10):
            try:
                plan.fire("queue.put")
            except OSError:
                failures += 1
        assert failures == 2        # every 2nd call, capped at 2 fires

    def test_rate_trigger_is_deterministic_per_seed(self):
        def firing_calls(seed):
            plan = FaultPlan.parse(f"seed={seed};sink.write=crash:0.3")
            hits = []
            for i in range(200):
                try:
                    plan.fire("sink.write")
                except InjectedFault:
                    hits.append(i)
            return hits

        assert firing_calls(7) == firing_calls(7)
        assert firing_calls(7) != firing_calls(8)

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan.parse("sink.write=crash:at:1")
        plan.fire("queue.put")      # no spec at this site: a no-op


class TestInstallation:
    def test_module_fire_is_noop_without_plan(self):
        assert faults.current() is None
        faults.fire("sink.write")   # must not raise

    def test_active_restores_previous_plan(self):
        outer = FaultPlan.parse("queue.put=crash:at:99")
        inner = FaultPlan.parse("queue.get=crash:at:99")
        faults.install(outer)
        try:
            with faults.active(inner):
                assert faults.current() is inner
            assert faults.current() is outer
        finally:
            faults.install(None)
        assert faults.current() is None

    def test_active_fires_through_module_hook(self):
        plan = FaultPlan.parse("tailer.read=io_error:at:1")
        with faults.active(plan):
            with pytest.raises(OSError, match="injected I/O error"):
                faults.fire("tailer.read")
        assert plan.report()["tailer.read"]["fires"] == 1
