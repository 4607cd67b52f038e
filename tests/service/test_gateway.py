"""ServiceGateway: ingestion, counters, checkpoints, crash recovery."""

import json
import os

import pytest

from repro import Session
from repro.service import ServiceGateway, render_metrics
from repro.service.gateway import MatchHub
from repro.sinks import match_record

from .conftest import CHAIN_DSL, chain_config, chain_edges, chain_records


def read_match_log(state_dir, tenant="t0"):
    """Every match record across the tenant's segments, as a sorted
    multiset of canonical JSON lines."""
    match_dir = os.path.join(str(state_dir), tenant, "matches")
    lines = []
    for name in sorted(os.listdir(match_dir)):
        with open(os.path.join(match_dir, name), encoding="utf-8") as fh:
            lines.extend(line.strip() for line in fh if line.strip())
    return sorted(lines)


class TestIngestion:
    def test_edges_flow_to_matches(self, gateway):
        tenant = gateway.tenant("t0")
        tenant.ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        assert tenant.matches_delivered == 3
        assert tenant.safe.edges_pushed == 4
        assert tenant.edges_offered == 4

    def test_json_ingestion_counts_invalid(self, gateway):
        tenant = gateway.tenant("t0")
        records = chain_records() + [{"nope": 1}, "not-an-object"]
        result = tenant.ingest_json(records)
        assert result == {"accepted": 4, "invalid": 2, "position": 4}
        assert gateway.wait_idle(10)
        assert tenant.matches_delivered == 3

    def test_nonmonotonic_arrivals_are_counted_not_fatal(self, gateway):
        tenant = gateway.tenant("t0")
        edges = chain_edges()
        tenant.ingest_edges(edges)
        assert gateway.wait_idle(10)
        tenant.ingest_edges(edges[:2])      # stale timestamps
        assert gateway.wait_idle(10)
        assert tenant.rejected_nonmonotonic == 2
        assert tenant.safe.edges_pushed == 4
        assert tenant.worker_errors == 0

    def test_server_timestamp_mode(self, tmp_path):
        config = chain_config(tmp_path / "state", timestamps="server")
        with ServiceGateway(config) as gateway:
            tenant = gateway.tenant("t0")
            records = [dict(r) for r in chain_records()]
            for record in records:
                del record["timestamp"]
            result = tenant.ingest_json(records)
            assert result["accepted"] == 4
            assert gateway.wait_idle(10)
            assert tenant.safe.session.current_time == 4.0
            # client timestamps are rejected outright in server mode
            result = tenant.ingest_json(chain_records()[:1])
            assert result == {"accepted": 0, "invalid": 1, "position": 4}

    def test_status_snapshot_shape(self, gateway):
        gateway.tenant("t0").ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        status = gateway.status()
        t0 = status["tenants"]["t0"]
        assert t0["queries"] == ["chain"]
        assert t0["queue"]["enqueued"] == 4
        assert json.dumps(status)          # JSON-able end to end


class TestCheckpointRecovery:
    def test_checkpoint_and_restore_on_boot(self, tmp_path):
        config = chain_config(tmp_path / "state")
        with ServiceGateway(config) as gateway:
            tenant = gateway.tenant("t0")
            tenant.ingest_edges(chain_edges())
            assert gateway.wait_idle(10)
            meta = tenant.checkpoint()
        assert meta["edges_offered"] == 4 and meta["sealed_segment"] == 0
        with ServiceGateway(config) as restored:
            tenant = restored.tenant("t0")
            assert tenant.restored
            assert tenant.edges_offered == 4
            assert tenant.safe.edges_pushed == 4
            assert tenant.safe.session.current_time == 4.0

    def test_graceful_shutdown_writes_final_checkpoint(self, tmp_path):
        config = chain_config(tmp_path / "state")
        gateway = ServiceGateway(config)
        gateway.tenant("t0").ingest_edges(chain_edges())
        gateway.shutdown()
        assert os.path.exists(
            os.path.join(str(tmp_path / "state"), "t0", "checkpoint.pkl"))
        with ServiceGateway(config) as restored:
            assert restored.tenant("t0").safe.edges_pushed == 4

    def test_shutdown_drains_pending_queue(self, tmp_path):
        config = chain_config(tmp_path / "state", batch_size=1)
        gateway = ServiceGateway(config)
        gateway.tenant("t0").ingest_edges(chain_edges())
        gateway.shutdown()      # no wait_idle: shutdown itself must drain
        with ServiceGateway(config) as restored:
            assert restored.tenant("t0").safe.edges_pushed == 4
            assert restored.tenant("t0").matches_delivered == 0

    def test_a_leftover_spill_file_is_ignored(self, tmp_path):
        """The queue holds memory only: a spill file an older release
        left in the state directory is neither replayed nor removed."""
        config = chain_config(tmp_path / "state")
        tenant_dir = tmp_path / "state" / "t0"
        tenant_dir.mkdir(parents=True)
        leftover = tenant_dir / "spill.jsonl"
        leftover.write_text(
            "".join(json.dumps(record) + "\n" for record in chain_records()))
        with ServiceGateway(config) as gateway:
            tenant = gateway.tenant("t0")
            assert gateway.wait_idle(10)
            assert tenant.queue.depth() == 0
            assert tenant.edges_offered == 0
            assert tenant.safe.edges_pushed == 0
        assert leftover.exists()

    def test_config_drift_registers_new_queries(self, tmp_path):
        config = chain_config(tmp_path / "state")
        with ServiceGateway(config) as gateway:
            gateway.tenant("t0").ingest_edges(chain_edges())
            assert gateway.wait_idle(10)
        from .conftest import CHAIN_DSL
        import dataclasses
        tenant_config = dataclasses.replace(
            config.tenants[0],
            queries={"chain": CHAIN_DSL, "chain2": CHAIN_DSL})
        config = dataclasses.replace(config, tenants=(tenant_config,))
        with ServiceGateway(config) as restored:
            assert sorted(restored.tenant("t0").safe.names()) == [
                "chain", "chain2"]

    def test_abort_drops_the_open_match_segment(self, tmp_path):
        """A crash closes the match log's file descriptor and loses what
        it had not flushed, as a SIGKILL would: those matches lie past
        the last barrier, and the next boot regenerates them."""
        gateway = ServiceGateway(chain_config(tmp_path / "state"))
        tenant = gateway.tenant("t0")
        tenant.ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        assert tenant.matches_delivered == 3
        gateway.abort()
        assert tenant.match_sink.closed
        assert read_match_log(tmp_path / "state") == []


class TestMatchHub:
    def test_subscribers_receive_records(self, gateway):
        got = []
        gateway.tenant("t0").hub.subscribe(got.append)
        gateway.tenant("t0").ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        assert len(got) == 3
        assert all(record["query"] == "chain" for record in got)

    def test_hub_match_log_and_direct_session_agree(self, gateway, tmp_path):
        """What the hub delivers is what the match log holds and what the
        same query answers on a bare session."""
        got = []
        tenant = gateway.tenant("t0")
        tenant.hub.subscribe(got.append)
        tenant.ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        tenant.checkpoint()                 # seals the match-log segment
        delivered = sorted(json.dumps(r, sort_keys=True) for r in got)
        logged = sorted(json.dumps(json.loads(line), sort_keys=True)
                        for line in read_match_log(tmp_path / "state"))
        direct = Session()
        direct.register("chain", CHAIN_DSL)
        expected = sorted(
            json.dumps(match_record(name, match), sort_keys=True)
            for name, match in direct.push_many(chain_edges()))
        assert delivered == logged == expected and len(expected) == 3

    def test_failing_subscriber_is_dropped_not_fatal(self, gateway):
        def broken(record):
            raise RuntimeError("boom")

        hub = gateway.tenant("t0").hub
        hub.subscribe(broken)
        gateway.tenant("t0").ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        assert gateway.tenant("t0").matches_delivered == 3
        assert hub.subscriber_count() == 0

    def test_unsubscribe(self):
        hub = MatchHub()
        records = []
        callback = records.append
        hub.subscribe(callback)
        assert hub.subscriber_count() == 1
        hub.unsubscribe(callback)
        hub.publish({"query": "q"})
        assert records == [] and hub.subscriber_count() == 0


class TestMetricsRendering:
    def test_prometheus_text(self, gateway):
        tenant = gateway.tenant("t0")
        tenant.ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        stats = {"t0": tenant.safe.session_stats()}
        text = render_metrics(gateway.status(), stats)
        assert 'repro_matches_delivered{tenant="t0"} 3' in text
        assert 'repro_queue_enqueued{tenant="t0"} 4' in text
        assert 'repro_session_edges_pushed{tenant="t0"} 4' in text
        assert '# TYPE repro_matches_delivered counter' in text
        assert 'repro_tenant_info{' in text
        assert 'subplan_sharing="shared"' in text
        assert text.endswith("\n")

    def test_health_state_is_one_hot_over_healthy_and_degraded(
            self, gateway):
        tenant = gateway.tenant("t0")

        def health_lines():
            text = render_metrics(gateway.status(),
                                  {"t0": tenant.safe.session_stats()})
            return [line for line in text.splitlines()
                    if line.startswith("repro_health_state{")]

        assert health_lines() == [
            'repro_health_state{state="healthy",tenant="t0"} 1',
            'repro_health_state{state="degraded",tenant="t0"} 0']
        tenant.health.set_state("degraded", "checkpoints failing: test")
        assert health_lines() == [
            'repro_health_state{state="healthy",tenant="t0"} 0',
            'repro_health_state{state="degraded",tenant="t0"} 1']

    def test_every_numeric_session_stat_is_exported(self, gateway):
        tenant = gateway.tenant("t0")
        stats = tenant.safe.session_stats()
        text = render_metrics(gateway.status(), {"t0": stats})
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                continue
            assert f"repro_session_{key}{{" in text

    def test_stateless_queries_explain_an_empty_store_gauge(self, gateway):
        """A tenant full of one-edge queries reports 0 sub-plan store
        cells; the page says why."""
        tenant = gateway.tenant("t0")
        with tenant.safe.locked() as session:
            session.register(
                "one", "vertex a A\nvertex b B\nedge e a -> b\nwindow 10\n")
        text = render_metrics(gateway.status(),
                              {"t0": tenant.safe.session_stats()})
        assert 'repro_session_stateless_queries{tenant="t0"} 1' in text
        assert "# HELP repro_session_stateless_queries Registered " \
            "one-edge queries on the stateless plan" in text

    def test_route_memo_churn_is_counted_and_exported(self):
        """Every registration and deregistration clears the route memo
        wholesale; the session counts it and the page shows it."""
        session = Session(window=10.0)
        dsl = "vertex a A\nvertex b B\nedge e a -> b\n"
        session.register("keep", dsl)
        before = session.session_stats()["route_memo_clears"]
        pairs = 5
        for _ in range(pairs):
            session.register("churn", dsl)
            session.deregister("churn")
        stats = session.session_stats()
        assert stats["route_memo_clears"] - before == 2 * pairs
        assert stats["route_memo_entries"] == 0
        text = render_metrics({"tenants": {}}, {"t0": stats})
        assert f'repro_session_route_memo_clears{{tenant="t0"}} ' \
            f'{stats["route_memo_clears"]}' in text
        assert "# TYPE repro_session_route_memo_clears counter" in text
        assert "# HELP repro_session_route_memo_clears Wholesale " \
            "route-memo clears" in text
        assert "# HELP repro_session_route_memo_entries Label triples" \
            in text


class TestMultiTenant:
    def test_two_isolated_tenants(self, tmp_path):
        import dataclasses
        config = chain_config(tmp_path / "state")
        second = dataclasses.replace(config.tenants[0], name="t1")
        config = dataclasses.replace(
            config, tenants=config.tenants + (second,))
        with ServiceGateway(config) as gateway:
            gateway.tenant("t0").ingest_edges(chain_edges())
            assert gateway.wait_idle(10)
            assert gateway.tenant("t0").matches_delivered == 3
            assert gateway.tenant("t1").matches_delivered == 0
            with pytest.raises(ValueError, match="several tenants"):
                gateway.default_tenant()
