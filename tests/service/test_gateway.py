"""ServiceGateway: ingestion, counters, checkpoints, crash recovery."""

import json
import os
import threading
import time

import pytest

from repro import Session, StreamEdge
from repro.service import ServiceGateway, TailConfig, render_metrics
from repro.service.config import WalConfig
from repro.service.gateway import MatchHub
from repro.sinks import match_record

from .conftest import CHAIN_DSL, chain_config, chain_edges, chain_records


def match_log_lines(state_dir, tenant="t0"):
    """Every match record across the tenant's segments, in log order."""
    match_dir = os.path.join(str(state_dir), tenant, "matches")
    lines = []
    for name in sorted(os.listdir(match_dir)):
        with open(os.path.join(match_dir, name), encoding="utf-8") as fh:
            lines.extend(line.strip() for line in fh if line.strip())
    return lines


def read_match_log(state_dir, tenant="t0"):
    """Every match record across the tenant's segments, as a sorted
    multiset of canonical JSON lines."""
    return sorted(match_log_lines(state_dir, tenant))


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
        assert result == {"accepted": 4, "invalid": 2, "position": 4,
                          "durable": True}
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
            assert result == {"accepted": 0, "invalid": 1, "position": 4,
                              "durable": True}

    def test_status_snapshot_shape(self, gateway):
        gateway.tenant("t0").ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        status = gateway.status()
        t0 = status["tenants"]["t0"]
        assert t0["queries"] == ["chain"]
        assert t0["queue"]["enqueued"] == 4
        assert json.dumps(status)          # JSON-able end to end


def unstamped(count):
    """``count`` chain records without timestamps, for a server clock."""
    rows = chain_records()
    records = [dict(rows[i % len(rows)]) for i in range(count)]
    for record in records:
        del record["timestamp"]
    return records


class TestServerClockIsAdmissionOrder:
    """A server-clock tenant draws a batch's stamps in the hold that
    journals it, so two producers cannot reach the
    session out of stamp order: with one producer paused between taking
    its batch and admitting it, no acked edge is shed as
    non-monotonic."""

    BATCHES, SIZE, PAUSE = 40, 8, 0.002

    def pause_at_admit(self, monkeypatch, tenant, slow):
        """Pause the threads ``slow`` names 2 ms on entering ``_admit``."""
        admit = tenant._admit

        def paused(*args, **kwargs):
            if slow(threading.current_thread()):
                time.sleep(self.PAUSE)
            return admit(*args, **kwargs)
        monkeypatch.setattr(tenant, "_admit", paused)

    def test_two_direct_producers(self, tmp_path, monkeypatch):
        config = chain_config(tmp_path / "state", timestamps="server")
        with ServiceGateway(config) as gateway:
            tenant = gateway.tenant("t0")
            acked = []

            def produce():
                for _ in range(self.BATCHES):
                    acked.append(tenant.ingest_json(
                        unstamped(self.SIZE))["accepted"])
            producers = [threading.Thread(target=produce, name=f"p{i}")
                         for i in range(2)]
            self.pause_at_admit(monkeypatch, tenant,
                                lambda thread: thread is producers[0])
            for producer in producers:
                producer.start()
            for producer in producers:
                producer.join(60)
            assert sum(acked) == 2 * self.BATCHES * self.SIZE
            assert gateway.wait_idle(10)
            assert tenant.rejected_nonmonotonic == 0
            assert tenant.safe.edges_pushed == sum(acked)

    def test_a_tailer_beside_a_direct_producer(self, tmp_path, monkeypatch):
        feed = tmp_path / "feed.jsonl"
        lines = self.BATCHES * 2
        feed.write_text("".join(json.dumps(record) + "\n"
                                for record in unstamped(lines)))
        tail = TailConfig(path=str(feed), poll_interval=0.01)
        config = chain_config(tmp_path / "state", timestamps="server",
                              tails=(tail,))
        with ServiceGateway(config) as gateway:
            tenant = gateway.tenant("t0")
            self.pause_at_admit(monkeypatch, tenant,
                                lambda thread: thread.name.startswith(
                                    "repro-tail-"))
            gateway.start_tailers()
            (tailer,) = tenant.tailers
            acked = 0
            while tailer.lines_read < lines:
                acked += tenant.ingest_json(unstamped(2))["accepted"]
                time.sleep(self.PAUSE / 4)   # let the tailer at the hold
            deadline = time.monotonic() + 10
            while tailer.edges_enqueued + tailer.parse_errors < lines:
                assert time.monotonic() < deadline, "tailer stalled"
                time.sleep(0.01)
            assert tailer.edges_enqueued == lines
            assert gateway.wait_idle(10)
            assert tenant.rejected_nonmonotonic == 0
            assert tenant.safe.edges_pushed == acked + lines

    def test_a_full_queue_holds_the_ack_not_the_journal(self, tmp_path):
        """A batch is durable before it waits for queue room: the
        producer blocked on a full queue holds no admission, the next
        producer journals beside it, and what never reached the engine
        is replayed from the journal at the next boot."""
        config = chain_config(tmp_path / "state", timestamps="server",
                              queue_capacity=2)
        gateway = ServiceGateway(config, start_workers=False)
        tenant = gateway.tenant("t0")
        acks = []
        producers = [threading.Thread(
            target=lambda: acks.append(tenant.ingest_json(unstamped(3))))
            for _ in range(2)]
        producers[0].start()
        try:
            deadline = time.monotonic() + 10
            while tenant.queue.depth() < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            producers[1].start()
            while tenant.wal.durable_lsn < 6:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert tenant.queue.depth() == 2 and not acks
        finally:
            gateway.shutdown(drain_timeout=0.1)
            for producer in producers:
                producer.join(10)
        assert sorted(ack["accepted"] for ack in acks) == [3, 3]
        with ServiceGateway(config) as restored:
            tenant = restored.tenant("t0")
            assert tenant.replayed_edges == 6
            assert tenant.safe.edges_pushed == 6
            assert tenant.rejected_nonmonotonic == 0


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

    def test_a_misshapen_newest_checkpoint_falls_back(self, tmp_path):
        """A CRC-valid checkpoint whose first query lacks its name is
        corrupt data, not a crash: boot falls back to the older capture
        in the chain."""
        from repro.persistence import _dump, _load
        config = chain_config(tmp_path / "state")
        with ServiceGateway(config) as gateway:
            tenant = gateway.tenant("t0")
            tenant.ingest_edges(chain_edges())
            assert gateway.wait_idle(10)
            tenant.checkpoint()
        # The shutdown's final capture is the newest; ours is next.
        path = os.path.join(str(tmp_path / "state"), "t0", "checkpoint.pkl")
        assert os.path.exists(path + ".1")
        envelope = _load(path)
        del envelope["session"]["queries"][0]["name"]
        _dump(envelope, path)
        with ServiceGateway(config) as restored:
            tenant = restored.tenant("t0")
            assert tenant.checkpoint_fallbacks == 1
            assert tenant.restored and tenant.safe.edges_pushed == 4
            assert tenant.safe.names() == ["chain"]

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

    def test_a_default_tenant_replays_its_journal_after_a_crash(
            self, tmp_path):
        """A tenant with no ``[tenant.wal]`` table journals all the same:
        its acks are durable, and after a crash past a checkpoint the
        next boot replays every acked edge from the journal, with no
        producer resend — the match log then reads, line for line, as a
        run that never crashed."""
        first = chain_records()
        second = [dict(record, timestamp=record["timestamp"] + 4.0)
                  for record in first]

        def run(state_dir, crash):
            config = chain_config(state_dir)
            assert config.tenants[0].wal == WalConfig()
            gateway = ServiceGateway(config)
            tenant = gateway.tenant("t0")
            assert tenant.ingest_json(first) == {
                "accepted": 4, "invalid": 0, "position": 4, "durable": True}
            assert gateway.wait_idle(10)
            tenant.checkpoint()
            assert tenant.ingest_json(second)["durable"] is True
            assert gateway.wait_idle(10)
            if not crash:
                gateway.shutdown()
                return
            tenant.abort()
            gateway.abort()
            with ServiceGateway(config) as rebooted:
                tenant = rebooted.tenant("t0")
                assert tenant.replayed_edges == 4
                assert tenant.edges_offered == 8
                assert tenant.safe.edges_pushed == 8

        run(tmp_path / "crashed", crash=True)
        run(tmp_path / "steady", crash=False)
        crashed = match_log_lines(tmp_path / "crashed")
        assert len(crashed) > 3
        assert crashed == match_log_lines(tmp_path / "steady")

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
        text = render_metrics(gateway.status())
        assert 'repro_matches_delivered{tenant="t0"} 3' in text
        assert 'repro_queue_enqueued{tenant="t0"} 4' in text
        assert 'repro_session_edges_pushed{tenant="t0"} 4' in text
        assert '# TYPE repro_matches_delivered counter' in text
        assert 'repro_tenant_info' not in text
        assert 'subplan_sharing' not in text
        assert text.endswith("\n")

    def test_health_state_is_one_hot_over_healthy_and_degraded(
            self, gateway):
        tenant = gateway.tenant("t0")

        def health_lines():
            text = render_metrics(gateway.status())
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
        text = render_metrics(gateway.status())
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
        text = render_metrics(gateway.status())
        assert 'repro_session_stateless_queries{tenant="t0"} 1' in text
        assert "# HELP repro_session_stateless_queries Registered " \
            "one-edge queries on the stateless plan" in text

    def test_route_resolved_lists_gauge_is_exported(self):
        """The route index's prebuilt lists are a gauge bounded by the
        registered route buckets: churn of one query drops its own
        bucket's list, and the page shows the count with its help."""
        session = Session(window=10.0)
        keep = "vertex a A\nvertex b B\nedge e a -> b [x]\n"
        session.register("keep", keep)
        session.register("wild", "vertex a *\nvertex b *\nedge e a -> b [*]\n")
        session.push(StreamEdge("x", "y", src_label="A", dst_label="B",
                                timestamp=1.0, label="x"))
        session.push(StreamEdge("x", "y", src_label="C", dst_label="D",
                                timestamp=2.0))
        stats = session.session_stats()
        # The exact triple's list and the no-hit list.
        assert stats["route_resolved_lists"] == 2
        for _ in range(5):
            session.deregister("keep")
            session.register("keep", keep)
        assert session.session_stats()["route_resolved_lists"] == 1
        text = render_metrics({"tenants": {"t0": {"session": stats}}})
        assert 'repro_session_route_resolved_lists{tenant="t0"} 2' in text
        assert "# TYPE repro_session_route_resolved_lists gauge" in text
        assert "# HELP repro_session_route_resolved_lists Route buckets " \
            "with a prebuilt target list" in text
        assert "route_memo" not in text


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
