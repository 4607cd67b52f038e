"""Gateway failure paths: poison edges, disk faults, rate limits,
client disconnects and tailer file churn.

Every test here drives a *failure* through the public surface and
asserts the containment contract: counters move, dead letters land,
health dips and recovers, and the process never wedges.
"""

import contextlib
import json
import os
import time
import urllib.error

import pytest

from repro import StreamEdge
from repro.service import (
    RateLimitConfig, ServerConfig, ServiceGateway, TenantConfig,
)
from repro.service.http import ServiceHTTPServer
from repro.service.resilience import TokenBucket

from .conftest import CHAIN_DSL, WSClient, chain_config, chain_records
from .test_http import get, post
from .test_resilience import FakeClock


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@contextlib.contextmanager
def served(config):
    """A started gateway + HTTP listener, torn down afterwards."""
    gateway = ServiceGateway(config)
    server = ServiceHTTPServer(gateway).start_background()
    try:
        yield gateway, server.port
    finally:
        gateway.shutdown()
        server.stop()


def edge(src, dst, ts, src_label="A", dst_label="B"):
    return StreamEdge(src, dst, src_label=src_label, dst_label=dst_label,
                      timestamp=float(ts))


# --------------------------------------------------------------------- #
# Worker exceptions -> counters + dead letters (not silent drops)
# --------------------------------------------------------------------- #
class TestPoisonEdges:
    def test_poison_edge_is_dead_lettered_not_dropped(self, gateway):
        tenant = gateway.tenant("t0")
        session = tenant.safe.session
        original = session.ingest

        def flaky(edges):
            if any(e.src == "poison" for e in edges):
                raise RuntimeError("injected ingestion bug")
            return original(edges)

        session.ingest = flaky
        tenant.ingest_edges([edge("a1", "b1", 1.0),
                             edge("poison", "b1", 2.0)])
        assert wait_for(lambda: tenant.dead_letters.recorded == 1)
        (letter,) = tenant.dead_letters.read_all()
        assert letter["reason"] == "poison_edge"
        assert letter["payload"]["src"] == "poison"
        assert "injected ingestion bug" in letter["error"]
        # The batch error and the isolated poison both count.
        assert tenant.worker_errors == 2
        # The good edge survived its batch; the cursor moved past the
        # poison so recovery will not resend it forever.
        assert wait_for(lambda: tenant.edges_offered == 2)
        assert tenant.safe.edges_pushed == 1
        # The worker is still alive and ingesting.
        tenant.ingest_edges([edge("a2", "b2", 3.0)])
        assert wait_for(lambda: tenant.safe.edges_pushed == 2)
        assert tenant.health.state == "healthy"

    def test_poison_edge_advances_tail_offsets(self, gateway):
        tenant = gateway.tenant("t0")
        tenant.safe.session.ingest = lambda edges: (_ for _ in ()).throw(
            RuntimeError("always poison"))
        tenant.ingest_edges([edge("p1", "q1", 1.0)],
                            offset=("feed.jsonl", 77))
        assert wait_for(lambda: tenant.dead_letters.recorded == 1)
        assert tenant.source_offsets == {"feed.jsonl": 77}


# --------------------------------------------------------------------- #
# Checkpoint during disk-full (injected OSError)
# --------------------------------------------------------------------- #
class TestCheckpointDiskFull:
    def config(self, state_dir):
        # Three io_errors: exactly enough to defeat the checkpoint's
        # 3-attempt retry ladder once, after which the disk "recovers".
        tenant = TenantConfig(name="t0", queries={"chain": CHAIN_DSL})
        return ServerConfig(
            state_dir=str(state_dir), port=0, checkpoint_interval=0.0,
            tenants=(tenant,),
            faults={"inject": [{"site": "checkpoint.write",
                                "kind": "io_error", "every": 1,
                                "limit": 3}]})

    def test_http_checkpoint_survives_disk_full(self, tmp_path):
        with served(self.config(tmp_path / "state")) as (gateway, port):
            post(port, "/ingest", {"edges": chain_records()})
            assert gateway.wait_idle(10)
            tenant = gateway.tenant("t0")
            # First barrier: every write attempt fails; the endpoint
            # still answers (the failure is per-tenant, not fatal).
            status, reply = post(port, "/checkpoint", {})
            assert status == 200 and reply["checkpoints"] == {}
            assert tenant.checkpoint_failures == 1
            assert tenant.checkpoints_written == 0
            assert not os.path.exists(tenant.checkpoint_path)
            # Disk recovered (fault limit spent): the next barrier lands.
            status, reply = post(port, "/checkpoint", {})
            assert reply["checkpoints"]["t0"]["edges_offered"] == 4
            assert tenant.checkpoints_written == 1
            assert os.path.exists(tenant.checkpoint_path)
            assert tenant.health.state == "healthy"

    def test_persistent_checkpoint_failure_trips_breaker(self, tmp_path):
        tenant_config = TenantConfig(name="t0",
                                     queries={"chain": CHAIN_DSL})
        config = ServerConfig(
            state_dir=str(tmp_path / "state"), port=0,
            checkpoint_interval=0.0, tenants=(tenant_config,),
            faults={"inject": [{"site": "checkpoint.write",
                                "kind": "io_error", "every": 1}]})
        gateway = ServiceGateway(config)
        try:
            tenant = gateway.tenant("t0")
            for _ in range(5):      # breaker threshold
                with pytest.raises(OSError):
                    tenant.checkpoint()
            assert tenant.checkpoint_breaker.state == "open"
            assert tenant.health.state == "degraded"
            assert "checkpoints failing" in tenant.health.reason
        finally:
            gateway.abort()


# --------------------------------------------------------------------- #
# Rate limiting: HTTP 429 + Retry-After, WebSocket backoff frames
# --------------------------------------------------------------------- #
class TestRateLimiting:
    def config(self, state_dir):
        return chain_config(state_dir,
                            rate_limit=RateLimitConfig(rps=50.0, burst=4))

    def test_http_429_with_retry_after(self, tmp_path):
        """The bucket runs on a test clock, so the second POST meets it
        empty however long the first took (with ``rps=50`` a wall-clock
        bucket refills a token every 20 ms)."""
        clock = FakeClock()
        with served(self.config(tmp_path / "state")) as (gateway, port):
            limit = gateway.tenant("t0").config.rate_limit
            gateway.tenant("t0").rate_limiter = TokenBucket(
                limit.rps, limit.effective_burst, clock=clock)
            status, reply = post(port, "/ingest",
                                 {"edges": chain_records()})
            assert status == 200 and reply["accepted"] == 4
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(port, "/ingest", {"edges": chain_records()})
            error = excinfo.value
            assert error.code == 429
            retry_after = float(error.headers["Retry-After"])
            assert retry_after > 0
            body = json.loads(error.read())
            assert body["error"] == "rate limit exceeded"
            assert body["retry_after"] == pytest.approx(retry_after,
                                                        abs=0.01)
            # Rejection is all-or-nothing: nothing was admitted, so the
            # same batch can be resent verbatim after the wait.
            tenant = gateway.tenant("t0")
            assert tenant.queue.enqueued == 4
            assert tenant.rate_limiter.limited == 4
            clock.advance(retry_after + 0.05)
            status, reply = post(port, "/ingest",
                                 {"edges": chain_records()})
            assert status == 200 and reply["accepted"] == 4

    def test_websocket_backoff_frame(self, tmp_path):
        with served(self.config(tmp_path / "state")) as (_gateway, port):
            client = WSClient(port, "/tenants/t0/ingest")
            client.send_text(json.dumps({"edges": chain_records()}))
            _opcode, payload = client.recv_frame()
            assert json.loads(payload)["accepted"] == 4
            client.send_text(json.dumps({"edges": chain_records()}))
            _opcode, payload = client.recv_frame()
            reply = json.loads(payload)
            assert reply["backoff"] is True and reply["retry_after"] > 0
            client.close()

    def test_counters_exported(self, tmp_path):
        with served(self.config(tmp_path / "state")) as (_gateway, port):
            post(port, "/ingest", {"edges": chain_records()})
            _status, text = get(port, "/metrics")
            assert 'repro_rate_limit_admitted{tenant="t0"} 4' in text


# --------------------------------------------------------------------- #
# Client disconnect mid-ack
# --------------------------------------------------------------------- #
class TestWSDisconnect:
    def test_abrupt_disconnect_mid_ack_does_not_wedge(self, tmp_path):
        with served(chain_config(tmp_path / "state")) as (gateway, port):
            client = WSClient(port, "/tenants/t0/ingest")
            client.send_text(json.dumps({"edges": chain_records()}))
            # Vanish without a close frame, before reading the ack: the
            # server's ack write hits a dead socket.
            client.sock.close()
            assert gateway.wait_idle(10)
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.matches_delivered == 3)
            # The listener survived: plain HTTP and a fresh WebSocket
            # both still work.
            status, _body = get(port, "/stats")
            assert status == 200
            replacement = WSClient(port, "/tenants/t0/ingest")
            replacement.send_text(json.dumps(chain_records()[:1]))
            _opcode, payload = replacement.recv_frame()
            assert json.loads(payload)["accepted"] == 1
            replacement.close()

    def test_stream_subscriber_disconnect_unsubscribes(self, tmp_path):
        with served(chain_config(tmp_path / "state")) as (gateway, port):
            client = WSClient(port, "/tenants/t0/stream")
            hub = gateway.tenant("t0").hub
            assert wait_for(lambda: hub.subscriber_count() == 1)
            client.sock.close()     # no close frame
            assert wait_for(lambda: hub.subscriber_count() == 0)
            post(port, "/ingest", {"edges": chain_records()})
            assert gateway.wait_idle(10)


# --------------------------------------------------------------------- #
# Tailer: truncation, rotation, injected read errors
# --------------------------------------------------------------------- #
class TestTailerFileChurn:
    def config(self, state_dir, feed, faults=None):
        from repro.service import TailConfig
        tenant = TenantConfig(
            name="t0", queries={"chain": CHAIN_DSL},
            tails=(TailConfig(path=str(feed), poll_interval=0.02),))
        return ServerConfig(state_dir=str(state_dir), port=0,
                            checkpoint_interval=0.0, tenants=(tenant,),
                            faults=faults)

    @staticmethod
    def write(path, records, mode="w"):
        with open(path, mode, encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def test_truncation_reopens_and_counts(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        records = chain_records()
        self.write(feed, records[:2])
        gateway = ServiceGateway(self.config(tmp_path / "state", feed))
        gateway.start_tailers()
        try:
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.safe.edges_pushed == 2)
            # The file shrinks under the tailer (a writer restarted it).
            self.write(feed, [dict(records[2], timestamp=3.0)])
            assert wait_for(lambda: tenant.safe.edges_pushed == 3)
            (tailer,) = gateway.tenant("t0").tailers
            assert tailer.truncations >= 1
            assert tailer.status()["truncations"] == tailer.truncations
        finally:
            gateway.shutdown()

    def test_rotation_follows_the_new_inode(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        records = chain_records()
        self.write(feed, records[:2])
        gateway = ServiceGateway(self.config(tmp_path / "state", feed))
        gateway.start_tailers()
        try:
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.safe.edges_pushed == 2)
            # Classic logrotate: a new file replaces the path.  Three
            # fresh records keep the new file larger than the consumed
            # offset, so only the inode check can notice the swap.
            replacement = tmp_path / "feed.jsonl.new"
            self.write(replacement, [
                dict(records[2], timestamp=3.0),
                dict(records[3], timestamp=4.0),
                dict(records[2], src="a9", timestamp=5.0)])
            os.replace(replacement, feed)
            assert wait_for(lambda: tenant.safe.edges_pushed == 5)
            (tailer,) = gateway.tenant("t0").tailers
            assert tailer.rotations >= 1
        finally:
            gateway.shutdown()

    def test_injected_read_error_backs_off_and_resumes(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        self.write(feed, chain_records())
        faults = {"inject": [{"site": "tailer.read", "kind": "io_error",
                              "at": 2, "limit": 1}]}
        gateway = ServiceGateway(
            self.config(tmp_path / "state", feed, faults=faults))
        gateway.start_tailers()
        try:
            tenant = gateway.tenant("t0")
            # The second read dies; the tailer reopens at its resume
            # offset and consumes everything exactly once.
            assert wait_for(lambda: tenant.safe.edges_pushed == 4)
            assert wait_for(lambda: tenant.matches_delivered == 3)
            (tailer,) = gateway.tenant("t0").tailers
            assert tailer.read_errors == 1
            assert tenant.rejected_nonmonotonic == 0
        finally:
            gateway.shutdown()
