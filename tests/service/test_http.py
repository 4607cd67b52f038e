"""The HTTP/WebSocket front door against a live in-process gateway."""

import base64
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.service import ServiceGateway
from repro.service import http as http_module
from repro.service.config import WalConfig
from repro.service.http import ServiceHTTPServer, _parse_edge_body

from .conftest import WSClient, chain_config, chain_edges, chain_records


@pytest.fixture
def served(tmp_path):
    """(gateway, port) with the HTTP listener running on port 0."""
    gateway = ServiceGateway(chain_config(tmp_path / "state"))
    server = ServiceHTTPServer(gateway).start_background()
    yield gateway, server.port
    gateway.shutdown()
    server.stop()


def get(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.status, resp.read().decode()


def post(port, path, payload):
    data = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


class TestHTTPEndpoints:
    def test_healthz(self, served):
        _gateway, port = served
        status, body = get(port, "/healthz")
        health = json.loads(body)
        assert status == 200 and health["ok"] is True
        assert health["tenants"]["t0"]["state"] == "healthy"

    def test_ingest_and_stats(self, served):
        gateway, port = served
        status, reply = post(port, "/ingest",
                             {"edges": chain_records()})
        assert status == 200
        assert reply == {"accepted": 4, "invalid": 0, "position": 4}
        assert gateway.wait_idle(10)
        status, body = get(port, "/stats")
        stats = json.loads(body)
        assert stats["tenants"]["t0"]["matches_delivered"] == 3
        assert stats["tenants"]["t0"]["stream_frames_dropped"] == 0

    def test_ingest_named_tenant_route(self, served):
        gateway, port = served
        status, reply = post(port, "/tenants/t0/ingest",
                             chain_records())      # bare array form
        assert status == 200 and reply["accepted"] == 4

    def test_ingest_single_object_form(self, served):
        _gateway, port = served
        status, reply = post(port, "/ingest", chain_records()[0])
        assert status == 200 and reply["accepted"] == 1

    def test_unknown_tenant_404(self, served):
        _gateway, port = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(port, "/tenants/nope/ingest", chain_records())
        assert excinfo.value.code == 404

    def test_bad_body_400(self, served):
        _gateway, port = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(port, "/ingest", b"not json {")
        assert excinfo.value.code == 400

    def test_unknown_route_404(self, served):
        _gateway, port = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(port, "/nothing/here")
        assert excinfo.value.code == 404

    def test_metrics_scrape(self, served):
        gateway, port = served
        post(port, "/ingest", {"edges": chain_records()})
        assert gateway.wait_idle(10)
        status, text = get(port, "/metrics")
        assert status == 200
        assert 'repro_matches_delivered{tenant="t0"} 3' in text
        assert 'repro_queue_depth{tenant="t0"} 0' in text
        assert 'repro_stream_frames_dropped{tenant="t0"} 0' in text
        assert "repro_uptime_seconds" in text

    def test_checkpoint_trigger(self, served, tmp_path):
        gateway, port = served
        post(port, "/ingest", {"edges": chain_records()})
        assert gateway.wait_idle(10)
        status, reply = post(port, "/checkpoint", {})
        assert status == 200
        assert reply["checkpoints"]["t0"]["edges_offered"] == 4
        assert os.path.exists(gateway.tenant("t0").checkpoint_path)

    def test_port_zero_publishes_bound_port(self, served):
        _gateway, port = served
        assert isinstance(port, int) and port > 0


def raw_exchange(port, request: bytes) -> bytes:
    """Send raw bytes, return everything the server answers before it
    closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(request)
        except ConnectionError:
            pass        # refused mid-send: the answer is already out
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionError:
            pass
    return b"".join(chunks)


class TestHostileRequests:
    """The hand-written HTTP/1.1 parser answers malformed framing with a
    400 and a plain reason — never a 500 carrying a Python repr, never an
    unbounded read."""

    @pytest.mark.parametrize("declared, status, error", [
        ("-5", b"400 Bad Request",
         "Content-Length must be a non-negative integer"),
        ("abc", b"400 Bad Request",
         "Content-Length must be a non-negative integer"),
        ("1e3", b"400 Bad Request",
         "Content-Length must be a non-negative integer"),
        (str(10 ** 12), b"413 Payload Too Large", "body too large"),
    ])
    def test_bad_content_length_is_refused_unread(self, served, declared,
                                                  status, error):
        _gateway, port = served
        response = raw_exchange(port, (
            "POST /ingest HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {declared}\r\n\r\n").encode())
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 " + status
        assert json.loads(body) == {"error": error}

    def test_unbounded_headers_are_refused_at_100_lines(self, served):
        gateway, port = served
        filler = b"".join(b"X-Filler-%d: y\r\n" % i for i in range(200_000))
        response = raw_exchange(
            port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + filler + b"\r\n")
        assert response.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert b"more than 100 header lines" in response
        # A request at the limit is still served.
        filler = b"".join(b"X-Filler-%d: y\r\n" % i for i in range(99))
        response = raw_exchange(
            port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + filler + b"\r\n")
        assert response.split(b"\r\n", 1)[0] == b"HTTP/1.1 200 OK"

    def test_over_long_header_line_is_refused(self, served):
        _gateway, port = served
        response = raw_exchange(port, (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Long: "
            + b"y" * 70_000 + b"\r\n\r\n"))
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert json.loads(body) == {"error": "header line too long"}


class TestParseEdgeBody:
    def test_shapes(self):
        record = {"src": "a"}
        assert _parse_edge_body(json.dumps(record).encode()) \
            == ([record], None, False)
        assert _parse_edge_body(json.dumps([record]).encode()) \
            == ([record], None, False)
        assert _parse_edge_body(
            json.dumps({"edges": [record]}).encode()) \
            == ([record], None, False)
        assert _parse_edge_body(b"42") is None
        assert _parse_edge_body(b"nope") is None

    def test_envelope_carries_request_metadata(self):
        record = {"src": "a"}
        body = json.dumps({"edges": [record], "request_id": "r-1",
                           "dlq_replay": True}).encode()
        assert _parse_edge_body(body) == ([record], "r-1", True)
        # A bare array cannot carry a request id.
        assert _parse_edge_body(json.dumps([record]).encode())[1] is None

    def test_nesting_past_the_stack_is_a_bad_body_not_a_crash(self):
        assert _parse_edge_body(b"[" * 100_000 + b"]" * 100_000) is None


class TestWebSocket:
    def test_match_stream_subscription(self, served):
        gateway, port = served
        client = WSClient(port, "/tenants/t0/stream")
        # The 101 reply can race the server-side subscribe call.
        hub = gateway.tenant("t0").hub
        deadline = time.monotonic() + 10
        while hub.subscriber_count() < 1:
            assert time.monotonic() < deadline, "subscription never landed"
            time.sleep(0.01)
        post(port, "/ingest", {"edges": chain_records()})
        records = []
        while len(records) < 3:
            opcode, payload = client.recv_frame()
            if opcode == 0x1:
                records.append(json.loads(payload))
        assert all(r["query"] == "chain" for r in records)
        assert records[0]["matched_at"] == 2.0
        # The record shape matches the on-disk match log exactly.
        assert set(records[0]) == {"query", "matched_at", "edges"}
        client.close()

    def test_websocket_ingest_with_acks(self, served):
        gateway, port = served
        client = WSClient(port, "/tenants/t0/ingest")
        client.send_text(json.dumps({"edges": chain_records()}))
        opcode, payload = client.recv_frame()
        assert opcode == 0x1
        assert json.loads(payload) == {
            "accepted": 4, "invalid": 0, "position": 4}
        client.send_text("not json")
        opcode, payload = client.recv_frame()
        assert json.loads(payload) == {"error": "bad edge payload"}
        client.close()
        assert gateway.wait_idle(10)
        assert gateway.tenant("t0").matches_delivered == 3

    def test_unknown_ws_route_404(self, served):
        _gateway, port = served
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        key = base64.b64encode(os.urandom(16)).decode()
        sock.sendall((
            "GET /tenants/t0/nonsense HTTP/1.1\r\nHost: x\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n\r\n").encode())
        response = sock.recv(4096)
        assert b"404" in response.split(b"\r\n", 1)[0]
        sock.close()

    def test_reassembled_message_is_capped(self, served, monkeypatch):
        """Continuation frames count against one message's limit: a
        message that outgrows it closes the connection."""
        monkeypatch.setattr(http_module, "_MAX_FRAME", 64)
        _gateway, port = served
        client = WSClient(port, "/tenants/t0/ingest")
        client.send_frame(0x1, b"[", fin=False)
        client.send_frame(0x0, b"]")
        opcode, payload = client.recv_frame()
        assert opcode == 0x1 and json.loads(payload)["accepted"] == 0
        client.send_frame(0x1, b"[" + b" " * 39, fin=False)
        client.send_frame(0x0, b" " * 40, fin=False)
        with pytest.raises(ConnectionError):
            client.recv_frame()
        client.close()

    def test_ping_gets_pong(self, served):
        _gateway, port = served
        client = WSClient(port, "/tenants/t0/stream")
        mask = b"\x00\x00\x00\x00"
        client.sock.sendall(b"\x89\x84" + mask + b"ping")
        opcode, payload = client.recv_frame()
        assert opcode == 0xA and payload == b"ping"
        client.close()


class TestMatchEncodedOnce:
    """A match is turned into a record once and into JSON once, whoever
    is listening: the log line and every subscriber's frame are the same
    bytes."""

    def test_three_subscribers_and_the_log_share_one_encode(
            self, served, tmp_path, monkeypatch):
        import repro.service.gateway as gateway_module
        import repro.sinks as sinks_module
        from .test_gateway import read_match_log

        gateway, port = served
        clients = [WSClient(port, "/tenants/t0/stream") for _ in range(3)]
        hub = gateway.tenant("t0").hub
        deadline = time.monotonic() + 10
        while hub.subscriber_count() < 3:
            assert time.monotonic() < deadline, "subscriptions never landed"
            time.sleep(0.01)

        calls = {"record": 0, "encode": 0}
        real_record, real_dumps = sinks_module.match_record, json.dumps

        def counting_record(name, match):
            calls["record"] += 1
            return real_record(name, match)

        def counting_dumps(*args, **kwargs):
            if kwargs.get("sort_keys"):     # only match lines sort keys
                calls["encode"] += 1
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(sinks_module, "match_record", counting_record)
        monkeypatch.setattr(gateway_module, "match_record", counting_record)
        monkeypatch.setattr(json, "dumps", counting_dumps)
        tenant = gateway.tenant("t0")
        tenant.ingest_edges(chain_edges())
        assert gateway.wait_idle(10)
        payloads = []
        for client in clients:
            frames = []
            while len(frames) < 3:
                opcode, payload = client.recv_frame()
                if opcode == 0x1:
                    frames.append(payload)
            payloads.append(frames)
            client.close()
        monkeypatch.undo()

        assert calls == {"record": 3, "encode": 3}
        assert payloads[0] == payloads[1] == payloads[2]
        tenant.checkpoint()                 # seals the match-log segment
        logged = read_match_log(tmp_path / "state")
        assert sorted(payloads[0]) == [line.encode() for line in logged]


class TestDurableBeforeVisible:
    """A WAL tenant's match reaches the log and the subscribers only
    after the fsync that made its edges durable: with that fsync held for
    0.3 s, nothing is delivered before the sync returns and the ack is
    sent."""

    DELAY = 0.3

    def test_match_frames_follow_the_acked_fsync(self, tmp_path):
        from .test_gateway import read_match_log

        gateway = ServiceGateway(
            chain_config(tmp_path / "state", wal=WalConfig()))
        server = ServiceHTTPServer(gateway).start_background()
        try:
            tenant = gateway.tenant("t0")
            delivered_when_durable = []
            sync = tenant.wal.sync

            def recorded_sync(*args):
                sync(*args)
                delivered_when_durable.append(tenant.matches_delivered)
            tenant.wal.sync = recorded_sync

            client = WSClient(server.port, "/tenants/t0/stream")
            deadline = time.monotonic() + 10
            while tenant.hub.subscriber_count() < 1:
                assert time.monotonic() < deadline, "never subscribed"
                time.sleep(0.01)
            frames = []

            def read_frames():
                while len(frames) < 3:
                    opcode, payload = client.recv_frame()
                    if opcode == 0x1:
                        frames.append((time.monotonic(), payload))
            reader = threading.Thread(target=read_frames, daemon=True)
            reader.start()

            plan = faults.FaultPlan([faults.FaultSpec(
                site="wal.fsync", kind="delay", at=1, delay=self.DELAY)])
            with faults.active(plan):
                sent = time.monotonic()
                status, ack = post(server.port, "/ingest",
                                   {"edges": chain_records()})
                acked = time.monotonic()
                reader.join(10)
            client.close()
            assert status == 200 and ack["durable"] is True
            assert acked - sent >= self.DELAY
            assert delivered_when_durable == [0]
            assert len(frames) == 3
            assert min(at for at, _ in frames) - sent >= self.DELAY
            assert gateway.wait_idle(10)
            tenant.checkpoint()             # seals the match-log segment
            logged = read_match_log(tmp_path / "state")
            assert sorted(payload for _, payload in frames) \
                == [line.encode() for line in logged]
        finally:
            gateway.shutdown()
            server.stop()
