"""Shared builders for the service-layer tests."""

from __future__ import annotations

import base64
import hashlib
import json
import os
import socket
import struct
from typing import List

import pytest

from repro import StreamEdge
from repro.service import ServerConfig, TenantConfig

CHAIN_DSL = """
vertex a A
vertex b B
vertex c C
edge e1 a -> b
edge e2 b -> c
order e1 < e2
window 6
"""

#: The chain stream: 4 edges producing 3 matches of CHAIN_DSL.
CHAIN_ROWS = [("a1", "b1", 1.0, "A", "B"), ("b1", "c1", 2.0, "B", "C"),
              ("a2", "b1", 3.0, "A", "B"), ("b1", "c2", 4.0, "B", "C")]


def chain_edges() -> List[StreamEdge]:
    return [StreamEdge(src, dst, src_label=sl, dst_label=dl, timestamp=ts)
            for src, dst, ts, sl, dl in CHAIN_ROWS]


def chain_records() -> List[dict]:
    return [{"src": src, "dst": dst, "timestamp": ts,
             "src_label": sl, "dst_label": dl}
            for src, dst, ts, sl, dl in CHAIN_ROWS]


def chain_config(state_dir, **tenant_overrides) -> ServerConfig:
    """A one-tenant gateway config over CHAIN_DSL with no periodic
    checkpoints (tests trigger barriers explicitly)."""
    tenant = TenantConfig(name="t0", queries={"chain": CHAIN_DSL},
                          **tenant_overrides)
    return ServerConfig(state_dir=str(state_dir), port=0,
                        checkpoint_interval=0.0, tenants=(tenant,))


@pytest.fixture
def gateway(tmp_path):
    """A started in-process gateway (no HTTP listener), shut down after
    the test."""
    from repro.service import ServiceGateway
    gw = ServiceGateway(chain_config(tmp_path / "state"))
    yield gw
    gw.shutdown()


WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


class WSClient:
    """The blocking RFC 6455 client every service test speaks through."""

    def __init__(self, port, path):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=10)
        key = base64.b64encode(os.urandom(16)).decode()
        self.sock.sendall((
            f"GET {path} HTTP/1.1\r\nHost: localhost\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n").encode())
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = self.sock.recv(1024)
            if not chunk:
                self.sock.close()
                raise ConnectionError("peer closed during the handshake")
            response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"101" in status_line, response
        expected = base64.b64encode(hashlib.sha1(
            (key + WS_GUID).encode()).digest())
        assert expected in response

    def send_frame(self, opcode: int, payload: bytes, *,
                   fin: bool = True) -> None:
        """Send one masked frame; ``fin=False`` leaves the message open
        for continuation frames (opcode 0)."""
        mask = os.urandom(4)
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        head = bytes([(0x80 if fin else 0) | opcode])
        length = len(payload)
        if length < 126:
            head += bytes([0x80 | length])
        elif length < 1 << 16:
            head += bytes([0x80 | 126]) + struct.pack(">H", length)
        else:
            head += bytes([0x80 | 127]) + struct.pack(">Q", length)
        self.sock.sendall(head + mask + masked)

    def send_text(self, text: str) -> None:
        self.send_frame(0x1, text.encode())

    def request(self, payload) -> dict:
        """Send ``payload`` as one JSON text frame; return the JSON reply."""
        self.send_text(json.dumps(payload))
        while True:
            opcode, body = self.recv_frame()
            if opcode == 0x1:
                return json.loads(body)
            if opcode == 0x8:
                raise ConnectionError("server closed the stream")

    def recv_frame(self):
        head = self._exactly(2)
        opcode = head[0] & 0x0F
        length = head[1] & 0x7F
        if length == 126:
            length = struct.unpack(">H", self._exactly(2))[0]
        elif length == 127:
            length = struct.unpack(">Q", self._exactly(8))[0]
        return opcode, self._exactly(length)

    def _exactly(self, n):
        data = b""
        while len(data) < n:
            chunk = self.sock.recv(n - len(data))
            if not chunk:
                raise ConnectionError("peer closed")
            data += chunk
        return data

    def close(self):
        """Send a close frame if the peer still listens, then close."""
        mask = b"\x00\x00\x00\x00"
        try:
            self.sock.sendall(b"\x88\x82" + mask + struct.pack(">H", 1000))
        except OSError:
            pass
        finally:
            self.sock.close()
