"""Driving ``python -m repro serve`` from outside: process, HTTP, WebSocket.

Everything here talks to the server the way a producer or subscriber
would — a subprocess, loopback sockets, the documented routes — and owns
the teardown: :class:`Server` is a context manager that terminates (then
kills) the subprocess and removes its state directory on every exit
path.
"""

from __future__ import annotations

import base64
import ctypes
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

_LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)")

TENANT = "bench"
QUEUE_CAPACITY = 4096
WORKER_BATCH = 512
BOOT_TIMEOUT = 30.0
DRAIN_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0


def config_text(state_dir: str, queries: Dict[str, str],
                window: float) -> str:
    """The server TOML: one WAL-enabled tenant, blocking backpressure."""
    lines = [
        "[server]", 'host = "127.0.0.1"', "port = 0",
        f"state_dir = {json.dumps(state_dir)}", "checkpoint_interval = 0.0",
        "", "[[tenant]]", f'name = "{TENANT}"', f"window = {window!r}",
        f"queue_capacity = {QUEUE_CAPACITY}", 'backpressure = "block"',
        f"batch_size = {WORKER_BATCH}", "", "[tenant.wal]", "enabled = true",
    ]
    for name, text in queries.items():
        lines += ["", "[[tenant.query]]", f'name = "{name}"',
                  f"text = '''\n{text}'''"]
    return "\n".join(lines) + "\n"


class ServerError(RuntimeError):
    """The server subprocess misbehaved (boot, drain or shutdown)."""


class _Host:
    """A served tenant over a fresh state directory under ``root``; a
    context manager that always stops the server and removes ``root``."""

    port = 0

    def __init__(self, root: str, queries: Dict[str, str],
                 window: float) -> None:
        self.root = root
        self.state_dir = os.path.join(root, "state")
        os.makedirs(self.state_dir)
        self.config_path = os.path.join(root, "server.toml")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(config_text(self.state_dir, queries, window))

    def _halt(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._halt()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _die_with_parent() -> None:
    """In the forked child, before exec: have the kernel SIGKILL the
    server if the benchmark process dies first, however it dies."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)      # PR_SET_PDEATHSIG


class Server(_Host):
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, root: str, queries: Dict[str, str], window: float,
                 src_dir: str) -> None:
        super().__init__(root, queries, window)
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1",
                   PYTHONHASHSEED="0")
        env.pop("REPRO_FAULTS", None)
        self.lines: List[str] = []
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--config",
             self.config_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, preexec_fn=_die_with_parent)
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            found = _LISTEN_RE.search(line)
            if found:
                self.port = int(found.group(1))
                self._ready.set()
        self._ready.set()       # EOF: unblock a waiting boot

    def wait_ready(self) -> None:
        if not self._ready.wait(BOOT_TIMEOUT) or not self.port:
            raise ServerError("server never announced its port:\n"
                              + "\n".join(self.lines[-20:]))

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        return read_vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful SIGTERM (drain, final checkpoint, sinks flushed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise ServerError("server ignored SIGTERM") from None

    def _halt(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._pump.join(5.0)
        self.proc.stdout.close()


class InProcessServer(_Host):
    """The same gateway hosted in this process — only for traced passes,
    where the span recorders must share the server's interpreter."""

    def __init__(self, root: str, queries: Dict[str, str],
                 window: float) -> None:
        super().__init__(root, queries, window)
        from repro.service import ServiceGateway, load_config
        self.gateway = ServiceGateway(load_config(self.config_path),
                                      start_workers=False)
        self.gateway.start_background()
        self.port = self.gateway.port

    def wait_ready(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return read_vm_hwm_mb("self")

    def stop(self) -> None:
        self.gateway.shutdown()

    _halt = stop    # shutdown is idempotent


def read_vm_hwm_mb(pid) -> float:
    """Peak resident set of ``pid`` (``"self"`` works) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


def reset_vm_hwm() -> None:
    """Restart this process's ``VmHWM`` from its current resident set,
    so a pass's peak is its own and not input generation's."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


# --------------------------------------------------------------------- #
# HTTP: one request per connection (the server answers Connection: close)
# --------------------------------------------------------------------- #

def _request(port: int, head: bytes, body: bytes = b"") -> Tuple[int, bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    header, _, payload = reply.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload


def post_head(path: str, body: bytes) -> bytes:
    """The request head for ``POST path`` carrying ``body``."""
    return (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")


def post(port: int, head: bytes, body: bytes) -> Tuple[int, dict]:
    """POST and parse the JSON ack; ``(status, ack)``."""
    status, payload = _request(port, head, body)
    return status, json.loads(payload)


def get(port: int, path: str) -> bytes:
    status, payload = _request(
        port, f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode())
    if status != 200:
        raise ServerError(f"GET {path} -> {status}")
    return payload


def tenant_stats(port: int) -> dict:
    return json.loads(get(port, "/stats"))["tenants"][TENANT]


def wait_drained(port: int, sent: int) -> Optional[dict]:
    """Poll ``/stats`` until every sent edge was pushed or rejected and
    the queue is empty; the final snapshot, or ``None`` on timeout."""
    deadline = time.monotonic() + DRAIN_TIMEOUT
    while time.monotonic() < deadline:
        stats = tenant_stats(port)
        done = (stats["edges_pushed"] + stats["rejected_nonmonotonic"]
                + stats["rejected_duplicate"])
        if done >= sent and stats["queue"]["depth"] == 0:
            return stats
        time.sleep(0.005)
    return None


def session_metrics(port: int) -> Dict[str, float]:
    """``repro_session_*`` gauges of the tenant from ``GET /metrics``."""
    values = {}
    for line in get(port, "/metrics").decode().splitlines():
        if line.startswith("repro_session_"):
            name, _, value = line.rpartition(" ")
            values[name.split("{", 1)[0][len("repro_session_"):]] = \
                float(value)
    return values


# --------------------------------------------------------------------- #
# WebSocket subscriber
# --------------------------------------------------------------------- #

class Subscriber:
    """Reads ``WS /tenants/bench/stream`` on a thread, stamping each
    record with its arrival time (``time.perf_counter``)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=30)
        key = base64.b64encode(os.urandom(16)).decode()
        self.sock.sendall((
            f"GET /tenants/{TENANT}/stream HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n").encode())
        self._buffer = b""
        while b"\r\n\r\n" not in self._buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ServerError("WS handshake: peer closed early")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise ServerError(f"WS handshake refused: {head[:80]!r}")
        self.records: List[Tuple[float, bytes]] = []
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _exactly(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("WS peer closed mid-frame")
            self._buffer += chunk
        data, self._buffer = self._buffer[:count], self._buffer[count:]
        return data

    def _read(self) -> None:
        try:
            while True:
                head = self._exactly(2)
                length = head[1] & 0x7F
                if length == 126:
                    length = int.from_bytes(self._exactly(2), "big")
                elif length == 127:
                    length = int.from_bytes(self._exactly(8), "big")
                payload = self._exactly(length)
                opcode = head[0] & 0x0F
                if opcode == 0x1:
                    self.records.append((time.perf_counter(), payload))
                elif opcode == 0x8:
                    return
        except (OSError, ConnectionError) as exc:
            self.error = exc

    def wait_for(self, count: int, timeout: float = DRAIN_TIMEOUT) -> bool:
        """Whether ``count`` records arrived within ``timeout``."""
        deadline = time.monotonic() + timeout
        while len(self.records) < count and self._thread.is_alive() \
                and time.monotonic() < deadline:
            time.sleep(0.002)
        return len(self.records) >= count

    def close(self) -> None:
        """Send a masked close frame, then wait for the reader to end."""
        try:
            self.sock.sendall(b"\x88\x82\x00\x00\x00\x00\x03\xe8")
        except OSError:
            pass
        self._thread.join(5.0)
        self.sock.close()
        self._thread.join(5.0)


def read_match_log(state_dir: str) -> List[dict]:
    """Every record of the tenant's on-disk match log."""
    log_dir = os.path.join(state_dir, TENANT, "matches")
    records = []
    for name in sorted(os.listdir(log_dir)):
        if name.startswith("matches-") and name.endswith(".jsonl"):
            with open(os.path.join(log_dir, name), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh)
    return records
