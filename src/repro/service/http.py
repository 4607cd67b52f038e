"""The asyncio front door: HTTP ingestion, metrics, WebSocket streams.

A deliberately small HTTP/1.1 + RFC 6455 WebSocket server on nothing but
the standard library (the deployment constraint: no third-party web
framework).  One :class:`ServiceHTTPServer` fronts one
:class:`~repro.service.gateway.ServiceGateway`.

A WAL tenant's ingest runs on the event loop: decode and journal the
batch, await only its group-commit fsync in an executor (which then
releases the batch into the tenant queue in journal order), send the
ack and half-close the connection, then apply what was released and
write any match frames straight to that tenant's WebSocket subscribers.
A match therefore reaches the log and the subscribers only after the
fsync that made its edges durable.  Other tenants' puts may block under
``block`` backpressure, so they run in a thread (``asyncio.to_thread``)
and slow *that producer's request*, never the whole listener; their
worker thread applies, and its matches hop to the loop.

Routes
------
``GET /healthz``
    The supervision tree's health: ``{"ok": ..., "tenants": {...}}``
    with per-tenant ``healthy | degraded`` states and
    bounded transition histories (see
    :meth:`~repro.service.gateway.ServiceGateway.healthz`).
``GET /metrics``
    The ``/stats`` tree in Prometheus text format, typed and explained
    by its owners' tables (see :mod:`repro.service.metrics`).
``GET /stats``
    The gateway status snapshot as JSON: every tenant's counters, its
    components' dicts and its session's stats.
``POST /ingest`` / ``POST /tenants/<name>/ingest``
    A JSON body of edges — ``{"edges": [...]}``, a bare array, or one
    edge object — enqueued on the (default) tenant's queue.  Replies
    with ``{"accepted", "invalid", "position"}``; 503 once shutdown has
    begun; 429 with a ``Retry-After`` header when the tenant's rate
    limit rejects the batch (resend the same batch after the wait).
    The dict form takes an optional ``"request_id"`` — on WAL-enabled
    tenants the ack is then exactly-once across retries and crashes
    (``"durable": true`` once journaled, ``"deduplicated": true`` on a
    replayed ack) — and ``"dlq_replay": true``, set by ``repro dlq
    replay`` so re-ingested dead letters are counted apart.
``POST /checkpoint``
    Trigger a checkpoint barrier on every tenant; replies with each
    barrier's metadata.
``GET /tenants/<name>/stream`` (WebSocket)
    Subscribe to the tenant's live match stream: one JSON text frame per
    match, the same record shape as the JSONL match log.
``GET /tenants/<name>/ingest`` (WebSocket)
    Streaming ingestion: each text frame is a JSON edge batch; each is
    acknowledged with the ``/ingest`` reply object.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
import threading
from typing import Dict, Optional, Tuple

from .codec import parse_json, unwrap_edge_body
from .metrics import render_metrics
from .queues import QueueClosed
from .resilience import RateLimited
from .wal import WalFrameTooLarge

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_BODY = 64 * 1024 * 1024
#: Header lines accepted per request before it is refused unread.
_MAX_HEADERS = 100
#: Bytes one WebSocket message may carry, its continuation frames summed.
_MAX_FRAME = 16 * 1024 * 1024
#: Bytes a subscriber's socket may have buffered for a match frame to be
#: written straight to it; past that, frames queue (and shed) instead.
_WS_DIRECT_BUFFER = 64 * 1024

#: Reason phrases for the handful of statuses we emit.
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


class _Refused(Exception):
    """A request the parser refuses unread; ``args`` are the status it is
    answered with and the reason."""


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str,
                 headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


class ServiceHTTPServer:
    """Serve one gateway over HTTP/WebSocket (see module docstring).

    ``host``/``port`` default to the gateway's config; ``port = 0`` binds
    an OS-assigned port, published on :attr:`port` once the listener is
    up.
    """

    def __init__(self, gateway, host: Optional[str] = None,
                 port: Optional[int] = None) -> None:
        self.gateway = gateway
        self.host = host if host is not None else gateway.config.host
        self._requested_port = (port if port is not None
                                else gateway.config.port)
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start_background(self) -> "ServiceHTTPServer":
        """Run the listener on a daemon thread; returns once bound."""
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-http")
        self._thread.start()
        self._started.wait(10.0)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:   # surface bind errors to the caller
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        server = await asyncio.start_server(
            self._handle, self.host, self._requested_port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop_async.wait()

    def stop(self) -> None:
        """Stop the listener and join its thread (idempotent)."""
        if self._loop is not None and self._stop_async is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:      # loop already gone
                pass
        if self._thread is not None:
            self._thread.join(5.0)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            if request.headers.get("upgrade", "").lower() == "websocket":
                await self._websocket(request, reader, writer)
                return
            result = await self._dispatch(request)
            status, content_type, payload = result[:3]
            extra = result[3] if len(result) > 3 else None
            await self._respond(writer, status, content_type, payload,
                                extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:
            status, reason = exc.args \
                if isinstance(exc, _Refused) else (500, repr(exc))
            try:
                await self._respond(
                    writer, status, "application/json",
                    json.dumps({"error": reason}).encode())
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader) -> Optional[_Request]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, ValueError):
            return None
        if not request_line.strip():
            return None
        try:
            method, path, _version = request_line.decode(
                "latin-1").strip().split(" ", 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        lines = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:      # longer than the reader's limit
                raise _Refused(400, "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > _MAX_HEADERS:
                raise _Refused(
                    400, f"more than {_MAX_HEADERS} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _Refused(
                400, "Content-Length must be a non-negative integer")
        length = int(declared)
        if length > _MAX_BODY:
            raise _Refused(413, "body too large")
        body = await reader.readexactly(length) if length else b""
        return _Request(method, path, headers, body)

    async def _respond(self, writer, status: int, content_type: str,
                       payload: bytes,
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> None:
        reason = _REASONS.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n")
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + payload)
        # The FIN goes out with the reply: a client reading to EOF is
        # done now, not after whatever this handler does next.
        writer.write_eof()
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route_tenant(self, parts) -> Optional[object]:
        """Resolve ``/ingest`` vs ``/tenants/<name>/...`` to a tenant."""
        if parts and parts[0] == "tenants" and len(parts) >= 2:
            return self.gateway.tenants.get(parts[1])
        try:
            return self.gateway.default_tenant()
        except ValueError:
            return None

    async def _dispatch(self, request: _Request) -> tuple:
        path = request.path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]

        if request.method == "GET":
            if path == "/healthz":
                health = await asyncio.to_thread(self.gateway.healthz)
                return (200, "application/json",
                        json.dumps(health).encode())
            if path in ("/metrics", "/stats"):
                # Off the loop: a tenant's status takes its session lock,
                # which a worker batch or a checkpoint holds.
                status = await asyncio.to_thread(self.gateway.status)
                if path == "/stats":
                    return (200, "application/json",
                            json.dumps(status).encode())
                return (200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        render_metrics(status).encode())
            return 404, "application/json", b'{"error": "not found"}'

        if request.method == "POST":
            if path == "/checkpoint":
                metas = await asyncio.to_thread(self.gateway.checkpoint_all)
                return (200, "application/json",
                        json.dumps({"checkpoints": metas}).encode())
            if parts and parts[-1] == "ingest":
                tenant = self._route_tenant(parts)
                if tenant is None:
                    return (404, "application/json",
                            b'{"error": "unknown tenant"}')
                return await self._ingest(tenant, request.body)
            return 404, "application/json", b'{"error": "not found"}'

        return (405, "application/json",
                b'{"error": "method not allowed"}')

    async def _admit(self, tenant, body: bytes, parsed) -> dict:
        """Admit one parsed batch; returns the ack (see the module doc).

        For a WAL tenant the apply is scheduled whether or not the commit
        succeeded (a failed fsync still releases the batch) and runs once
        this handler next yields — after it wrote the ack, or found the
        client gone."""
        records, request_id, dlq_replay = parsed
        if tenant.wal is None:
            return await asyncio.to_thread(
                lambda: tenant.ingest_json(
                    records, request_id=request_id, dlq_replay=dlq_replay,
                    body=body))
        ack, commit = tenant.admit_json(
            records, request_id=request_id, dlq_replay=dlq_replay,
            body=body, wake=False)
        if commit is not None:
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, commit)
            finally:
                loop.call_soon(tenant.apply_released)
        return ack

    async def _ingest(self, tenant, body: bytes) -> tuple:
        parsed = _parse_edge_body(body)
        if parsed is None:
            return (400, "application/json",
                    b'{"error": "body must be a JSON edge, an array of '
                    b'edges, or {\\"edges\\": [...]}"}')
        try:
            result = await self._admit(tenant, body, parsed)
        except QueueClosed:
            return (503, "application/json",
                    b'{"error": "gateway is shutting down"}')
        except WalFrameTooLarge as exc:
            return (413, "application/json",
                    json.dumps({"error": str(exc)}).encode())
        except RateLimited as exc:
            retry_after = max(0.001, exc.retry_after)
            return (429, "application/json",
                    json.dumps({"error": "rate limit exceeded",
                                "retry_after": round(retry_after, 3)}
                               ).encode(),
                    {"Retry-After": f"{retry_after:.3f}"})
        return 200, "application/json", json.dumps(result).encode()

    # ------------------------------------------------------------------ #
    # WebSocket
    # ------------------------------------------------------------------ #
    async def _websocket(self, request: _Request, reader,
                         writer) -> None:
        key = request.headers.get("sec-websocket-key")
        path = request.path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        endpoint = parts[-1] if parts else ""
        tenant = self._route_tenant(parts)
        if key is None or endpoint not in ("stream", "ingest") \
                or tenant is None:
            await self._respond(writer, 404, "application/json",
                                b'{"error": "unknown websocket route"}')
            return
        accept = base64.b64encode(hashlib.sha1(
            (key + _WS_GUID).encode("latin-1")).digest()).decode()
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept}\r\n\r\n").encode("latin-1"))
        await writer.drain()
        if endpoint == "stream":
            await self._ws_stream(tenant, reader, writer)
        else:
            await self._ws_ingest(tenant, reader, writer)

    async def _ws_stream(self, tenant, reader, writer) -> None:
        """Push the tenant's matches as JSON text frames until the
        client goes away.

        A match published on the loop (a WAL tenant's apply) is written
        straight to the socket while nothing is queued ahead of it; one
        published by the worker thread hops to the loop into a bounded
        queue.  A slow client sheds there, never stalling ingestion."""
        loop = asyncio.get_running_loop()
        loop_thread = threading.get_ident()
        transport = writer.transport
        queue: asyncio.Queue = asyncio.Queue(maxsize=4096)
        # Lines the worker handed over / the loop has queued: each counter
        # has one writer, and they differ while a hop is in flight.
        handed, taken = [0], [0]

        def enqueue(line: str) -> None:
            try:
                queue.put_nowait(line)
            except asyncio.QueueFull:
                tenant.stream_frames_dropped += 1

        def take(line: str) -> None:
            taken[0] += 1
            enqueue(line)

        def deliver(line: str) -> None:
            if threading.get_ident() != loop_thread:
                handed[0] += 1
                loop.call_soon_threadsafe(take, line)
            elif handed[0] == taken[0] and queue.empty() \
                    and not transport.is_closing() \
                    and transport.get_write_buffer_size() < _WS_DIRECT_BUFFER:
                writer.write(_ws_frame(0x1, line.encode()))
            else:
                enqueue(line)

        tenant.hub.subscribe(deliver, encoded=True)
        control = asyncio.ensure_future(
            self._ws_drain_control(reader, writer))
        try:
            while not control.done():
                try:
                    line = await asyncio.wait_for(queue.get(), 0.25)
                except asyncio.TimeoutError:
                    continue
                writer.write(_ws_frame(0x1, line.encode()))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            tenant.hub.unsubscribe(deliver)
            control.cancel()
            # A stopping server still hands over what was published.
            while not queue.empty() and not transport.is_closing():
                writer.write(_ws_frame(0x1, queue.get_nowait().encode()))

    async def _ws_drain_control(self, reader, writer) -> None:
        """Answer pings and wait for the client's close frame."""
        while True:
            frame = await _ws_read_frame(reader)
            if frame is None:
                return
            opcode, payload = frame
            if opcode == 0x8:
                try:
                    writer.write(_ws_frame(0x8, payload[:2]))
                    await writer.drain()
                except ConnectionError:
                    pass
                return
            if opcode == 0x9:
                writer.write(_ws_frame(0xA, payload))
                await writer.drain()

    async def _ws_ingest(self, tenant, reader, writer) -> None:
        """Each text frame is an edge batch; each gets a JSON ack.

        A rate-limited batch is answered with a ``backoff`` frame —
        ``{"backoff": true, "retry_after": s}`` — telling the producer
        to pause and resend the *same* batch (nothing was admitted)."""
        while True:
            frame = await _ws_read_frame(reader)
            if frame is None:
                return
            opcode, payload = frame
            if opcode == 0x8:
                writer.write(_ws_frame(0x8, payload[:2]))
                await writer.drain()
                return
            if opcode == 0x9:
                writer.write(_ws_frame(0xA, payload))
                await writer.drain()
                continue
            if opcode not in (0x1, 0x2):
                continue
            parsed = _parse_edge_body(payload)
            if parsed is None:
                reply = {"error": "bad edge payload"}
            else:
                try:
                    reply = await self._admit(tenant, payload, parsed)
                except QueueClosed:
                    reply = {"error": "gateway is shutting down"}
                except WalFrameTooLarge as exc:
                    reply = {"error": str(exc), "retryable": False}
                except RateLimited as exc:
                    reply = {"backoff": True,
                             "retry_after": round(
                                 max(0.001, exc.retry_after), 3)}
                except OSError as exc:
                    # A WAL append/fsync that failed every retry: the
                    # batch got no durable ack, so the producer resends
                    # it under the same request_id (exactly-once makes
                    # that safe) instead of losing the whole stream.
                    reply = {"error": f"durability failure: {exc}",
                             "retryable": True}
            writer.write(_ws_frame(0x1, json.dumps(reply).encode()))
            await writer.drain()


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _parse_edge_body(body: bytes):
    """Decode an ingestion payload into ``(records, request_id,
    dlq_replay)``, or ``None`` when it is not JSON or the shape is wrong
    (see :func:`~repro.service.codec.unwrap_edge_body`)."""
    try:
        return unwrap_edge_body(parse_json(body))
    except (ValueError, RecursionError):
        return None


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """Encode one unmasked (server → client) WebSocket frame."""
    head = bytes([0x80 | opcode])
    length = len(payload)
    if length < 126:
        head += bytes([length])
    elif length < 1 << 16:
        head += bytes([126]) + struct.pack(">H", length)
    else:
        head += bytes([127]) + struct.pack(">Q", length)
    return head + payload


async def _ws_read_frame(reader) -> Optional[Tuple[int, bytes]]:
    """Read one complete message (reassembling continuations); returns
    ``(opcode, payload)``, or ``None`` once the peer is gone or the
    message outgrew ``_MAX_FRAME``."""
    message_opcode: Optional[int] = None
    buffer = b""
    while True:
        try:
            head = await reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        fin = bool(head[0] & 0x80)
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        try:
            if length == 126:
                length = struct.unpack(
                    ">H", await reader.readexactly(2))[0]
            elif length == 127:
                length = struct.unpack(
                    ">Q", await reader.readexactly(8))[0]
            # The whole message is capped, not just each frame: a stream
            # of continuations must not grow the buffer without bound.
            if length > _MAX_FRAME - (len(buffer) if opcode == 0 else 0):
                return None
            mask = await reader.readexactly(4) if masked else b""
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        if masked:
            payload = bytes(b ^ mask[i % 4]
                            for i, b in enumerate(payload))
        if opcode in (0x8, 0x9, 0xA):    # control frames never fragment
            return opcode, payload
        if opcode:                        # first (or only) data frame
            message_opcode = opcode
            buffer = payload
        else:                             # continuation
            buffer += payload
        if fin:
            return message_opcode or 0x1, buffer
