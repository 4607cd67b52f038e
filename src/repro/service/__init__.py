"""The long-running service layer: ingestion gateway, backpressure, metrics.

Everything below :mod:`repro.api` is library-mode — a caller constructs a
:class:`~repro.api.Session` and pushes edges synchronously.  This package
turns the engine into a *system*: a long-running process that accepts
edges over HTTP, WebSocket, or by tailing a growing file, feeds one or
more named multi-tenant sessions through a write-ahead journal and
bounded, blocking queues, checkpoints periodically so a killed server
replays its journal without losing an acked edge, and exports every counter on a Prometheus-style
``/metrics`` endpoint.

Layout
------
:mod:`~repro.service.codec`
    The JSON wire format for edges and matches (HTTP bodies, WebSocket
    frames, JSONL tail sources).
:mod:`~repro.service.queues`
    :class:`~repro.service.queues.BoundedEdgeQueue` — the bounded
    in-memory ingest queue between each tenant's journal and its
    consumers; a full queue blocks the producer (the write-ahead log is
    a tenant's one on-disk FIFO).
:mod:`~repro.service.config`
    The validated ``server.toml`` schema (:func:`load_config`).
:mod:`~repro.service.gateway`
    :class:`ServiceGateway` — tenants, worker threads, checkpointing,
    graceful shutdown; usable in-process without any network listener.
:mod:`~repro.service.http`
    The asyncio HTTP + WebSocket front door (stdlib-only).
:mod:`~repro.service.metrics`
    Prometheus text rendering of the gateway's counters.
:mod:`~repro.service.tailer`
    JSONL/CSV file tailing with checkpointed resume offsets.
:mod:`~repro.service.resilience`
    The fault-containment primitives: retry/backoff, circuit breakers,
    token-bucket rate limiting, health tracking, and
    the dead-letter queue (see also :mod:`repro.faults`, the
    deterministic fault-injection registry that proves them in CI).
:mod:`~repro.service.wal`
    The write-ahead log every tenant journals to: CRC-framed segments,
    group-commit fsync, boot-time replay, and the request-id dedup window that makes
    ingestion exactly-once without producer cooperation.

Quickstart::

    from repro.service import ServerConfig, ServiceGateway, TenantConfig

    config = ServerConfig(state_dir="state", tenants=[
        TenantConfig(name="main", window=30.0,
                     queries={"exfil": open("exfil.tq").read()})])
    gateway = ServiceGateway(config)
    gateway.start_background()          # HTTP on config.host:config.port
    ...
    gateway.shutdown()                  # drain -> checkpoint -> close

or from the command line: ``repro serve --config server.toml``.
"""

from .codec import edge_from_json, edge_to_json, match_to_json
from .config import (
    ConfigError, RateLimitConfig, ServerConfig, TailConfig, TenantConfig,
    WalConfig, load_config,
)
from .gateway import MatchHub, ServiceGateway, Tenant
from .http import ServiceHTTPServer
from .metrics import render_metrics
from .queues import BACKPRESSURE_POLICIES, BoundedEdgeQueue, QueueClosed
from .resilience import (
    HEALTH_STATES, CircuitBreaker, DeadLetterQueue, HealthTracker,
    RateLimited, RetryPolicy, TokenBucket, call_with_retry,
)
from .tailer import FileTailer
from .wal import DedupIndex, WalCorruptError, WriteAheadLog, inspect_wal

__all__ = [
    "BACKPRESSURE_POLICIES", "BoundedEdgeQueue", "QueueClosed",
    "ConfigError", "ServerConfig", "TenantConfig", "TailConfig",
    "RateLimitConfig", "WalConfig", "load_config", "MatchHub",
    "ServiceGateway", "Tenant", "ServiceHTTPServer", "FileTailer",
    "render_metrics", "edge_from_json", "edge_to_json", "match_to_json",
    "DedupIndex", "WalCorruptError", "WriteAheadLog", "inspect_wal",
    # resilience primitives
    "HEALTH_STATES", "CircuitBreaker", "DeadLetterQueue", "HealthTracker",
    "RateLimited", "RetryPolicy", "TokenBucket", "call_with_retry",
]
