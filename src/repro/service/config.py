"""The validated ``server.toml`` schema for ``repro serve``.

A gateway is configured declaratively: one ``[server]`` table (listener,
state directory, checkpoint cadence), optional ``[defaults]`` applied to
every tenant, and one ``[[tenant]]`` array entry per named session, each
carrying its queries (inline DSL text or ``.tq`` file paths), window /
storage knobs, queue bounds and backpressure policy, and
optional ``[[tenant.tail]]`` file sources.  Example::

    [server]
    host = "127.0.0.1"
    port = 8765
    state_dir = "service-state"
    checkpoint_interval = 30.0

    [defaults]
    window = 30.0
    queue_capacity = 10000
    backpressure = "block"

    [[tenant]]
    name = "fraud"
    window = 60.0
    backpressure = "drop_oldest"

    [[tenant.query]]
    name = "exfil"
    file = "queries/exfil.tq"

    [[tenant.query]]
    name = "two-hop"
    text = '''
    vertex a A
    vertex b B
    edge e1 a -> b
    window 10
    '''

Validation is strict and fails with one-line messages: unknown keys,
wrong types, out-of-range values and duplicate tenant or query names are
all rejected before anything starts, and so is ``drop_oldest`` on a
tenant with an enabled ``[tenant.wal]`` (it would shed acked edges).

No backpressure policy overflows to disk: to absorb bursts use
``block`` with a larger ``queue_capacity``, or enable ``[tenant.wal]``,
whose journal is a tenant's one on-disk FIFO.

Parsing uses the standard library's :mod:`tomllib` — the service stays
stdlib-only.
"""

from __future__ import annotations

import dataclasses
import os
import tomllib
from typing import Dict, List, Tuple

from .. import faults as _faults
from ..api import STORAGE_KINDS
from .queues import BACKPRESSURE_POLICIES

#: Timestamp assignment modes: ``client`` trusts each edge's own
#: ``timestamp`` field (out-of-order arrivals are counted and shed);
#: ``server`` stamps arrivals with a strictly increasing server clock and
#: rejects client timestamps entirely.
TIMESTAMP_MODES = ("client", "server")

#: Tail-source formats.
TAIL_FORMATS = ("jsonl", "csv")


class ConfigError(ValueError):
    """Raised on a malformed or inconsistent server configuration."""


@dataclasses.dataclass(frozen=True)
class TailConfig:
    """One file-tailing edge source attached to a tenant.

    ``path`` is followed like ``tail -f``: existing content is replayed
    from the last checkpointed offset (or the start), then appended lines
    stream in live.  ``format`` is ``"jsonl"`` (one service-codec edge
    object per line) or ``"csv"`` (the :mod:`repro.io.csv_stream` column
    layout).
    """

    path: str
    format: str = "jsonl"
    poll_interval: float = 0.2

    def validate(self) -> "TailConfig":
        """Raise :class:`ConfigError` on bad values; returns ``self``."""
        if not self.path or not isinstance(self.path, str):
            raise ConfigError("tail source needs a non-empty path")
        if self.format not in TAIL_FORMATS:
            raise ConfigError(
                f"unknown tail format: {self.format!r} "
                f"(expected one of {TAIL_FORMATS})")
        if not isinstance(self.poll_interval, (int, float)) \
                or isinstance(self.poll_interval, bool) \
                or self.poll_interval <= 0:
            raise ConfigError(
                f"tail poll_interval must be positive, "
                f"got {self.poll_interval!r}")
        return self


@dataclasses.dataclass(frozen=True)
class RateLimitConfig:
    """Per-tenant ingestion rate limit (token bucket).

    ``rps`` tokens (one per edge record) refill per second up to
    ``burst``; a request that cannot be fully admitted is rejected with
    HTTP 429 and a ``Retry-After`` hint (WS producers get a ``backoff``
    frame).  ``burst = 0`` defaults to one second's worth of tokens.
    """

    rps: float
    burst: int = 0

    def validate(self) -> "RateLimitConfig":
        """Raise :class:`ConfigError` on bad values; returns ``self``."""
        if not isinstance(self.rps, (int, float)) \
                or isinstance(self.rps, bool) or self.rps <= 0:
            raise ConfigError(
                f"rate_limit.rps must be positive, got {self.rps!r}")
        if not isinstance(self.burst, int) or isinstance(self.burst, bool) \
                or self.burst < 0:
            raise ConfigError(
                f"rate_limit.burst must be >= 0 (0 means one second's "
                f"worth), got {self.burst!r}")
        return self

    @property
    def effective_burst(self) -> int:
        """The bucket depth actually used (see class doc)."""
        return self.burst if self.burst > 0 else max(1, int(self.rps))


@dataclasses.dataclass(frozen=True)
class WalConfig:
    """Per-tenant write-ahead log settings (``[tenant.wal]``).

    With a WAL enabled, every admitted batch is journaled and fsynced
    *before* the ingest ack, producers never replay after a crash, and
    optional ``request_id`` fields get exactly-once semantics through a
    bounded dedup window (see :mod:`repro.service.wal`).

    ``fsync_interval_ms`` > 0 turns on group commit: the sync leader
    waits that long so concurrent producers share one fsync — higher
    ack latency, far fewer fsyncs.  ``fsync_batch`` pending frames skip
    the wait.  ``dedup_window`` bounds how many recent ``request_id``
    acks are remembered (and checkpointed).
    """

    enabled: bool = True
    segment_bytes: int = 4 * 1024 * 1024
    fsync_interval_ms: float = 0.0
    fsync_batch: int = 256
    dedup_window: int = 1024

    def validate(self) -> "WalConfig":
        """Raise :class:`ConfigError` on bad values; returns ``self``."""
        if not isinstance(self.enabled, bool):
            raise ConfigError(
                f"wal.enabled must be a boolean, got {self.enabled!r}")
        if not isinstance(self.segment_bytes, int) \
                or isinstance(self.segment_bytes, bool) \
                or self.segment_bytes < 1024:
            raise ConfigError(
                f"wal.segment_bytes must be an int >= 1024, "
                f"got {self.segment_bytes!r}")
        if not isinstance(self.fsync_interval_ms, (int, float)) \
                or isinstance(self.fsync_interval_ms, bool) \
                or self.fsync_interval_ms < 0:
            raise ConfigError(
                f"wal.fsync_interval_ms must be >= 0, "
                f"got {self.fsync_interval_ms!r}")
        if not isinstance(self.fsync_batch, int) \
                or isinstance(self.fsync_batch, bool) \
                or self.fsync_batch < 1:
            raise ConfigError(
                f"wal.fsync_batch must be >= 1, got {self.fsync_batch!r}")
        if not isinstance(self.dedup_window, int) \
                or isinstance(self.dedup_window, bool) \
                or self.dedup_window < 1:
            raise ConfigError(
                f"wal.dedup_window must be >= 1, "
                f"got {self.dedup_window!r}")
        return self


@dataclasses.dataclass(frozen=True)
class TenantConfig:
    """One named session hosted by the gateway.

    ``queries`` maps query names to DSL text (a ``file = ...`` entry in
    TOML is read at load time, relative to the config file).  The
    engine-facing knobs (``window``, ``storage``, ``duplicate_policy``)
    mirror
    :class:`~repro.api.EngineConfig`; the queue knobs mirror
    :class:`~repro.service.queues.BoundedEdgeQueue`.
    """

    name: str
    queries: Dict[str, str] = dataclasses.field(default_factory=dict)
    window: float = 30.0
    storage: str = "mstree"
    duplicate_policy: str = "skip"
    queue_capacity: int = 10000
    backpressure: str = "block"
    batch_size: int = 256
    timestamps: str = "client"
    match_log: bool = True
    tails: Tuple[TailConfig, ...] = ()
    rate_limit: "RateLimitConfig | None" = None
    #: Optional write-ahead log (``[tenant.wal]``): durable admission,
    #: producer-independent recovery, request-id exactly-once.
    wal: "WalConfig | None" = None
    #: Poison arrivals kept in the dead-letter JSONL before dropping.
    dead_letter_capacity: int = 1000

    def validate(self) -> "TenantConfig":
        """Raise :class:`ConfigError` on bad values; returns ``self``."""
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("tenant needs a non-empty name")
        if "/" in self.name or self.name in (".", ".."):
            raise ConfigError(
                f"tenant name {self.name!r} must be usable as a "
                "directory name (no '/', '.' or '..')")
        if not self.queries:
            raise ConfigError(f"tenant {self.name!r} has no queries")
        for qname, text in self.queries.items():
            if not qname or not isinstance(qname, str):
                raise ConfigError(
                    f"tenant {self.name!r} has a query with no name")
            if not isinstance(text, str) or not text.strip():
                raise ConfigError(
                    f"query {qname!r} of tenant {self.name!r} has no text")
        if not isinstance(self.window, (int, float)) \
                or isinstance(self.window, bool) or self.window <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: window must be a positive "
                f"duration, got {self.window!r}")
        if self.storage not in STORAGE_KINDS:
            raise ConfigError(
                f"tenant {self.name!r}: unknown storage {self.storage!r} "
                f"(expected one of {STORAGE_KINDS})")
        if self.duplicate_policy not in ("raise", "skip", "count"):
            raise ConfigError(
                f"tenant {self.name!r}: unknown duplicate_policy "
                f"{self.duplicate_policy!r}")
        if not isinstance(self.queue_capacity, int) \
                or isinstance(self.queue_capacity, bool) \
                or self.queue_capacity < 1:
            raise ConfigError(
                f"tenant {self.name!r}: queue_capacity must be >= 1, "
                f"got {self.queue_capacity!r}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"tenant {self.name!r}: unknown backpressure policy "
                f"{self.backpressure!r} (expected one of "
                f"{BACKPRESSURE_POLICIES})")
        if not isinstance(self.batch_size, int) \
                or isinstance(self.batch_size, bool) or self.batch_size < 1:
            raise ConfigError(
                f"tenant {self.name!r}: batch_size must be >= 1, "
                f"got {self.batch_size!r}")
        if self.timestamps not in TIMESTAMP_MODES:
            raise ConfigError(
                f"tenant {self.name!r}: unknown timestamps mode "
                f"{self.timestamps!r} (expected one of {TIMESTAMP_MODES})")
        if not isinstance(self.match_log, bool):
            raise ConfigError(
                f"tenant {self.name!r}: match_log must be a boolean")
        if self.rate_limit is not None:
            if not isinstance(self.rate_limit, RateLimitConfig):
                raise ConfigError(
                    f"tenant {self.name!r}: rate_limit must be a table "
                    "with 'rps' (and optional 'burst')")
            self.rate_limit.validate()
        if self.wal is not None:
            if not isinstance(self.wal, WalConfig):
                raise ConfigError(
                    f"tenant {self.name!r}: wal must be a table "
                    "(enabled, segment_bytes, fsync_interval_ms, "
                    "fsync_batch, dedup_window)")
            self.wal.validate()
            if self.wal.enabled and self.backpressure == "drop_oldest":
                # The ack of a journaled batch promises every edge is
                # applied; shedding one would make the answer depend on
                # whether the tenant later crashed and replayed it.
                raise ConfigError(
                    f"tenant {self.name!r}: backpressure 'drop_oldest' "
                    "sheds edges a write-ahead log already acked as "
                    "durable; use 'block' with a WAL")
        if not isinstance(self.dead_letter_capacity, int) \
                or isinstance(self.dead_letter_capacity, bool) \
                or self.dead_letter_capacity < 1:
            raise ConfigError(
                f"tenant {self.name!r}: dead_letter_capacity must be "
                f">= 1, got {self.dead_letter_capacity!r}")
        for tail in self.tails:
            tail.validate()
        return self


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """The whole gateway configuration (see the module docstring)."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 8765
    checkpoint_interval: float = 30.0
    #: Checkpoints kept per tenant (the newest plus ``checkpoint_keep - 1``
    #: predecessors).  A corrupt newest checkpoint falls back down this
    #: chain; WAL retention covers the whole chain so the fallback can
    #: always replay forward.
    checkpoint_keep: int = 2
    tenants: Tuple[TenantConfig, ...] = ()
    #: Optional ``[faults]`` table — a :class:`repro.faults.FaultPlan`
    #: in dict form, installed by the gateway at boot (chaos testing).
    faults: "dict | None" = None

    def validate(self) -> "ServerConfig":
        """Raise :class:`ConfigError` on bad values; returns ``self``."""
        if not self.state_dir or not isinstance(self.state_dir, str):
            raise ConfigError("server needs a non-empty state_dir")
        if not isinstance(self.host, str) or not self.host:
            raise ConfigError(f"bad host: {self.host!r}")
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not (0 <= self.port <= 65535):
            raise ConfigError(f"bad port: {self.port!r}")
        if not isinstance(self.checkpoint_interval, (int, float)) \
                or isinstance(self.checkpoint_interval, bool) \
                or self.checkpoint_interval < 0:
            raise ConfigError(
                "checkpoint_interval must be >= 0 (0 disables periodic "
                f"checkpoints), got {self.checkpoint_interval!r}")
        if not isinstance(self.checkpoint_keep, int) \
                or isinstance(self.checkpoint_keep, bool) \
                or self.checkpoint_keep < 1:
            raise ConfigError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep!r}")
        if not self.tenants:
            raise ConfigError("configuration defines no tenants")
        if self.faults is not None:
            try:
                _faults.FaultPlan.from_dict(self.faults)
            except _faults.FaultError as exc:
                raise ConfigError(f"[faults]: {exc}") from exc
        seen = set()
        for tenant in self.tenants:
            tenant.validate()
            if tenant.name in seen:
                raise ConfigError(f"duplicate tenant name: {tenant.name!r}")
            seen.add(tenant.name)
        return self

    def tenant(self, name: str) -> TenantConfig:
        """The named tenant's config (``KeyError`` if absent)."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)


# --------------------------------------------------------------------- #
# TOML loading
# --------------------------------------------------------------------- #

_SERVER_KEYS = {"host", "port", "state_dir", "checkpoint_interval",
                "checkpoint_keep"}
_DEFAULT_KEYS = {"window", "storage", "duplicate_policy", "queue_capacity",
                 "backpressure", "batch_size", "timestamps", "match_log",
                 "rate_limit", "dead_letter_capacity", "wal"}
_TENANT_KEYS = _DEFAULT_KEYS | {"name", "query", "tail"}
_QUERY_KEYS = {"name", "text", "file"}
_TAIL_KEYS = {"path", "format", "poll_interval"}
_RATE_LIMIT_KEYS = {"rps", "burst"}
_WAL_KEYS = {"enabled", "segment_bytes", "fsync_interval_ms",
             "fsync_batch", "dedup_window"}


def _load_rate_limit(entry, where: str) -> RateLimitConfig:
    if isinstance(entry, RateLimitConfig):
        return entry
    if not isinstance(entry, dict):
        raise ConfigError(
            f"{where} rate_limit must be a table with 'rps' "
            "(and optional 'burst')")
    _reject_unknown(entry, _RATE_LIMIT_KEYS, f"{where} rate_limit")
    if "rps" not in entry:
        raise ConfigError(f"{where} rate_limit needs 'rps'")
    return RateLimitConfig(rps=entry["rps"], burst=entry.get("burst", 0))


def _load_wal(entry, where: str) -> WalConfig:
    if isinstance(entry, WalConfig):
        return entry
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} wal must be a table (see WalConfig)")
    _reject_unknown(entry, _WAL_KEYS, f"{where} wal")
    return WalConfig(
        enabled=entry.get("enabled", True),
        segment_bytes=entry.get("segment_bytes", 4 * 1024 * 1024),
        fsync_interval_ms=entry.get("fsync_interval_ms", 0.0),
        fsync_batch=entry.get("fsync_batch", 256),
        dedup_window=entry.get("dedup_window", 1024))


def _reject_unknown(table: dict, allowed: set, where: str) -> None:
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _load_query(entry: dict, base_dir: str, tenant: str) -> Tuple[str, str]:
    if not isinstance(entry, dict):
        raise ConfigError(f"tenant {tenant!r}: query entries must be tables")
    _reject_unknown(entry, _QUERY_KEYS, f"tenant {tenant!r} query")
    name = entry.get("name")
    if not name or not isinstance(name, str):
        raise ConfigError(f"tenant {tenant!r}: every query needs a name")
    if ("text" in entry) == ("file" in entry):
        raise ConfigError(
            f"query {name!r} of tenant {tenant!r} needs exactly one of "
            "'text' or 'file'")
    if "text" in entry:
        return name, entry["text"]
    path = entry["file"]
    if not isinstance(path, str) or not path:
        raise ConfigError(f"query {name!r}: bad file path {path!r}")
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    try:
        with open(path, encoding="utf-8") as handle:
            return name, handle.read()
    except OSError as exc:
        raise ConfigError(
            f"query {name!r} of tenant {tenant!r}: cannot read "
            f"{path}: {exc.strerror or exc}") from exc


def parse_config(data: dict, *, base_dir: str = ".") -> ServerConfig:
    """Build a validated :class:`ServerConfig` from a parsed TOML dict."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a table")
    _reject_unknown(data, {"server", "defaults", "tenant", "faults"},
                    "top-level")
    server = data.get("server", {})
    if not isinstance(server, dict):
        raise ConfigError("[server] must be a table")
    _reject_unknown(server, _SERVER_KEYS, "[server]")
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError("[defaults] must be a table")
    _reject_unknown(defaults, _DEFAULT_KEYS, "[defaults]")
    raw_tenants = data.get("tenant", [])
    if isinstance(raw_tenants, dict):
        raw_tenants = [raw_tenants]
    if not isinstance(raw_tenants, list):
        raise ConfigError("[[tenant]] must be an array of tables")
    tenants: List[TenantConfig] = []
    for raw in raw_tenants:
        if not isinstance(raw, dict):
            raise ConfigError("[[tenant]] entries must be tables")
        _reject_unknown(raw, _TENANT_KEYS, "tenant")
        name = raw.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError("every tenant needs a name")
        queries: Dict[str, str] = {}
        raw_queries = raw.get("query", [])
        if isinstance(raw_queries, dict):
            raw_queries = [raw_queries]
        for entry in raw_queries:
            qname, text = _load_query(entry, base_dir, name)
            if qname in queries:
                raise ConfigError(
                    f"tenant {name!r}: duplicate query name {qname!r}")
            queries[qname] = text
        tails = []
        raw_tails = raw.get("tail", [])
        if isinstance(raw_tails, dict):
            raw_tails = [raw_tails]
        for entry in raw_tails:
            if not isinstance(entry, dict):
                raise ConfigError(
                    f"tenant {name!r}: tail entries must be tables")
            _reject_unknown(entry, _TAIL_KEYS, f"tenant {name!r} tail")
            path = entry.get("path", "")
            if isinstance(path, str) and path and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            tails.append(TailConfig(
                path=path, format=entry.get("format", "jsonl"),
                poll_interval=entry.get("poll_interval", 0.2)))
        merged = dict(defaults)
        merged.update({k: v for k, v in raw.items()
                       if k in _DEFAULT_KEYS})
        if merged.get("rate_limit") is not None:
            merged["rate_limit"] = _load_rate_limit(
                merged["rate_limit"], f"tenant {name!r}")
        if merged.get("wal") is not None:
            merged["wal"] = _load_wal(merged["wal"], f"tenant {name!r}")
        tenants.append(TenantConfig(
            name=name, queries=queries, tails=tuple(tails), **merged))
    faults_table = data.get("faults")
    if faults_table is not None and not isinstance(faults_table, dict):
        raise ConfigError("[faults] must be a table")
    config = ServerConfig(
        state_dir=server.get("state_dir", ""),
        host=server.get("host", "127.0.0.1"),
        port=server.get("port", 8765),
        checkpoint_interval=server.get("checkpoint_interval", 30.0),
        checkpoint_keep=server.get("checkpoint_keep", 2),
        tenants=tuple(tenants),
        faults=faults_table)
    if not os.path.isabs(config.state_dir) and config.state_dir:
        config = dataclasses.replace(
            config, state_dir=os.path.join(base_dir, config.state_dir))
    return config.validate()


def load_config(path: str) -> ServerConfig:
    """Load and validate a ``server.toml`` file.

    Relative paths inside the file (query files, tail sources, the state
    directory) resolve against the config file's own directory, so a
    deployment directory is relocatable.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        data = tomllib.loads(raw.decode("utf-8"))
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(data, base_dir=os.path.dirname(os.path.abspath(path)))

