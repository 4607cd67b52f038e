"""The gateway runtime: tenants, worker threads, checkpoints, shutdown.

A :class:`ServiceGateway` hosts one or more named **tenants**.  Each
tenant is an independent :class:`~repro.api.Session` — the service
scales by tenant, one in-process session each — fed through its own
:class:`~repro.service.queues.BoundedEdgeQueue`, with matches delivered
to a rotating JSONL log and to any live subscribers.  The gateway owns
the shared machinery: the checkpoint scheduler, the restore-on-boot
path, and the graceful-shutdown sequence (drain queues → final
checkpoint → close sinks).

The gateway is fully usable without a network listener — tests and the
perf bench drive :meth:`Tenant.ingest_edges` directly; the HTTP/WebSocket
front door (:mod:`repro.service.http`) and the file tailers
(:mod:`repro.service.tailer`) are producers like any other.

Who applies a batch
-------------------
A tenant's worker thread drains the queue for every producer that is
not the event loop: tailers and direct :meth:`Tenant.ingest_json` /
:meth:`Tenant.ingest_edges` callers.  HTTP and WebSocket batches stay on
the event loop instead (:meth:`Tenant.admit_json`): the loop decodes and
journals the batch, awaits only its group-commit fsync in an executor,
sends the ack, then applies what that released
(:meth:`Tenant.apply_released`) without waking the worker — unless
another thread holds the session lock, when the worker is woken to apply
the batch the moment it is free.

Each order a tenant keeps has one lock.  The session lock is the apply
lock: batches are dequeued and applied under it, in queue order, and a
checkpoint barrier excludes every apply.  The worker waits for it; the
loop only tries it and otherwise leaves the batch to the worker.  The
admission lock orders the journal and owns the server clock: a batch is
built, its stamps drawn, in the hold that journals it.

Crash-recovery contract
-----------------------
A checkpoint is a *barrier*: under one lock acquisition the tenant seals
its current match-log segment (flush + fsync) and pickles the session
together with metadata naming the stream position (``edges_offered``),
the sealed segment index, every tail source's resume offset, the WAL
position (``wal_lsn``), and the request-id dedup window.  The pickle
lands via write-to-temp + ``os.replace`` after rotating the previous
capture down a keep-last-K chain (``checkpoint.pkl``,
``checkpoint.pkl.1``, ...), so recovery can fall back to an older good
capture when the newest is corrupt (:class:`CheckpointCorruptError`).

Every tenant journals every admitted batch to a segmented write-ahead
log (``[tenant.wal]`` tunes it) and withholds the ingest ack until the
journal is fsynced.  A batch enters the queue only once its own fsync
returned and every batch journaled before it has entered (a reorder
buffer keyed by first LSN), so no match is logged or published before
the edges that complete it are durable — unless that fsync failed every
retry: the batch is then applied all the same and its producer gets an
error to retry on.  On boot the tenant restores the best checkpoint in
the chain, discards uncommitted match segments, then replays the WAL from
the checkpoint's ``wal_lsn`` — reconstructing the exact session and
match log with **zero producer cooperation**.  Producers that attach a
``request_id`` to ingest batches additionally get exactly-once retries:
a retry after a lost ack returns the cached ack instead of
re-admitting.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import faults
from ..api import EngineConfig, Session, ThreadSafeSession
from ..graph.edge import StreamEdge
from ..persistence import CheckpointError, load_session_meta
from ..sinks import RotatingJSONLSink, match_record
from ..stats import COUNTER, GAUGE, ONE_HOT, SETTING, Group, Table, snapshot
from .codec import (
    CodecError, edge_from_json, edge_to_json, unwrap_edge_body,
)
from .config import ServerConfig, TenantConfig
from .queues import BoundedEdgeQueue, QueueClosed, _Entry
from .resilience import (
    CircuitBreaker, DeadLetterQueue, HealthTracker, RateLimited,
    RetryPolicy, TokenBucket, call_with_retry,
)
from .tailer import FileTailer
from .wal import DedupIndex, WriteAheadLog

_CHECKPOINT_FILE = "checkpoint.pkl"
_MATCH_DIR = "matches"
_DEAD_LETTER_FILE = "deadletter.jsonl"
_WAL_DIR = "wal"

#: Retry ladders for the disk-facing components.  Short and
#: budget-free: persistent failure is the circuit breaker's job.
_SINK_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.5)
_CHECKPOINT_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0)
_WAL_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.5)


class MatchHub:
    """Thread-safe fan-out of match records to live subscribers.

    Subscribers are plain callables taking one JSON-able record (see
    :func:`repro.sinks.match_record`) or, subscribed ``encoded``, the
    record's JSON line — the one the match log holds, encoded once for
    all of them; the WebSocket layer registers one such per connection
    that trampolines into its event loop.  A subscriber that raises is
    dropped rather than allowed to stall ingestion.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: List = []

    def subscribe(self, callback, *, encoded: bool = False) -> None:
        """Register a consumer of records (or of their JSON lines)."""
        with self._lock:
            self._subscribers.append((callback, encoded))

    def unsubscribe(self, callback) -> None:
        """Remove a consumer (no-op if already gone)."""
        with self._lock:
            self._subscribers = [s for s in self._subscribers
                                 if s[0] is not callback]

    def subscriber_count(self) -> int:
        """Live subscriber count."""
        with self._lock:
            return len(self._subscribers)

    def publish(self, record: dict, line: Optional[str] = None) -> None:
        """Deliver one record to every subscriber (see class doc);
        ``line`` is its JSON text when the caller already encoded it."""
        with self._lock:
            subscribers = list(self._subscribers)
        if not subscribers:
            return
        dead = []
        for subscriber in subscribers:
            callback, encoded = subscriber
            try:
                if encoded:
                    if line is None:
                        line = json.dumps(record, sort_keys=True)
                    callback(line)
                else:
                    callback(record)
            except Exception:
                dead.append(subscriber)
        if dead:
            with self._lock:
                self._subscribers = [s for s in self._subscribers
                                     if s not in dead]


class Tenant:
    """One hosted session: queue, worker, match delivery, checkpoints.

    Constructed by :class:`ServiceGateway`; producers interact through
    :meth:`ingest_edges` / :meth:`ingest_json`, operators through
    :meth:`status` and the gateway's metrics endpoint.
    """

    #: The tenant's own numbers in its ``wal`` dict, after the journal's.
    WAL_STATS: Table = {
        "applied_lsn": (GAUGE, "Highest WAL LSN applied to the session."),
        "replayed_edges": (COUNTER, "Edges re-applied from the WAL at boot."),
        "replay_skipped": (COUNTER, "WAL records replay could not decode."),
        "dedup_hits": (COUNTER, "Batches answered from the dedup window."),
        "dedup_window": (GAUGE, "Request ids held in the dedup window."),
        "sync_errors": (COUNTER, "WAL fsyncs still failing after retries."),
    }

    #: What :meth:`status` reports beside the name and health reason:
    #: the tenant's counters and its components' dicts.
    STATS: Table = {
        "queries": (GAUGE, "Registered queries."),
        "restored": (GAUGE, "Whether boot restored a checkpoint."),
        "health": (ONE_HOT, "Tenant health state (one-hot)."),
        "edges_offered": (COUNTER, "Arrivals taken off the queue and "
                                   "offered to the session (the tenant's "
                                   "stream position)."),
        "edges_pushed": (COUNTER, "Arrivals accepted into the engine "
                                  "window."),
        "rejected_nonmonotonic": (COUNTER, "Arrivals shed for "
                                           "non-increasing timestamps."),
        "rejected_duplicate": (COUNTER, "Arrivals rejected as in-window "
                                        "duplicates."),
        "worker_errors": (COUNTER, "Worker batches that failed "
                                   "unexpectedly."),
        "sink_write_errors": (COUNTER, "Match-log writes abandoned after "
                                       "retries."),
        "checkpoint_failures": (COUNTER, "Checkpoint barriers that failed "
                                         "after retries."),
        "matches_delivered": (COUNTER, "Matches written to the match log "
                                       "/ subscribers."),
        "subscribers": (GAUGE, "Live match-stream subscribers."),
        "stream_frames_dropped": (COUNTER, "Match frames shed because a "
                                           "WebSocket subscriber fell "
                                           "behind."),
        "checkpoints_written": (COUNTER, "Completed checkpoint barriers."),
        "last_checkpoint_seconds": (GAUGE, "Wall-clock cost of the last "
                                           "checkpoint."),
        "checkpoint_fallbacks": (COUNTER, "Boot-time falls down the "
                                          "checkpoint chain (newest "
                                          "capture corrupt)."),
        "dlq_replayed": (COUNTER, "Dead-letter records re-ingested via "
                                  "repro dlq replay."),
        "queue": Group(BoundedEdgeQueue.STATS, "queue_"),
        "dead_letters": Group(DeadLetterQueue.STATS, "dead_letters_"),
        "breakers": Group(CircuitBreaker.STATS, "breaker_",
                          label="component"),
        "rate_limit": Group(TokenBucket.STATS, "rate_limit_"),
        "wal": Group({**WriteAheadLog.STATS, **WAL_STATS}, "wal_"),
        "session": Group(Session.STATS, "session_"),
        "tails": Group(FileTailer.STATS, "tail_", label="path"),
        "source_offsets": Group((GAUGE, "Tailed-file byte offset applied "
                                        "so far (the resume position)."),
                                "source_offset", label="path"),
    }

    def __init__(self, config: TenantConfig, state_dir: str, *,
                 checkpoint_keep: int = 2) -> None:
        self.config = config
        self.state_dir = os.path.join(state_dir, config.name)
        os.makedirs(self.state_dir, exist_ok=True)
        self.checkpoint_path = os.path.join(self.state_dir, _CHECKPOINT_FILE)
        self.checkpoint_keep = max(1, checkpoint_keep)
        self.queue = BoundedEdgeQueue(
            config.queue_capacity, policy=config.backpressure)
        self.hub = MatchHub()
        # Counters, declared in STATS.  edges_offered is the tenant's
        # stream position (the replay cursor after recovery).
        self.edges_offered = 0
        self.rejected_nonmonotonic = 0
        self.rejected_duplicate = 0
        self.worker_errors = 0
        self.matches_delivered = 0
        self.stream_frames_dropped = 0
        self.checkpoints_written = 0
        self.last_checkpoint_seconds = 0.0
        self.sink_write_errors = 0
        self.checkpoint_failures = 0
        self.dlq_replayed = 0
        self.checkpoint_fallbacks = 0
        #: Per-tail-source resume offsets (path -> byte offset), updated
        #: by the worker as tailed edges are actually pushed.
        self.source_offsets: Dict[str, int] = {}
        #: The running file tailers feeding this tenant.
        self.tailers: List[FileTailer] = []
        #: The last server timestamp drawn (see next_server_timestamp).
        self._server_clock = 0.0
        self._worker: Optional[threading.Thread] = None
        self._aborted = False
        # --- resilience -------------------------------------------------
        self.health = HealthTracker()
        self.dead_letters = DeadLetterQueue(
            os.path.join(self.state_dir, _DEAD_LETTER_FILE),
            max_records=config.dead_letter_capacity)
        self.rate_limiter: Optional[TokenBucket] = None
        if config.rate_limit is not None:
            self.rate_limiter = TokenBucket(
                config.rate_limit.rps, config.rate_limit.effective_burst)
        self.sink_breaker = CircuitBreaker(f"{config.name}.match_log")
        self.checkpoint_breaker = CircuitBreaker(f"{config.name}.checkpoint")
        # --- write-ahead log -------------------------------------------
        #: Admission order is journal order and stamp order: one lock
        #: wraps building a batch (drawing its server stamps) and
        #: journaling it.
        self._admission_lock = threading.Lock()
        self.wal = WriteAheadLog(
            os.path.join(self.state_dir, _WAL_DIR),
            segment_bytes=config.wal.segment_bytes)
        self.dedup = DedupIndex(config.wal.dedup_window)
        #: The reorder buffer between fsync and queue: ``_next_lsn`` is
        #: the first LSN of the batch the queue takes next, and ``_held``
        #: keeps later batches whose fsync already returned, by first
        #: LSN, as ``(edges, offset)``.
        self._release_lock = threading.Lock()
        self._next_lsn = self.wal.appended_lsn + 1
        self._held: Dict[int, tuple] = {}
        #: Edges admitted since boot (the ack's position).
        self._admitted_edges = 0
        #: Highest WAL LSN actually applied to the session (advanced by
        #: the worker under the session lock; checkpointed as wal_lsn).
        self.wal_applied_lsn = 0
        # Counters declared in WAL_STATS (a wal_sync_errors ack proceeds
        # on the next successful sync; see ingest_json).
        self.replayed_edges = 0
        self.replay_skipped = 0
        self.dedup_hits = 0
        self.wal_sync_errors = 0
        #: WAL positions of the checkpoints written since boot, oldest
        #: first — WAL segments are reclaimed only up to the *oldest*
        #: kept checkpoint, and only once the whole chain was written by
        #: this incarnation (older on-disk captures may reach further
        #: back than we know).
        self._chain_lsns: List[int] = []
        self.safe = self._boot_session()
        self._attach_sinks()
        self._replay_wal()

    # ------------------------------------------------------------------ #
    # Boot / restore
    # ------------------------------------------------------------------ #
    def checkpoint_chain(self) -> List[str]:
        """The checkpoint candidate paths, newest first."""
        return [self.checkpoint_path] + [
            f"{self.checkpoint_path}.{i}"
            for i in range(1, self.checkpoint_keep)]

    def _boot_session(self) -> ThreadSafeSession:
        restored_meta: Optional[dict] = None
        session: Optional[Session] = None
        for path in self.checkpoint_chain():
            if not os.path.exists(path):
                continue
            try:
                session, restored_meta = load_session_meta(path)
                break
            except CheckpointError as exc:
                # Typed corruption (CheckpointCorruptError) and version
                # mismatches alike: log, fall back down the chain.  The
                # WAL retention policy guarantees an older capture still
                # has enough log ahead of it to replay forward.
                self.checkpoint_fallbacks += 1
                print(f"[repro.service] tenant {self.config.name!r} "
                      f"checkpoint {path} unusable ({exc}); falling back",
                      file=sys.stderr)
        if session is None:
            session = self._fresh_session()
            self._sealed_segment = -1
            self._ckpt_wal_lsn = 0
            # No barrier means no committed match segments: leftovers
            # from a crashed incarnation would sit next
            # to the replay's rewrite and double every match.
            self._discard_uncommitted_segments(-1)
        else:
            meta = restored_meta or {}
            self.edges_offered = int(meta.get("edges_offered", 0))
            self.source_offsets = dict(meta.get("tail_offsets", {}))
            self._server_clock = float(
                meta.get("server_clock", session.current_time
                         if session.current_time > float("-inf") else 0.0))
            self._sealed_segment = int(meta.get("sealed_segment", -1))
            self._ckpt_wal_lsn = int(meta.get("wal_lsn", 0))
            self.dedup.restore(meta.get("dedup"))
            self._discard_uncommitted_segments(self._sealed_segment)
            # Config drift: queries added since the checkpoint register
            # mid-stream (starts-empty semantics); removed ones leave.
            for name in list(session.names()):
                if name not in self.config.queries:
                    session.deregister(name)
            for name, text in self.config.queries.items():
                if name not in session:
                    session.register(name, text, window=self.config.window)
        self.restored = restored_meta is not None
        return ThreadSafeSession(session)

    def _fresh_session(self) -> Session:
        config = EngineConfig(
            storage=self.config.storage,
            duplicate_policy=self.config.duplicate_policy)
        session = Session(window=self.config.window, config=config)
        for name, text in self.config.queries.items():
            session.register(name, text, window=self.config.window)
        return session

    def _discard_uncommitted_segments(self, sealed: int) -> None:
        """Delete match segments newer than the checkpoint barrier —
        their arrivals will be replayed into fresh segments."""
        match_dir = os.path.join(self.state_dir, _MATCH_DIR)
        if not os.path.isdir(match_dir):
            return
        for name in os.listdir(match_dir):
            if not (name.startswith("matches-") and name.endswith(".jsonl")):
                continue
            try:
                index = int(name[len("matches-"):-len(".jsonl")])
            except ValueError:
                continue
            if index > sealed:
                os.remove(os.path.join(match_dir, name))

    def _attach_sinks(self) -> None:
        self.match_sink: Optional[RotatingJSONLSink] = None
        if self.config.match_log:
            self.match_sink = RotatingJSONLSink(
                os.path.join(self.state_dir, _MATCH_DIR),
                start_index=self._sealed_segment + 1)
        with self.safe.locked() as session:
            session.add_sink(self._deliver)

    def _replay_wal(self) -> None:
        """Re-apply every journaled batch past the checkpoint's WAL
        position, synchronously, before any worker or tailer starts.

        Replay drives the same code path as the live worker
        (:meth:`_process`), so monotonicity shedding, duplicate policy,
        match delivery, ``edges_offered`` and tail offsets all advance
        exactly as they did the first time — the match log comes out
        byte-identical.  Frames carrying a ``request_id`` repopulate the
        dedup window so producer retries stay exactly-once across the
        crash."""
        start = self._ckpt_wal_lsn
        self.wal_applied_lsn = start
        replayed = 0
        for first_lsn, frame in self.wal.replay(start):
            entries = self._frame_entries(first_lsn, frame, start)
            if entries:
                self._process(entries)
                replayed += len(entries)
            rid = frame.get("rid")
            if rid is not None and self.dedup.get(rid) is None:
                self.dedup.put(rid, {
                    "accepted": frame.get("n", 0),
                    "invalid": frame.get("invalid", 0),
                    "position": self.edges_offered,
                    "durable": True,
                })
        self.replayed_edges += replayed
        if replayed and self.config.timestamps == "server":
            # Stamps handed out since the checkpoint are in the journal,
            # not in its meta: the server clock resumes past them (no
            # producer runs yet).
            self._server_clock = max(self._server_clock,
                                     self.safe.session.current_time)
        if replayed:
            print(f"[repro.service] tenant {self.config.name!r} replayed "
                  f"{replayed} edge(s) from the WAL "
                  f"(lsn {start} -> {self.wal_applied_lsn})",
                  file=sys.stderr)

    def _frame_entries(self, first_lsn: int, frame: dict,
                       start: int) -> List[_Entry]:
        """The queue entries one journal frame replays as: its edges with
        LSN > ``start``, numbered from ``first_lsn``.  A record that no
        longer decodes (CRC-clean but unreadable) is skipped, counted in
        ``replay_skipped``, and still consumes its LSN."""
        now = time.monotonic()
        entries: List[_Entry] = []
        if "body" in frame:
            # The request as it arrived: unwrap and decode it the way
            # the front door did; ``skip`` holds the positions that were
            # invalid then and so never got an LSN.
            unwrapped = unwrap_edge_body(frame["body"])
            skip = set(frame.get("skip", ()))
            lsn = first_lsn
            for position, edge in enumerate(
                    self._decode(unwrapped[0] if unwrapped else ())):
                if position in skip:
                    continue
                if lsn > start:
                    if edge is None:
                        self.replay_skipped += 1
                    else:
                        entries.append(_Entry(edge, None, now, lsn))
                lsn += 1
            return entries
        for i, item in enumerate(frame.get("entries", ())):
            lsn = first_lsn + i
            if lsn <= start:
                continue        # the checkpoint already covers it
            try:
                edge = edge_from_json(item["e"])
                offset = item.get("o")
                if offset is not None:
                    path, position = offset
                    offset = (str(path), int(position))
            except (CodecError, KeyError, TypeError, ValueError,
                    AttributeError):
                self.replay_skipped += 1
                continue
            entries.append(_Entry(edge, offset, now, lsn))
        return entries

    def _deliver(self, name: str, match) -> None:
        record = match_record(name, match)
        line = None
        if self.match_sink is not None:
            line = json.dumps(record, sort_keys=True)
            self._write_match(name, match, record, line)
        self.hub.publish(record, line)
        self.matches_delivered += 1

    def _write_match(self, name: str, match, record: dict,
                     line: str) -> None:
        """Write one match (``line`` is ``record`` encoded) to the log
        under retry + circuit breaker.

        A write that fails all retries (or arrives while the breaker is
        open) is dead-lettered rather than lost silently, and the tenant
        degrades until the log recovers.
        """
        if not self.sink_breaker.allow():
            self.sink_write_errors += 1
            self.dead_letters.record("sink_circuit_open", record)
            return
        try:
            call_with_retry(self.match_sink, name, match, line=line,
                            policy=_SINK_RETRY)
        except OSError as exc:
            self.sink_breaker.record_failure()
            if self.sink_breaker.state == "open":
                self.health.set_state(
                    "degraded", f"match log failing: {exc!r}")
            self.sink_write_errors += 1
            self.dead_letters.record("sink_write", record, error=exc)
            return
        self.sink_breaker.record_success()
        if self.health.reason.startswith("match log failing"):
            self.health.set_state("healthy")

    # ------------------------------------------------------------------ #
    # Producer surface
    # ------------------------------------------------------------------ #
    def next_server_timestamp(self) -> float:
        """The next tick of the server-assigned clock; call it only in
        the admission hold (from a batch :meth:`_admit` builds)."""
        self._server_clock += 1.0
        return self._server_clock

    def ingest_edges(self, edges: Iterable[StreamEdge]
                     | Callable[[], Iterable[StreamEdge]], *,
                     offset: Optional[tuple] = None) -> int:
        """Journal and enqueue prepared edges; returns how many were
        admitted.

        The batch is fsynced before this returns — an admitted edge is
        durable by the time the caller hears so — and then enters the
        queue, waiting for room while it is full; raises
        :class:`~repro.service.queues.QueueClosed` once shutdown has
        begun.  ``offset`` tags the *last* edge with its source resume
        position (file tailers use this).  ``edges`` may be a callable
        returning the edges instead: the tenant calls it in its
        admission hold, so it may draw :meth:`next_server_timestamp`
        stamps (the file tailer does).
        """
        ack, commit = self._admit(
            lambda: (list(edges() if callable(edges) else edges), ()),
            offset=offset)
        if commit is not None:
            commit()
        return ack["accepted"]

    def _admit(self, batch: Callable[[], Tuple[List[StreamEdge],
                                               Sequence[int]]], *,
               offset: Optional[tuple] = None,
               request_id: Optional[str] = None,
               body: Optional[bytes] = None,
               raise_on_sync_failure: bool = False, wake: bool = True
               ) -> Tuple[dict, Optional[Callable[[], None]]]:
        """The one admit path; returns the ack and the commit the caller
        owes before sending it (``None`` when nothing is owed).

        ``batch()`` returns the edges and the positions of the invalid
        records (``skip``).  It runs in the admission hold that also
        journals them, so the server stamps it draws are in admission
        order.

        The frame carries ``request_id`` and the invalid count, so a
        batch with no valid edge still journals its request id.  The
        commit group-commits (see :meth:`_wal_sync` for
        ``raise_on_sync_failure``) and releases the edges into the queue
        whole — consecutive LSNs, ``offset`` tagging the *last* edge — in
        journal order, waking the worker only with ``wake``.  ``body`` is
        the request text the edges were decoded from: given one, that is
        what the frame holds, otherwise the edges are encoded again.  No
        edge and no request id is nothing to recover: that ack costs no
        frame and no fsync."""
        with self._admission_lock:
            edges, skip = batch()
            invalid = len(skip)
            if not edges and request_id is None:
                return {"accepted": 0, "invalid": invalid,
                        "position": self._admitted_edges,
                        "durable": True}, None
            self.queue.check_open()
            if body is None:
                payload = [{"e": edge_to_json(edge)} for edge in edges]
                if offset is not None:
                    payload[-1]["o"] = list(offset)
                journal = functools.partial(
                    self.wal.append, payload, rid=request_id,
                    invalid=invalid)
            else:
                journal = functools.partial(
                    self.wal.append_body, body, len(edges),
                    rid=request_id, skip=skip)
            last_lsn, ticket = call_with_retry(journal, policy=_WAL_RETRY)
            self._admitted_edges += len(edges)
            ack = {"accepted": len(edges), "invalid": invalid,
                   "position": self._admitted_edges, "durable": True}
            if request_id is not None:
                # Before the release, deliberately: once an edge can be
                # applied (and checkpointed), its request id must already
                # be recoverable — otherwise a crash between apply and
                # remember would turn a retry into a double delivery.
                self.dedup.put(request_id, ack)

        def commit() -> None:
            try:
                self._wal_sync(ticket, raise_on_failure=raise_on_sync_failure)
            finally:
                # Released even when the sync failed, as the batch is
                # journaled: a held batch would stall every later one.
                # A request id with no edge took no LSN: nothing to hold.
                if edges:
                    self._release(last_lsn - len(edges) + 1,
                                  (edges, offset), wake)
        return ack, commit

    def _release(self, first_lsn: int, batch: tuple, wake: bool) -> None:
        """Hand a committed batch to the queue in journal order: hold it
        until every batch of lower LSN is released, then enqueue the run
        of consecutive ones that is complete."""
        with self._release_lock:
            held = self._held
            held[first_lsn] = batch
            while self._next_lsn in held:
                first = self._next_lsn
                edges, offset = held.pop(first)
                self._next_lsn = first + len(edges)
                try:
                    self.queue.put_batch(edges, first_lsn=first,
                                         offset=offset, wake=wake)
                except QueueClosed:
                    pass    # shutting down: the next boot replays it

    def _wal_sync(self, ticket: Optional[int], *,
                  raise_on_failure: bool = False) -> None:
        """Group-commit the journal up to ``ticket`` (everything when
        ``None``; retry ladder).

        On a sync that fails all retries the frames stay unsynced; the
        next successful sync (or segment rotation, or shutdown) carries
        them to disk.  File tailers swallow the failure (the tail file
        is its own source of truth and offsets only advance via
        checkpoints); the HTTP path passes ``raise_on_failure`` so the
        producer gets a 5xx instead of a durable-looking ack — its
        retry is made safe by the request-id dedup window."""
        try:
            call_with_retry(self.wal.sync, ticket, policy=_WAL_RETRY)
        except OSError as exc:
            self.wal_sync_errors += 1
            self.health.set_state("degraded", f"WAL fsync failing: {exc!r}")
            if raise_on_failure:
                raise
            return
        if self.health.reason.startswith("WAL fsync failing"):
            self.health.set_state("healthy")

    def ingest_json(self, records: Sequence[dict], *,
                    request_id: Optional[str] = None,
                    dlq_replay: bool = False,
                    body: Optional[bytes] = None) -> dict:
        """Decode, journal and enqueue a batch of JSON edge objects.

        Returns ``{"accepted": n, "invalid": m, "position": p, "durable":
        true}`` where ``position`` is the number of edges admitted since
        boot, and only once the batch's journal frame is fsynced
        (ack-after-durable).  Malformed records are counted, not fatal.
        Under ``timestamps = "server"`` every record is stamped with the
        tenant clock (client timestamps rejected).

        A configured rate limit is all-or-nothing per batch: either every
        record is admitted or :class:`RateLimited` carries the wait after
        which the *same* batch can be resent — partial admission would
        make 429 retries unsafe for order-sensitive producers.

        ``request_id`` — any opaque string the producer chooses — makes
        retries exactly-once: the ack is remembered in a bounded dedup window
        (journaled and checkpointed), and a retry after a lost ack gets
        the cached ack back, marked ``"deduplicated": true``, instead of
        re-admitting the batch — once the journal is fsynced, since the
        first attempt may have failed its sync.  The dedup entry is
        recorded *before* the edges enter the queue, so no crash
        interleaving can checkpoint applied edges without their request
        id.

        ``dlq_replay`` marks the batch as a dead-letter re-ingest
        (``repro dlq replay``) and counts it in ``dlq_replayed``.

        ``body`` is the request text ``records`` were parsed from, when
        the caller has it: a tenant that stamps nothing journals those
        bytes as they are instead of encoding the edges again.
        That needs ASCII without NUL — then ``json.loads`` reads the
        text as UTF-8 whether it stands alone or inside the frame.
        """
        ack, commit = self.admit_json(
            records, request_id=request_id, dlq_replay=dlq_replay,
            body=body)
        if commit is not None:
            commit()
        return ack

    def admit_json(self, records: Sequence[dict], *,
                   request_id: Optional[str] = None,
                   dlq_replay: bool = False,
                   body: Optional[bytes] = None, wake: bool = True
                   ) -> Tuple[dict, Optional[Callable[[], None]]]:
        """:meth:`ingest_json` in two halves, for the event loop: decode
        and journal now, and return the ack with the step owed before it
        may be sent — ``None``, or a blocking call that fsyncs (raising
        ``OSError`` when every retry failed) and releases the batch into
        the queue, waking the worker only with ``wake``."""
        if request_id is not None:
            cached = self.dedup.get(request_id)
            if cached is not None:
                self.dedup_hits += 1
                ack = dict(cached)
                ack["deduplicated"] = True
                # The first attempt's fsync may have failed: the cached
                # ack claims durability only once the journal has it (a
                # no-op when nothing is pending).
                return ack, lambda: self._wal_sync(None, raise_on_failure=True)
        if self.rate_limiter is not None and records:
            wait = self.rate_limiter.try_acquire(len(records))
            if wait > 0:
                raise RateLimited(wait)
        stamp = self.config.timestamps == "server"
        if stamp or body is None or not body.isascii() or b"\x00" in body:
            body = None

        def batch():    # run in the admission hold: it may draw stamps
            slots = self._decode(records, stamp=stamp)
            edges = [edge for edge in slots if edge is not None]
            skip = [position for position, edge in enumerate(slots)
                    if edge is None] if len(edges) != len(slots) else ()
            return edges, skip
        ack, commit = self._admit(
            batch, request_id=request_id, body=body,
            raise_on_sync_failure=True, wake=wake)
        if dlq_replay:
            self.dlq_replayed += ack["accepted"]
        return ack, commit

    def _decode(self, records: Sequence, *,
                stamp: bool = False) -> List[Optional[StreamEdge]]:
        """One slot per record: its edge, or ``None`` where it is not a
        valid one.  ``stamp`` assigns server timestamps (and refuses
        client ones), so it decodes in the admission hold only.  Ingest
        and WAL replay both decode through this."""
        slots: List[Optional[StreamEdge]] = []
        for record in records:
            try:
                if stamp:
                    if isinstance(record, dict) and "timestamp" in record:
                        raise CodecError(
                            "tenant assigns timestamps server-side; "
                            "remove the timestamp field")
                    edge = edge_from_json(
                        record, default_timestamp=self.next_server_timestamp())
                else:
                    edge = edge_from_json(record)
            except CodecError:
                edge = None
            slots.append(edge)
        return slots

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def start_worker(self) -> None:
        """Start the drain thread (idempotent)."""
        if self._worker is not None:
            return
        self._worker = threading.Thread(
            target=self._worker_loop, daemon=True,
            name=f"repro-tenant-{self.config.name}")
        self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            ready = self.queue.wait(0.1)
            if self._aborted:
                return
            if not ready:
                if self.queue.closed:
                    return
                continue
            with self.safe.locked():
                entries, _closed = self.queue.get_batch(
                    self.config.batch_size, timeout=0)
                if entries:
                    self._apply(entries)

    def apply_released(self) -> None:
        """Apply every released entry on the calling thread — the event
        loop, right after it acked a WAL tenant's batch — in chunks of
        ``batch_size``.  Returns at once when another thread holds the
        session lock (the worker, a checkpoint, a stats read): the
        loop never waits on it.  It then wakes the worker, which applies
        these entries as soon as the holder lets go, not at its next
        poll."""
        if self._aborted:
            return
        with self.safe.locked(blocking=False) as session:
            if session is None:
                self.queue.wake()
            while session is not None:
                entries, _closed = self.queue.get_batch(
                    self.config.batch_size, timeout=0)
                if not entries:
                    return
                self._apply(entries)

    def _apply(self, entries: List) -> None:
        """Process one dequeued batch (session lock held), isolating
        poison edges."""
        try:
            self._process(entries)
        except Exception as exc:   # keep the service alive
            self._handle_batch_failure(entries, exc)

    def _handle_batch_failure(self, entries: List, exc: Exception) -> None:
        """Retry a failed batch edge-by-edge (session lock held),
        dead-lettering the poison arrivals — one bad edge must not void
        its whole batch (and must not vanish into a counter)."""
        self.worker_errors += 1
        print(f"[repro.service] tenant {self.config.name!r} worker "
              f"error: {exc!r}; isolating a batch of {len(entries)}",
              file=sys.stderr)
        for entry in entries:
            try:
                self._process([entry])
            except Exception as poison:
                self.worker_errors += 1
                self.dead_letters.record(
                    "poison_edge", edge_to_json(entry.edge), error=poison)
                # The replay cursor must move past the poison, or
                # recovery would resend it forever.
                self.edges_offered += 1
                if entry.offset is not None:
                    path, position = entry.offset
                    self.source_offsets[path] = position
                if entry.lsn > self.wal_applied_lsn:
                    self.wal_applied_lsn = entry.lsn

    def _process(self, entries: List) -> None:
        with self.safe.locked() as session:
            current = session.current_time
            accepted: List[StreamEdge] = []
            for entry in entries:
                if entry.edge.timestamp <= current:
                    self.rejected_nonmonotonic += 1
                else:
                    accepted.append(entry.edge)
                    current = entry.edge.timestamp
            if accepted:
                if self.config.duplicate_policy == "raise":
                    # Per-edge so one in-window duplicate cannot void the
                    # rest of the batch.
                    for edge in accepted:
                        try:
                            session.ingest([edge])
                        except ValueError:
                            self.rejected_duplicate += 1
                else:
                    session.ingest(accepted)
            # Position and tail offsets advance only once the arrivals
            # are actually in the engine — the checkpoint barrier reads
            # them under this same lock.
            self.edges_offered += len(entries)
            offsets, applied = self.source_offsets, self.wal_applied_lsn
            for entry in entries:
                if entry.offset is not None:
                    path, position = entry.offset
                    offsets[path] = position
                if entry.lsn > applied:
                    applied = entry.lsn
            self.wal_applied_lsn = applied

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict:
        """Run one checkpoint barrier; returns the metadata written.

        Seals the match log and captures session + position atomically
        (see the module docstring), writing the envelope via
        write-to-temp + rename so a crash mid-checkpoint keeps the
        previous capture intact.  The previous capture is first rotated
        down the keep-last-K chain (once, *outside* the write retry
        loop — retrying a rotation would double-shift the chain), so
        even a crash between the rotation and the replace leaves
        ``checkpoint.pkl.1`` restorable.  The metadata records the applied
        WAL position and the dedup window; journal segments wholly
        covered by the *oldest* capture in the chain are then reclaimed.
        """
        started = time.perf_counter()
        with self.safe.locked() as session:
            sealed = (self.match_sink.rotate()
                      if self.match_sink is not None else -1)
            meta = {
                "tenant": self.config.name,
                "edges_offered": self.edges_offered,
                "edges_pushed": session.edges_pushed,
                "current_time": session.current_time,
                "server_clock": self._server_clock,
                "sealed_segment": sealed,
                "tail_offsets": dict(self.source_offsets),
                "wal_lsn": self.wal_applied_lsn,
                "dedup": self.dedup.snapshot(),
            }
            from ..persistence import save_session

            self._rotate_checkpoint_chain()

            def write() -> None:
                faults.fire("checkpoint.write")
                tmp = self.checkpoint_path + ".tmp"
                with open(tmp, "wb") as handle:
                    save_session(session, handle, meta=meta)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.checkpoint_path)

            try:
                call_with_retry(write, policy=_CHECKPOINT_RETRY)
            except OSError as exc:
                self.checkpoint_failures += 1
                self.checkpoint_breaker.record_failure()
                if self.checkpoint_breaker.state == "open":
                    self.health.set_state(
                        "degraded", f"checkpoints failing: {exc!r}")
                raise
            self.checkpoint_breaker.record_success()
            if self.health.reason.startswith("checkpoints failing"):
                self.health.set_state("healthy")
        self.checkpoints_written += 1
        self.last_checkpoint_seconds = round(
            time.perf_counter() - started, 4)
        self._chain_lsns.append(meta["wal_lsn"])
        if len(self._chain_lsns) > self.checkpoint_keep:
            del self._chain_lsns[:-self.checkpoint_keep]
        if len(self._chain_lsns) == self.checkpoint_keep:
            try:
                self.wal.reclaim(self._chain_lsns[0])
            except OSError:     # retention is best-effort
                pass
        return meta

    def _rotate_checkpoint_chain(self) -> None:
        """Shift ``checkpoint.pkl`` → ``.1`` → ``.2`` … dropping the
        oldest, so the barrier about to run never overwrites the only
        good capture."""
        paths = self.checkpoint_chain()
        for i in range(len(paths) - 1, 0, -1):
            if os.path.exists(paths[i - 1]):
                try:
                    os.replace(paths[i - 1], paths[i])
                except OSError:     # keep the newest where boot looks
                    pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, timeout: float = 30.0) -> bool:
        """Close the queue and wait for the worker to finish the
        backlog; ``True`` when fully drained."""
        self.queue.close()
        if self._worker is not None:
            self._worker.join(timeout)
            return not self._worker.is_alive()
        return True

    def abort(self) -> None:
        """Simulate a crash: stop the worker without draining,
        checkpointing, or sealing sinks.  State on disk is left exactly
        as a ``SIGKILL`` would leave it."""
        self._aborted = True
        self.queue.close()
        if self._worker is not None:
            self._worker.join(5.0)
        if self.match_sink is not None:
            self.match_sink.abort()
        self.wal.abort()

    def close_sinks(self) -> None:
        """Flush and close the match log (idempotent)."""
        if self.match_sink is not None:
            self.match_sink.close()

    def close_wal(self) -> None:
        """Flush, fsync and close the journal (idempotent)."""
        try:
            self.wal.close()
        except OSError as exc:  # pragma: no cover - disk trouble
            print(f"[repro.service] tenant {self.config.name!r} WAL "
                  f"close failed: {exc!r}", file=sys.stderr)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def status(self) -> dict:
        """A JSON-able runtime snapshot (the ``/stats`` payload): the
        name, the health reason and :attr:`STATS`."""
        with self.safe.locked() as session:
            queries, pushed = session.names(), session.edges_pushed
            stats, offsets = session.session_stats(), dict(self.source_offsets)
        wal = {**self.wal.counters(), **snapshot(
            self, self.WAL_STATS, applied_lsn=self.wal_applied_lsn,
            dedup_window=len(self.dedup), sync_errors=self.wal_sync_errors)}
        limit = None
        if self.rate_limiter is not None:
            limit = self.rate_limiter.counters()
        breakers = {"match_log": self.sink_breaker.counters(),
                    "checkpoint": self.checkpoint_breaker.counters()}
        return {"name": self.config.name,
                "health_reason": self.health.reason,
                **snapshot(self, self.STATS, queries=queries,
                           edges_pushed=pushed, health=self.health.state,
                           subscribers=self.hub.subscriber_count(),
                           queue=self.queue.counters(),
                           dead_letters=self.dead_letters.counters(),
                           breakers=breakers, rate_limit=limit, wal=wal,
                           session=stats, source_offsets=offsets,
                           tails={tailer.config.path: tailer.status()
                                  for tailer in self.tailers})}


class ServiceGateway:
    """The long-running ingestion gateway (see the module docstring).

    Parameters
    ----------
    config:
        A validated :class:`~repro.service.config.ServerConfig`.
    start_workers:
        Start each tenant's drain thread immediately (tests sometimes
        defer this to control interleavings).
    """

    #: What :meth:`status` reports (see :mod:`repro.stats`): the root of
    #: the ``/stats`` tree that ``/metrics`` renders.
    STATS: Table = {
        "uptime_seconds": (GAUGE, "Seconds since the gateway started."),
        "checkpoint_interval": (SETTING, "Seconds between periodic "
                                         "checkpoints (0 = none)."),
        "tenants": Group(Tenant.STATS, "", label="tenant",
                         count="Number of hosted tenants."),
    }

    def __init__(self, config: ServerConfig, *,
                 start_workers: bool = True) -> None:
        self.config = config.validate()
        os.makedirs(config.state_dir, exist_ok=True)
        self.started_at = time.time()
        # Chaos harness: REPRO_FAULTS overrides the [faults] table; the
        # plan is process-wide and uninstalled again at shutdown.
        self._fault_plan = faults.FaultPlan.from_env()
        if self._fault_plan is None and config.faults is not None:
            self._fault_plan = faults.FaultPlan.from_dict(config.faults)
        if self._fault_plan is not None:
            faults.install(self._fault_plan)
        self.tenants: Dict[str, Tenant] = {}
        for tenant_config in config.tenants:
            self.tenants[tenant_config.name] = Tenant(
                tenant_config, config.state_dir,
                checkpoint_keep=config.checkpoint_keep)
        self._checkpointer: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        self._server = None         # attached by repro.service.http
        if start_workers:
            self.start_workers()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start_workers(self) -> None:
        """Start every tenant worker and the checkpoint scheduler."""
        for tenant in self.tenants.values():
            tenant.start_worker()
        interval = self.config.checkpoint_interval
        if interval > 0 and self._checkpointer is None:
            self._checkpointer = threading.Thread(
                target=self._checkpoint_loop, args=(interval,),
                daemon=True, name="repro-checkpointer")
            self._checkpointer.start()

    def start_tailers(self) -> None:
        """Start the configured file tailers (resuming from checkpointed
        offsets)."""
        for tenant in self.tenants.values():
            for tail in tenant.config.tails:
                tailer = FileTailer(
                    tenant, tail,
                    start_offset=tenant.source_offsets.get(tail.path, 0))
                tailer.start()
                tenant.tailers.append(tailer)

    def start_background(self) -> "ServiceGateway":
        """Start workers, tailers, and the HTTP front door on a
        background thread; returns ``self``.  The listener's actual port
        is in :attr:`port` (useful with ``port = 0``)."""
        from .http import ServiceHTTPServer
        self.start_workers()
        self.start_tailers()
        self._server = ServiceHTTPServer(self)
        self._server.start_background()
        return self

    @property
    def port(self) -> Optional[int]:
        """The bound HTTP port, once a listener is up."""
        return self._server.port if self._server is not None else None

    def _checkpoint_loop(self, interval: float) -> None:
        while not self._stop_event.wait(interval):
            self.checkpoint_all()

    def checkpoint_all(self) -> Dict[str, dict]:
        """Checkpoint every tenant; returns each barrier's metadata."""
        results = {}
        for name, tenant in self.tenants.items():
            try:
                results[name] = tenant.checkpoint()
            except Exception as exc:    # pragma: no cover - disk trouble
                print(f"[repro.service] checkpoint of {name!r} failed: "
                      f"{exc!r}", file=sys.stderr)
        return results

    def shutdown(self, *, drain_timeout: float = 30.0) -> None:
        """Graceful shutdown: stop intake, drain queues, take a final
        checkpoint, close sinks.  Idempotent and safe from any thread.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self._stop_event.set()
        for tenant in self.tenants.values():
            for tailer in tenant.tailers:
                tailer.stop()
        if self._server is not None:
            self._server.stop()
        for tenant in self.tenants.values():
            tenant.drain(drain_timeout)
        if self._checkpointer is not None:
            self._checkpointer.join(5.0)
        for tenant in self.tenants.values():
            try:
                tenant.checkpoint()
            except Exception as exc:    # pragma: no cover - disk trouble
                print(f"[repro.service] final checkpoint of "
                      f"{tenant.config.name!r} failed: {exc!r}",
                      file=sys.stderr)
            tenant.close_sinks()
            tenant.close_wal()
        if self._fault_plan is not None and \
                faults.current() is self._fault_plan:
            faults.install(None)

    def abort(self) -> None:
        """Crash simulation: halt everything without draining or
        checkpointing (state on disk stays as-is)."""
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self._stop_event.set()
        for tenant in self.tenants.values():
            for tailer in tenant.tailers:
                tailer.stop()
        if self._server is not None:
            self._server.stop()
        for tenant in self.tenants.values():
            tenant.abort()
        if self._fault_plan is not None and \
                faults.current() is self._fault_plan:
            faults.install(None)

    def __enter__(self) -> "ServiceGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def tenant(self, name: str) -> Tenant:
        """The named tenant (``KeyError`` if absent)."""
        return self.tenants[name]

    def default_tenant(self) -> Tenant:
        """The sole tenant, for single-tenant deployments' unprefixed
        endpoints (``ValueError`` when several are hosted)."""
        if len(self.tenants) != 1:
            raise ValueError(
                "gateway hosts several tenants; address one by name")
        return next(iter(self.tenants.values()))

    def status(self) -> dict:
        """A JSON-able snapshot of the whole gateway (``/stats``): its
        :attr:`STATS` tree."""
        return snapshot(
            self, self.STATS,
            uptime_seconds=round(time.time() - self.started_at, 3),
            checkpoint_interval=self.config.checkpoint_interval,
            tenants={name: tenant.status()
                     for name, tenant in self.tenants.items()})

    def healthz(self) -> dict:
        """The ``/healthz`` payload: the supervision tree's health.

        ``ok`` is ``True`` only while every tenant is ``healthy`` (an
        orchestrator's readiness bit); per-tenant nodes carry the state,
        the reason and the bounded transition history — enough to see a
        dip *and* the recovery.
        """
        tenants = {name: tenant.health.snapshot()
                   for name, tenant in self.tenants.items()}
        return {
            "ok": all(node["state"] == "healthy"
                      for node in tenants.values()),
            "tenants": tenants,
        }

    def wait_idle(self, timeout: float = 30.0,
                  poll: float = 0.02) -> bool:
        """Block until every queue is drained *and* processed (positions
        catch up to admissions); ``True`` on success.  A test/bench
        convenience, not a production API."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(t.queue.depth() == 0
                   and t.edges_offered >= t.queue.dequeued
                   and t.queue.dequeued == t.queue.enqueued
                   for t in self.tenants.values()):
                return True
            time.sleep(poll)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServiceGateway({len(self.tenants)} tenants, "
                f"state_dir={self.config.state_dir!r})")
