"""Checkpointing: save/restore a live matcher's — or a whole session's — state.

Long-running monitors need restarts without losing the window's partial
matches (rebuilding them would require replaying up to ``|W|`` of history).
Checkpoints capture an entire engine (window contents, expansion-list
stores, compiled specs and statistics) or an entire
:class:`~repro.api.Session` (every registered engine plus the lock-step
clock) via pickle, wrapped in a versioned envelope so stale checkpoint
files fail loudly instead of deserialising garbage.

Session checkpoints deliberately drop sinks and callbacks — they routinely
close over open files and lambdas; re-attach them after restore.

The restore-equals-continuous-run property is covered by
``tests/test_persistence.py`` and ``tests/test_session.py``: running a
stream through a checkpoint/restore cycle yields exactly the matches and
state of an uninterrupted run.

Security note: checkpoints are pickles — only restore files you wrote.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import BinaryIO, Optional, Tuple, Union

from .api import Session
from .matcher import MatcherBase

#: Bump when the engine's state layout changes incompatibly.
#: (v2: engines share MatcherBase state; sessions became checkpointable.
#: v3: join-key indexes on stores, window id multisets, query label index,
#: index/scan stats counters.
#: v4: shared-stream sessions — shared window buffers + routing index +
#: expiry subscriptions, live-edge-id registries became id → timestamp
#: maps, window expiry-subscriber lists.
#: v5: session sub-plan sharing — refcounted SharedSubplanStore registry,
#: multi-observer MS-tree leaf cascades, per-global-store anchor and
#: dependency registries (node slots dropped), subplan_reuses stats
#: counter.  Shared stores are referenced both by the registry and by
#: every consuming engine, so pickling keeps them single-copy on disk
#: and restore preserves the sharing identity.
#: v6: sharded sessions — a ShardedSession checkpoints as the facade
#: state (assignments, ordinals, group mirrors, clock) plus every
#: shard's sub-session collected into the same envelope; each shard's
#: stores stay single-copy via the pickle memo, and restore re-spawns
#: the worker shards and hands each its sub-session back.  EngineConfig
#: gained sharding/shards fields.
#: v7: service checkpoints — session envelopes may carry an optional
#: ``meta`` dict (JSON-able barrier bookkeeping: stream position, sealed
#: match-log segment, tail-source offsets) written atomically with the
#: session state, so the gateway's crash recovery can resume producers
#: and truncate uncommitted match segments from one consistent capture.
#: v8: checksummed containers — the pickled envelope is wrapped in a
#: CRC32 frame on disk, so a truncated or bit-flipped checkpoint is
#: detected *before* unpickling and surfaces as a typed
#: :class:`CheckpointCorruptError` (path + reason) that the service
#: layer catches to fall back down its keep-last-K checkpoint chain.
#: Meta grew WAL bookkeeping (``wal_lsn``, the dedup-window snapshot).
#: v9: trie-compiled predicate routing — sessions and sharded facades
#: carry a :class:`~repro.core.labeltrie.PredicateRouter` (per-position
#: label tries serialized as flat pattern lists and rebuilt on load),
#: query label indexes are three-way (exact / predicate atoms / generic),
#: and the facade's ``_query_routes`` records gained the predicate atom
#: triples.  Labels may be :class:`~repro.core.query.Prefix` patterns.
#: v10: one admission stage and one route index — sessions and sharded
#: facades both carry a :class:`~repro.ingest.Admission` (stream clock,
#: window groups, accepted-arrival count) and a
#: :class:`~repro.ingest.RouteIndex` in place of the session's
#: ``_groups``/``_routes``/``_pred_router`` fields and the facade's group
#: mirrors and per-shard triple refcounts; shared windows no longer carry
#: a session expiry subscriber.  Files without the CRC frame are refused
#: before unpickling.
#: v11: plan kinds — a one-edge query's engine is *stateless* (no
#: expansion-list store, no sub-plan record, no live-edge registry
#: entries in a session; its answers are re-derived from the window, so
#: its shared-window view carries the ``since`` watermark), and every
#: stored-plan engine carries the match-once registry (live edge id ->
#: sub-query indexes that stored it) that expiry pops instead of
#: re-matching labels.  A v10 engine has neither field.
#: v12: one expiry path — windows carry only their deque and clock (the
#: id multiset and the expiry-subscriber lists are gone; a shared window
#: prunes its bearer index from what its policy returns), session members
#: carry no pending-expiry buffer and sessions no dirty set, and a
#: sharded facade no per-instance batch/overlap/deadline attributes.
#: v13: one record per query — both session kinds carry one ``name ->
#: record`` table, route payloads and the one roster per window group
#: hold ``(ordinal, record)``, session members' live-edge registries stay
#: empty, and engines and ``EngineConfig`` carry no guard.
#: v14: query graphs pickle without their compiled label index (a
#: mask-keyed hash index rebuilt on first use); a v13 file carries the
#: old three-tier tuple, which the new probe would misread.
#: v15: join-key functions are generated per shape and rebuilt on restore
#: — a ``LevelIndex`` pickles as ``(refs, newest_first, buckets)`` and an
#: engine without its probe-side ref tables; an MS-tree leaf carries no
#: child set and a match no identity key until one is asked for.)
CHECKPOINT_VERSION = 15

_MAGIC = b"timingsubg-checkpoint"
#: On-disk container prefix of the CRC frame; a file without it is not
#: a checkpoint and is never handed to ``pickle``.
_FRAME_MAGIC = b"TSGCKPT\x02"
_FRAME_HEADER = struct.Struct("<II")    # crc32(payload), len(payload)

_PathOrFile = Union[str, BinaryIO]


class CheckpointError(RuntimeError):
    """Raised for malformed or version-incompatible checkpoint files."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file exists but cannot be trusted — truncated,
    bit-flipped, or an unreadable pickle.  Carries ``path`` and
    ``reason`` so operators see *which* artifact died and recovery code
    can fall back (older checkpoint, deeper WAL replay) instead of
    refusing to boot."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"corrupt checkpoint {path}: {reason}")
        self.path = path
        self.reason = reason


def _dump(envelope: dict, target: _PathOrFile) -> None:
    payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    blob = _FRAME_MAGIC + _FRAME_HEADER.pack(
        zlib.crc32(payload) & 0xFFFFFFFF, len(payload)) + payload
    if isinstance(target, str):
        with open(target, "wb") as handle:
            handle.write(blob)
    else:
        target.write(blob)


def _load(source: _PathOrFile) -> dict:
    if isinstance(source, str):
        path = source
        with open(source, "rb") as handle:
            blob = handle.read()
    else:
        path = getattr(source, "name", "<stream>")
        blob = source.read()
    if not blob.startswith(_FRAME_MAGIC):
        raise CheckpointError("not a timingsubg checkpoint file")
    head = blob[len(_FRAME_MAGIC):len(_FRAME_MAGIC) + _FRAME_HEADER.size]
    if len(head) < _FRAME_HEADER.size:
        raise CheckpointCorruptError(path, "truncated container header")
    crc, length = _FRAME_HEADER.unpack(head)
    payload = blob[len(_FRAME_MAGIC) + _FRAME_HEADER.size:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            path, f"payload is {len(payload)} bytes, header promised "
                  f"{length} (truncated or overwritten)")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointCorruptError(path, "payload CRC mismatch")
    try:
        envelope = pickle.loads(payload)
    except Exception as exc:
        # A garbled pickle raises anything from EOFError to AttributeError
        # depending on where the damage lands; all of them mean the same
        # operational fact.
        raise CheckpointCorruptError(path, f"unreadable pickle: {exc!r}")
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise CheckpointError("not a timingsubg checkpoint file")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} incompatible with "
            f"{CHECKPOINT_VERSION}")
    return envelope


def save_checkpoint(matcher, target: _PathOrFile) -> None:
    """Serialise one engine (and everything it holds) to ``target``.

    Works for any :class:`~repro.matcher.MatcherBase` engine — the Timing
    engine or a baseline.
    """
    envelope = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "matcher": matcher,
    }
    _dump(envelope, target)


def load_checkpoint(source: _PathOrFile):
    """Restore an engine saved with :func:`save_checkpoint`."""
    envelope = _load(source)
    matcher = envelope.get("matcher")
    if not isinstance(matcher, MatcherBase):
        raise CheckpointError(
            "checkpoint does not contain an engine "
            "(a TimingMatcher or baseline matcher)")
    return matcher


def save_session(session: Session, target: _PathOrFile, *,
                 meta: Optional[dict] = None) -> None:
    """Serialise a whole :class:`~repro.api.Session` (sans sinks/callbacks).

    ``meta`` rides in the envelope next to the session — the service
    layer stores barrier bookkeeping there (stream position, sealed
    match-log segment, tail offsets) so recovery reads one consistent
    capture instead of racing a sidecar file.  Retrieve it with
    :func:`load_session_meta`.
    """
    envelope = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "session": session,
    }
    if meta is not None:
        envelope["meta"] = meta
    _dump(envelope, target)


def load_session(source: _PathOrFile) -> Session:
    """Restore a session saved with :func:`save_session`."""
    return load_session_meta(source)[0]


def load_session_meta(source: _PathOrFile) -> Tuple[Session, Optional[dict]]:
    """Restore ``(session, meta)`` from a session checkpoint.

    ``meta`` is whatever dict :func:`save_session` was given, or ``None``
    for checkpoints written without one.
    """
    envelope = _load(source)
    session = envelope.get("session")
    if not isinstance(session, Session):
        raise CheckpointError("checkpoint does not contain a Session")
    return session, envelope.get("meta")
