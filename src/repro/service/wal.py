"""Per-tenant write-ahead log: durable admission with zero producer replay.

The gateway's original crash contract pushed durability onto clients —
after a restart, producers re-sent everything past the checkpointed
position.  The :class:`WriteAheadLog` moves that burden server-side:
every admitted batch is journaled *before* it enters the in-memory queue
and the ack is withheld until the journal is on disk, so an acknowledged
edge survives ``kill -9`` with no producer cooperation.  On boot the
tenant replays the log from the last checkpoint's WAL position and
reconstructs the exact session (and match log) the crash interrupted.

Log layout
----------
The log is a directory of fixed-name segments (``wal-00000001.log``,
``wal-00000002.log``, ...).  Each segment is a sequence of CRC32-framed
records::

    [u32 crc32(payload)] [u32 len(payload)] [payload bytes]

(little-endian header, ASCII JSON payload).  The first frame of every
segment is a header naming the base LSN — the log sequence number of the
first edge recorded in that segment.  Every subsequent frame journals one
admitted *batch* atomically, in one of two shapes, both carrying ``"n"``
(the batch's edge count), the producer's optional ``"rid"`` and the
``"invalid"`` record count when it is not zero::

    {"n": N, "entries": [{"e": edge_json, "o": [path, position]}, ...]}
    {"n": N, "skip": [positions], "body": <the request body, verbatim>}

``entries`` (:meth:`WriteAheadLog.append`) lists the admitted edges in
service codec JSON, with tail-source offset tags: file tailers,
server-stamped tenants, non-ASCII requests and every journal written
before ``body`` frames existed.  ``body``
(:meth:`WriteAheadLog.append_body`) is an HTTP/WebSocket request spliced
in as it arrived — a bare array, one edge object or the ``{"edges":
...}`` envelope — so admitting it costs no re-encoding; replay unwraps
and decodes it the way the front door did.  ``"skip"`` (present only
with ``"invalid"``) lists the positions that were not valid edges when
the batch was admitted, so replay numbers LSNs over the others without
judging validity again.  Edges are numbered with consecutive LSNs; a
frame covering ``n`` edges spans ``[base, base + n)`` whichever shape it
has, and a log may mix the two.  Journals are forward-only: a build
older than ``body`` frames reads one as an edge-free frame's worth of
nothing and mis-numbers what follows — do not roll back over a journal
that holds them.

A payload may not exceed 64 MiB — the ceiling recovery applies before
trusting a length field.  An append past it raises
:class:`WalFrameTooLarge` and writes nothing (the gateway answers 413):
a longer frame would be read back as corruption and take every later
frame with it.

Batch atomicity is what makes exactly-once composable with retries: a
frame torn by a crash is discarded *whole* during recovery, so a
producer that re-sends an unacknowledged batch (same ``request_id``)
can never double-deliver a prefix of it.

Durability
----------
Appends are buffered; :meth:`WriteAheadLog.sync` drives a group commit —
the first caller becomes the *leader*, optionally waits a gather window
(``fsync_interval_ms``) so concurrent appenders can pile on (skipped
once ``fsync_batch`` frames are pending), then flushes and fsyncs once
for everyone.  Callers whose frames were covered by a concurrent sync
return without touching the disk.  ``fsync_interval_ms = 0`` degrades to
plain sync-per-batch.

Recovery
--------
Opening a log scans every segment in order, validating frame CRCs.  A
torn tail (crash mid-write) is truncated off the final segment and
counted in ``truncated_bytes``; corruption *inside* the sequence (bad
disk, manual tampering — a bad frame, or a later segment whose base LSN
does not continue the one before it) truncates the log at the corruption
point, drops the later segments, and is loudly reported in
``corrupt_dropped_frames`` — boot proceeds on the surviving prefix
rather than refusing outright.  ``repro wal verify`` surfaces the same
scan as a preflight.

Retention is checkpoint-driven: :meth:`WriteAheadLog.reclaim` deletes
segments whose edges are all at or below the *oldest kept* checkpoint's
WAL position — never the newest's, so falling back down the checkpoint
chain always finds enough log to replay forward from.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import time
import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import faults
from ..stats import COUNTER, GAUGE, Table, snapshot

__all__ = [
    "WriteAheadLog", "WalCorruptError", "WalFrameTooLarge", "DedupIndex",
    "scan_segment", "inspect_wal",
]

#: Frame header: crc32(payload), payload length (little-endian u32 pair).
_FRAME = struct.Struct("<II")
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
#: Hard ceiling on one frame's payload — a corrupt length field must not
#: trigger a multi-GB allocation during recovery.  Appends refuse a
#: longer payload (:class:`WalFrameTooLarge`): recovery would read it as
#: corruption and truncate the log from there.
_MAX_PAYLOAD = 64 * 1024 * 1024
#: Where a ``body`` frame's head ends and the spliced request body starts.
_BODY_KEY = b',"body":'


class WalCorruptError(RuntimeError):
    """Raised when a WAL directory cannot be scanned at all (unreadable
    segment files, not frame-level corruption — that is *recovered*, not
    raised; see the module docstring)."""


class WalFrameTooLarge(ValueError):
    """Raised by :meth:`WriteAheadLog.append` / ``append_body`` for a
    batch whose frame would exceed the payload ceiling; nothing was
    written.  Not retryable: the producer must send smaller batches."""


def _segment_name(ordinal: int) -> str:
    return f"{_SEGMENT_PREFIX}{ordinal:08d}{_SEGMENT_SUFFIX}"


def _segment_ordinal(name: str) -> Optional[int]:
    if not (name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
    except ValueError:
        return None


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(zlib.crc32(payload) & 0xFFFFFFFF,
                       len(payload)) + payload


def _encode_frame(payload: dict) -> bytes:
    return _frame(_dumps(payload))


def _field_fault(payload: dict) -> Optional[str]:
    """Why a CRC-clean frame's fields cannot be trusted, or ``None``.
    Open, replay and the CLI read these fields as they are, so a
    wrong-typed one is corruption at its offset, like a bad checksum."""
    for field in ("base", "n", "invalid"):
        value = payload.get(field, 0)
        if type(value) is not int or value < 0:     # bool too
            return f"frame field {field!r} is not a non-negative integer"
    skip = payload.get("skip", [])
    if not isinstance(skip, list) \
            or any(type(position) is not int for position in skip):
        return "frame field 'skip' is not a list of integers"
    if not isinstance(payload.get("rid", ""), str):
        return "frame field 'rid' is not a string"
    if not isinstance(payload.get("entries", []), list):
        return "frame field 'entries' is not a list"
    return None


def scan_segment(path: str) -> dict:
    """Scan one segment file, validating every frame: its length, its
    CRC, its JSON object and the type of every field recovery reads.

    Returns ``{"frames": [...], "good_bytes": n, "torn_bytes": m,
    "error": reason_or_None}`` where ``frames`` holds the decoded
    payloads in order and ``good_bytes`` is the offset of the first
    invalid byte (== file size for a clean segment).  Never raises on
    corrupt *content*; unreadable files raise :class:`WalCorruptError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise WalCorruptError(f"cannot read WAL segment {path}: {exc}")
    frames: List[dict] = []
    offset = 0
    error: Optional[str] = None
    while offset < len(data):
        header = data[offset:offset + _FRAME.size]
        if len(header) < _FRAME.size:
            error = "torn frame header"
            break
        crc, length = _FRAME.unpack(header)
        if length > _MAX_PAYLOAD:
            error = f"implausible frame length {length}"
            break
        body = data[offset + _FRAME.size:offset + _FRAME.size + length]
        if len(body) < length:
            error = "torn frame payload"
            break
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            error = "frame CRC mismatch"
            break
        try:
            try:
                payload = json.loads(body)
            except RecursionError:
                # An authentic (CRC-clean) ``body`` frame whose spliced
                # request nests deeper than this stack can follow: keep
                # the head — its LSNs stay consumed — and drop the body.
                payload = json.loads(body.partition(_BODY_KEY)[0] + b"}")
        except ValueError:
            error = "frame payload is not JSON"
            break
        if not isinstance(payload, dict):
            error = "frame payload is not an object"
            break
        fault = _field_fault(payload)
        if fault is not None:
            error = fault
            break
        frames.append(payload)
        offset += _FRAME.size + length
    return {
        "frames": frames,
        "good_bytes": offset,
        "torn_bytes": len(data) - offset,
        "error": error,
    }


def inspect_wal(directory: str) -> dict:
    """A read-only report over a WAL directory (``repro wal inspect``).

    Safe to run against a live log — it only reads.  Returns segment
    summaries, total frame/edge counts, the LSN range, and any
    corruption found (torn tails and interior damage are distinguished
    by position: damage in a non-final segment is a real problem, a torn
    final tail is the expected crash signature).
    """
    segments: List[dict] = []
    total_edges = 0
    total_frames = 0
    errors: List[str] = []
    names = []
    if os.path.isdir(directory):
        names = sorted(
            (ordinal, name) for name in os.listdir(directory)
            if (ordinal := _segment_ordinal(name)) is not None)
    last_lsn = 0
    for position, (ordinal, name) in enumerate(names):
        path = os.path.join(directory, name)
        scan = scan_segment(path)
        base = None
        edges = 0
        data_frames = 0
        for frame in scan["frames"]:
            if "base" in frame and base is None:
                base = frame["base"]
            else:
                data_frames += 1
                edges += frame.get("n", 0)
        if base is not None:
            if position and base != last_lsn + 1:
                errors.append(
                    f"{name}: base LSN {base} leaves a hole after LSN "
                    f"{last_lsn} (interior corruption: frames are missing "
                    f"from the previous segment)")
            last_lsn = max(last_lsn, base + edges - 1)
        total_edges += edges
        total_frames += data_frames
        final = position == len(names) - 1
        if scan["error"] is not None and not final:
            errors.append(f"{name}: {scan['error']} "
                          f"(interior corruption, not a torn tail)")
        segments.append({
            "name": name,
            "ordinal": ordinal,
            "base_lsn": base,
            "frames": data_frames,
            "edges": edges,
            "bytes": scan["good_bytes"] + scan["torn_bytes"],
            "torn_bytes": scan["torn_bytes"],
            "error": scan["error"],
        })
    return {
        "directory": directory,
        "segments": segments,
        "frames": total_frames,
        "edges": total_edges,
        "last_lsn": last_lsn,
        "errors": errors,
    }


class DedupIndex:
    """A bounded ``request_id → cached ack`` map (exactly-once window).

    Producers attach an opaque ``request_id`` to ingest batches; the
    tenant journals it with the batch and remembers the ack here.  A
    retry after a lost ack gets the *cached* ack back instead of
    re-admitting the batch.  The window is bounded FIFO — a retry
    arriving after ``capacity`` newer requests have displaced its entry
    is treated as new, which is the standard dedup-window trade-off.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, request_id: str) -> Optional[dict]:
        """The cached ack for ``request_id``, or ``None``."""
        with self._lock:
            return self._entries.get(request_id)

    def put(self, request_id: str, ack: dict) -> None:
        """Remember (or refresh) the ack for ``request_id``."""
        with self._lock:
            if request_id in self._entries:
                self._entries[request_id] = ack
                return
            self._entries[request_id] = ack
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> List[List]:
        """JSON-able ``[[request_id, ack], ...]`` oldest-first — rides in
        the checkpoint meta so restarts keep the window."""
        with self._lock:
            return [[rid, ack] for rid, ack in self._entries.items()]

    def restore(self, items) -> None:
        """Reload a :meth:`snapshot` (checkpoint restore)."""
        with self._lock:
            self._entries.clear()
            for rid, ack in items or []:
                self._entries[str(rid)] = dict(ack)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


class WriteAheadLog:
    """A segmented, CRC-framed, group-commit write-ahead log.

    Parameters
    ----------
    directory:
        Segment directory (created if missing).  Opening scans and
        recovers it — see the module docstring.
    segment_bytes:
        Rotate to a fresh segment once the active one reaches this size.
    fsync_interval_ms:
        Group-commit gather window: the sync leader sleeps this long
        before fsyncing so concurrent appends share the commit.  ``0``
        syncs immediately.
    fsync_batch:
        Pending-frame threshold that skips the gather window.
    """

    #: What :meth:`counters` reports (see :mod:`repro.stats`).
    STATS: Table = {
        "appended_lsn": (GAUGE, "LSN of the last edge appended (0: none)."),
        "durable_lsn": (GAUGE, "LSN of the last edge fsynced."),
        "appends": (COUNTER, "Frames appended to the WAL."),
        "fsyncs": (COUNTER, "WAL fsyncs."),
        "bytes_written": (COUNTER, "Bytes appended to the WAL."),
        "segments": (GAUGE, "WAL segment files on disk."),
        "segments_created": (COUNTER, "WAL segments opened."),
        "segments_reclaimed": (COUNTER, "WAL segments deleted behind the "
                                        "oldest kept checkpoint."),
        "truncated_bytes": (COUNTER, "Torn-tail bytes truncated at open."),
        "corrupt_dropped_frames": (COUNTER, "Frames dropped at open past "
                                            "an interior corruption."),
    }

    def __init__(self, directory: str, *, segment_bytes: int = 4 * 1024 * 1024,
                 fsync_interval_ms: float = 0.0,
                 fsync_batch: int = 256) -> None:
        self.directory = directory
        self.segment_bytes = max(1024, int(segment_bytes))
        self.fsync_interval = max(0.0, float(fsync_interval_ms)) / 1000.0
        self.fsync_batch = max(1, int(fsync_batch))
        os.makedirs(directory, exist_ok=True)
        # _lock guards appends and state and is never held across an
        # fsync; _sync_lock serialises the group-commit leaders and
        # rotation, so no handle is closed while a leader fsyncs it (lock
        # order: _sync_lock before _lock).
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        #: LSN of the last appended / last durable edge (0 = empty log).
        self.appended_lsn = 0
        self.durable_lsn = 0
        # Frame sequence numbers drive durability tickets: rid-only
        # frames advance no LSN but still need an fsync before the ack.
        self._write_seq = 0
        self._synced_seq = 0
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.segments_created = 0
        self.segments_reclaimed = 0
        self.truncated_bytes = 0
        self.corrupt_dropped_frames = 0
        self._handle = None
        self._active_ordinal = 0
        self._active_bytes = 0
        self._segment_index: Dict[int, Tuple[int, int]] = {}
        self._recover()

    # ------------------------------------------------------------------ #
    # Open / recovery
    # ------------------------------------------------------------------ #
    def _segment_paths(self) -> List[Tuple[int, str]]:
        found = []
        for name in os.listdir(self.directory):
            ordinal = _segment_ordinal(name)
            if ordinal is not None:
                found.append((ordinal, os.path.join(self.directory, name)))
        return sorted(found)

    def _recover(self) -> None:
        segments = self._segment_paths()
        lsn = 0
        drop_rest = False
        for position, (ordinal, path) in enumerate(segments):
            scan = scan_segment(path)
            base = None
            edges = 0
            for frame in scan["frames"]:
                if base is None and "base" in frame:
                    base = frame["base"]
                else:
                    edges += frame.get("n", 0)
            if not drop_rest and position and base is not None \
                    and base != lsn + 1:
                # Reclaim only ever deletes *leading* segments, so only
                # the first survivor's base may sit past 1.  A jump later
                # on means the previous segment lost whole frames (cut at
                # a frame boundary, every CRC still checks): a hole.
                drop_rest = True
                print(f"[repro.service] WAL {path}: base LSN {base} leaves "
                      f"a hole after LSN {lsn} inside the sequence; "
                      f"truncating the log here and dropping later "
                      f"segments", file=sys.stderr)
            if drop_rest:
                # Everything after an interior corruption point is
                # unusable — its base LSNs would leave a hole.
                self.corrupt_dropped_frames += sum(
                    1 for f in scan["frames"] if "base" not in f)
                os.remove(path)
                continue
            final = position == len(segments) - 1
            if scan["error"] is not None:
                # Truncate the file at the last good frame boundary.
                with open(path, "r+b") as handle:
                    handle.truncate(scan["good_bytes"])
                self.truncated_bytes += scan["torn_bytes"]
                if not final:
                    drop_rest = True
                    print(f"[repro.service] WAL {path}: {scan['error']} "
                          f"inside the sequence; truncating the log here "
                          f"and dropping later segments",
                          file=sys.stderr)
            if base is None and not final:
                # A headerless *interior* segment means its frames are
                # gone entirely (filesystem damage, not a torn tail).
                # Later segments would sit past an LSN hole — keep the
                # prefix, drop the rest.
                drop_rest = True
                print(f"[repro.service] WAL {path}: interior segment "
                      f"lost its frames; truncating the log here and "
                      f"dropping later segments", file=sys.stderr)
            if base is None:
                # Headerless (empty or torn-at-birth) segment: adopt it
                # as a continuation — rewrite the header in place.
                base = lsn + 1
                with open(path, "wb") as handle:
                    frame = _encode_frame({"base": base})
                    handle.write(frame)
                    handle.flush()
                    os.fsync(handle.fileno())
            # The first survivor's base sits past 1 when earlier segments
            # were reclaimed — LSN accounting simply follows the survivors.
            self._segment_index[ordinal] = (base, edges)
            lsn = base + edges - 1
            self._active_ordinal = ordinal
        self.appended_lsn = lsn
        self.durable_lsn = lsn
        if not self._segment_index:
            self._open_segment(1, base=1)
        else:
            path = os.path.join(
                self.directory, _segment_name(self._active_ordinal))
            self._handle = open(path, "ab")
            self._active_bytes = os.path.getsize(path)

    def _open_segment(self, ordinal: int, *, base: int) -> None:
        path = os.path.join(self.directory, _segment_name(ordinal))
        self._handle = open(path, "ab")
        frame = _encode_frame({"base": base})
        self._handle.write(frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._active_ordinal = ordinal
        self._active_bytes = len(frame)
        self._segment_index[ordinal] = (base, 0)
        self.segments_created += 1

    # ------------------------------------------------------------------ #
    # Append / sync
    # ------------------------------------------------------------------ #
    def append(self, entries: List[dict], *, rid: Optional[str] = None,
               invalid: int = 0) -> Tuple[int, int]:
        """Journal one admitted batch; returns ``(last_lsn, ticket)``.

        ``entries`` are ``{"e": edge_json}`` dicts, optionally carrying
        ``"o": [path, position]`` tail-offset tags.  The frame is
        *buffered* — pass the ticket to :meth:`sync` before acking.
        """
        payload: dict = {"n": len(entries), "entries": entries}
        if rid is not None:
            payload["rid"] = rid
        if invalid:
            payload["invalid"] = invalid
        return self._write(_dumps(payload), len(entries))

    def append_body(self, body: bytes, n: int, *, rid: Optional[str] = None,
                    skip: Sequence[int] = ()) -> Tuple[int, int]:
        """Journal one admitted batch as the request body it arrived in;
        returns ``(last_lsn, ticket)`` like :meth:`append`.

        ``body`` must be the ASCII JSON text the caller decoded (no NUL,
        so it reads the same spliced into the frame as it did alone);
        ``n`` of its records were valid edges and ``skip`` lists the
        positions of the others, so replay numbers LSNs over the rest
        without judging validity again.
        """
        head: dict = {"n": n}
        if rid is not None:
            head["rid"] = rid
        if skip:
            head["invalid"] = len(skip)
            head["skip"] = list(skip)
        return self._write(_dumps(head)[:-1] + _BODY_KEY + body + b"}", n)

    def _write(self, payload: bytes, n: int) -> Tuple[int, int]:
        """Frame ``payload`` (covering ``n`` edges) into the active
        segment.  The fault site ``wal.append`` and the size refusal come
        before any mutation, so a retried append never double-writes."""
        faults.fire("wal.append")
        if len(payload) > _MAX_PAYLOAD:
            raise WalFrameTooLarge(
                f"batch needs a {len(payload)}-byte journal frame; the "
                f"limit is {_MAX_PAYLOAD}")
        frame = _frame(payload)
        if self._active_bytes >= self.segment_bytes:
            with self._sync_lock, self._lock:
                if self._active_bytes >= self.segment_bytes:
                    self._rotate_locked()
        with self._lock:
            self._handle.write(frame)
            self._active_bytes += len(frame)
            self.bytes_written += len(frame)
            base, count = self._segment_index[self._active_ordinal]
            self._segment_index[self._active_ordinal] = (base, count + n)
            self.appended_lsn += n
            self.appends += 1
            self._write_seq += 1
            return self.appended_lsn, self._write_seq

    def _rotate_locked(self) -> None:
        # Both locks held.  Seal the active segment durably before
        # opening its successor — a closed segment is immutable and fully
        # on disk.
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._synced_seq = self._write_seq
        self.durable_lsn = self.appended_lsn
        self.fsyncs += 1
        self._open_segment(self._active_ordinal + 1,
                           base=self.appended_lsn + 1)

    def sync(self, ticket: Optional[int] = None) -> None:
        """Make every frame up to ``ticket`` durable (group commit).

        ``None`` syncs everything appended so far.  Returns immediately
        when a concurrent leader already covered the ticket.  The fault
        site ``wal.fsync`` fires before the fsync — an injected
        ``io_error`` leaves the frames unsynced, exactly like a real
        fsync failure, so callers retry.  Only the flush holds the append
        lock: appends and :meth:`counters` go on while the disk syncs.
        """
        with self._lock:
            target = self._write_seq if ticket is None else ticket
            if self._synced_seq >= target:
                return
            pending = self._write_seq - self._synced_seq
        if self.fsync_interval > 0 and pending < self.fsync_batch:
            # Gather window: let concurrent appenders join this commit.
            time.sleep(self.fsync_interval)
        with self._sync_lock:
            with self._lock:
                if self._synced_seq >= target:
                    return
                handle = self._handle
                handle.flush()
                seq, lsn = self._write_seq, self.appended_lsn
            faults.fire("wal.fsync")
            os.fsync(handle.fileno())
            with self._lock:
                self._synced_seq = seq
                self.durable_lsn = lsn
                self.fsyncs += 1

    # ------------------------------------------------------------------ #
    # Replay / retention
    # ------------------------------------------------------------------ #
    def replay(self, after_lsn: int = 0) -> Iterator[Tuple[int, dict]]:
        """Yield ``(first_lsn, payload)`` for every data frame holding
        edges with LSN > ``after_lsn``, plus rid-only frames in the
        scanned segments (they rebuild the dedup window; an edge-free
        frame lost to a reclaimed segment only widens a retry to a
        harmless all-invalid re-admission).

        Flushes the buffer first so the scan sees every appended frame;
        safe to call on a live log between appends.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
        for ordinal, path in self._segment_paths():
            info = self._segment_index.get(ordinal)
            if info is not None:
                base, count = info
                if base + count - 1 <= after_lsn and count > 0:
                    continue
            scan = scan_segment(path)
            lsn = None
            for frame in scan["frames"]:
                if lsn is None and "base" in frame:
                    lsn = frame["base"]
                    continue
                if lsn is None:     # headerless tail adopted at boot
                    break
                n = frame.get("n", 0)
                first = lsn
                lsn += n
                if n == 0 or lsn - 1 > after_lsn:
                    yield first, frame

    def reclaim(self, cover_lsn: int) -> int:
        """Delete whole segments whose edges all have LSN <=
        ``cover_lsn`` (never the active segment).  Returns how many were
        removed.  Call with the *oldest kept* checkpoint's WAL position.
        """
        removed = 0
        with self._lock:
            for ordinal, path in self._segment_paths():
                if ordinal == self._active_ordinal:
                    continue
                info = self._segment_index.get(ordinal)
                if info is None:
                    continue
                base, count = info
                if base + count - 1 > cover_lsn:
                    continue
                try:
                    os.remove(path)
                except OSError:
                    continue
                del self._segment_index[ordinal]
                removed += 1
                self.segments_reclaimed += 1
        return removed

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        with self._sync_lock, self._lock:
            if self._handle is None:
                return
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._synced_seq = self._write_seq
                self.durable_lsn = self.appended_lsn
            finally:
                self._handle.close()
                self._handle = None

    def abort(self) -> None:
        """Crash simulation: drop the handle without fsyncing.  Buffered
        frames reach the OS page cache but are never forced to disk —
        the state a ``kill -9`` leaves behind on a surviving machine.
        (True torn tails are exercised by the gateway model's real
        ``SIGKILL`` of ``repro serve``, ``tests/service/
        test_gateway_model.py``, and by tests that truncate segments
        directly.)"""
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            # Detach the raw FD and close it, discarding the buffer.
            raw = handle.detach()
            raw.close()
        except Exception:
            pass

    def counters(self) -> dict:
        """A snapshot of :attr:`STATS`."""
        with self._lock:
            return snapshot(self, self.STATS,
                            segments=len(self._segment_index))

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"WriteAheadLog({self.directory!r}, "
                f"lsn={self.appended_lsn}, durable={self.durable_lsn})")
