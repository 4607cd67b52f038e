"""Zero-pickle shard transport: shared-memory SPSC rings + edge codec.

The pipe transport (:mod:`repro.concurrency.sharding`'s original path)
pickles every dispatched batch into a duplex pipe and pickles the reply
back out — fine for control RPCs, but on the ingestion hot path the
facade burns more CPU serialising batches than the shards spend matching
them (four process shards over a 16-query stream measured a 3.1x
*modeled* pipeline speedup and 0.71x the unsharded wall clock).  This
module removes the pickling:

* :class:`SpscRing` — a single-producer/single-consumer byte ring with
  seqlock-style monotonic head/tail counters living *inside* the shared
  buffer, CRC-framed records, and explicit wrap ("skip") markers so a
  frame is always contiguous.  A torn or corrupted frame raises
  :class:`TornFrameError` instead of delivering garbage.
* :class:`ShmRing` — a ring hosted in a ``multiprocessing.shared_memory``
  segment, with create/attach lifecycle (the facade owns and unlinks the
  segment; workers attach by name and are untracked so a worker death
  never unlinks the ring under its siblings).
* :class:`BatchEncoder` / :class:`BatchDecoder` — edges are small
  fixed-shape records, so each dispatch row packs into **nine doubles**
  (idx, field codes, src, dst, src_label, dst_label, label, timestamp,
  edge_id).  Strings and other objects go through a producer-driven
  interned string table (:class:`InternTable`): the facade assigns ids,
  ships new ``(id, value)`` bindings in-band (the only pickled bytes on
  a warm stream), and the worker replays them — so a label is pickled
  once per table residency, not once per edge.  Rows the codec cannot
  express (unhashable values, duplicate-judgement metadata, a full
  table) ride an in-frame pickled *overflow* section, merged back in
  arrival order on decode; a batch whose whole frame exceeds the ring
  falls back to the pipe RPC path in the caller.
* :class:`FacadeChannel` / :class:`WorkerChannel` — the two endpoints:
  a data ring (facade → worker) carrying encoded batches and a result
  ring (worker → facade) streaming per-batch results back without
  blocking the dispatch path.  Matches are rare on a healthy stream, so
  the common result frame is the 5-byte "empty" status — zero pickling
  in either direction.

Framing
-------
``[u32 length][u32 crc32][payload]``, published by bumping the ring's
head counter only after the frame bytes are fully written.  The counters
are monotonic u64s (``used = head - tail``), so full/empty are never
ambiguous and a reader can always detect how far behind it is.  A frame
never wraps: when the tail of the buffer is too short the producer
writes a ``0xFFFFFFFF`` skip marker (or nothing, if fewer than four
bytes remain — the reader skips implicitly) and restarts at offset 0.

Wire safety
-----------
Doubles represent integers exactly up to 2**53, so vertex ids and
timestamps that are Python ints round-trip bit-exactly; anything larger
is interned like a string.  Field codes keep the *type* intact (an int
timestamp comes back an int, ``None`` comes back ``None``), and the
default ``edge_id == (src, dst, timestamp)`` is detected and
reconstructed on the worker instead of shipping three redundant fields.

This module is deliberately free of :mod:`repro.concurrency.sharding`
imports (the dependency points the other way) and safe to import where
``multiprocessing.shared_memory`` is unavailable — creation then raises
:class:`TransportError` and the session falls back to the pipe.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

from ..graph.edge import StreamEdge

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:             # pragma: no cover - exotic platforms
    shared_memory = None        # type: ignore[assignment]
    resource_tracker = None     # type: ignore[assignment]

#: Ring-header bytes reserved inside the shared buffer: two u64
#: monotonic counters (producer head at offset 0, consumer tail at 8).
RING_HEADER = 16

#: Per-frame header bytes: u32 payload length + u32 CRC-32.
FRAME_HEADER = 8

#: Default data-ring capacity (facade -> worker).  Two-plus staged
#: 1024-row batches (~73 KiB each) fit with room for intern bindings,
#: so overlapped dispatch never blocks on a healthy worker.
DEFAULT_DATA_RING = 1 << 20

#: Default result-ring capacity (worker -> facade).  Results are rare
#: and small; oversized result sets fall back to the pipe per frame.
DEFAULT_RESULT_RING = 1 << 18

#: Default interned-value capacity per shard channel.  Ids are recycled
#: FIFO once the table fills, so an unbounded vertex universe degrades
#: to re-shipping cold bindings instead of failing.
DEFAULT_INTERN_CAPACITY = 1 << 16

#: Largest int a double represents exactly; bigger ints are interned.
MAX_SAFE_INT = 1 << 53

#: Doubles per encoded row (see :class:`BatchEncoder`).
ROW_DOUBLES = 9

#: Result-frame statuses (u8 after the seq).
RESULT_EMPTY = 0        #: batch produced no matches — no payload at all
RESULT_PICKLED = 1      #: payload = pickled result triples
RESULT_VIA_PIPE = 2     #: results exceeded the ring; they ride the pipe
RESULT_ERROR = 3        #: payload = pickled exception from the worker

_SKIP = 0xFFFFFFFF
_U32 = struct.Struct("<I")
_DATA_HEAD = struct.Struct("<IBIII")    # seq, kind, rows, interns, overflow
_RESULT_HEAD = struct.Struct("<IB")     # seq, status
_PROTO = pickle.HIGHEST_PROTOCOL

# Per-field value codes (3 bits each inside the row's flags word).
_F_INTERN = 0       #: value is an interned id
_F_FLOAT = 1        #: value is the double itself
_F_INT = 2          #: value is the double, reconstructed as int
_F_NONE = 3         #: value is None
_F_DEFAULT = 4      #: edge_id only: the default (src, dst, timestamp)

#: Flag-word bit offsets per field, in row order after (idx, flags).
_SHIFTS = (0, 3, 6, 9, 12, 15, 18)

#: Flags word for the dominant row shape — five interned strings, a
#: float timestamp and the default ``(src, dst, timestamp)`` edge id —
#: which both codec halves special-case into a branch-light fast path.
_FAST_FLAGS = (_F_FLOAT << _SHIFTS[5]) | (_F_DEFAULT << _SHIFTS[6])
_FAST_FLAGS_F = float(_FAST_FLAGS)
_UNSET = object()


class TransportError(RuntimeError):
    """A shard transport channel failed (peer death, desynchronisation,
    or an unusable shared-memory subsystem)."""


class TornFrameError(TransportError):
    """A ring frame failed validation (bad length or CRC): the write was
    torn mid-publish or the buffer was corrupted.  The ring cannot be
    trusted past this point — the owning side must tear the channel
    down (the worker dies; supervision restarts it)."""


class SpscRing:
    """A single-producer/single-consumer byte ring over any writable
    buffer (a ``bytearray``, an ``mmap``, or shared memory).

    The first :data:`RING_HEADER` bytes hold the monotonic head/tail
    counters; the rest is the data region.  Exactly one process may
    write (``try_write``) and exactly one may read (``try_read``) —
    the counters are published with plain 8-byte stores, which is the
    SPSC seqlock discipline: each counter has a single writer, and a
    frame becomes visible only by the head bump *after* its bytes (and
    CRC) are in place.  The stores go through a ``"Q"``-cast memoryview
    item, one aligned 8-byte copy; ``struct.pack_into`` zero-fills its
    destination before storing, so a reader on another core would see
    the counter as 0 mid-publish.
    """

    __slots__ = ("_buf", "_counters", "_data", "capacity")

    def __init__(self, buf) -> None:
        view = memoryview(buf)
        if len(view) <= RING_HEADER + FRAME_HEADER:
            raise ValueError(
                f"ring buffer of {len(view)} bytes is too small "
                f"(needs > {RING_HEADER + FRAME_HEADER})")
        self._buf = view
        self._counters = view[:RING_HEADER].cast("Q")    # [head, tail]
        self._data = view[RING_HEADER:]
        self.capacity = len(view) - RING_HEADER

    # -- counters ------------------------------------------------------ #
    @property
    def head(self) -> int:
        """Monotonic bytes produced (including skip regions)."""
        return self._counters[0]

    @property
    def tail(self) -> int:
        """Monotonic bytes consumed (including skip regions)."""
        return self._counters[1]

    @property
    def used(self) -> int:
        """Bytes currently in flight (head - tail)."""
        return self.head - self.tail

    @property
    def free(self) -> int:
        """Bytes available to the producer."""
        return self.capacity - self.used

    # -- producer side ------------------------------------------------- #
    def try_write(self, payload) -> bool:
        """Publish one frame; ``False`` when the ring lacks the space.

        Raises ``ValueError`` for a payload that can never fit (frame
        larger than the whole ring) — the caller's cue to take its
        fallback path rather than spin forever.
        """
        size = FRAME_HEADER + len(payload)
        cap = self.capacity
        if size > cap:
            raise ValueError(
                f"frame of {size} bytes exceeds the ring capacity ({cap})")
        counters = self._counters
        head = counters[0]
        tail = counters[1]
        pos = head % cap
        room = cap - pos
        data = self._data
        if size > room:
            # Frames never wrap: burn the remainder with a skip marker
            # as its own publication (under four bytes there is no room
            # for a marker; the reader skips such a stub implicitly).
            # Publishing the skip separately lets the reader drain it
            # before the frame itself fits at offset 0 — otherwise a
            # frame larger than the remainder could never be written
            # even into an empty ring.
            if cap - (head - tail) < room:
                return False
            if room >= 4:
                _U32.pack_into(data, pos, _SKIP)
            head += room
            counters[0] = head
            pos = 0
        if cap - (head - tail) < size:
            return False
        _U32.pack_into(data, pos, len(payload))
        _U32.pack_into(data, pos + 4, zlib.crc32(payload))
        data[pos + FRAME_HEADER:pos + size] = payload
        # Publish last: a reader holding the old head never observes a
        # partially written frame.
        counters[0] = head + size
        return True

    # -- consumer side ------------------------------------------------- #
    def try_read(self) -> Optional[bytes]:
        """Consume one frame; ``None`` when the ring is empty.

        Raises :class:`TornFrameError` when the next frame fails its
        length or CRC validation.
        """
        cap = self.capacity
        data = self._data
        counters = self._counters
        while True:
            head = counters[0]
            tail = counters[1]
            avail = head - tail
            if avail == 0:
                return None
            pos = tail % cap
            room = cap - pos
            if room >= 4:
                first = _U32.unpack_from(data, pos)[0]
            else:
                first = _SKIP            # stub too short for a marker
            if first == _SKIP:
                if avail < room:
                    raise TornFrameError(
                        "skip region extends past the published head")
                counters[1] = tail + room
                continue
            size = FRAME_HEADER + first
            if size > room or size > avail:
                raise TornFrameError(
                    f"frame claims {first} payload bytes with only "
                    f"{max(0, min(room, avail) - FRAME_HEADER)} readable")
            crc = _U32.unpack_from(data, pos + 4)[0]
            payload = bytes(data[pos + FRAME_HEADER:pos + size])
            if zlib.crc32(payload) != crc:
                raise TornFrameError(
                    "frame checksum mismatch (torn or corrupted write)")
            counters[1] = tail + size
            return payload

    def release(self) -> None:
        """Drop the memoryviews so the backing buffer can be closed."""
        self._data.release()
        self._counters.release()
        self._buf.release()


class ShmRing:
    """A :class:`SpscRing` hosted in a shared-memory segment.

    The creating side *owns* the segment (``close`` unlinks it); an
    attaching side maps it read-write by name and is explicitly
    untracked, so a crashing worker never takes the segment down under
    the facade and its sibling shards.
    """

    __slots__ = ("shm", "ring", "name", "_owner")

    def __init__(self, shm, *, owner: bool) -> None:
        self.shm = shm
        self.name = shm.name
        self.ring = SpscRing(shm.buf)
        self._owner = owner

    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        """A fresh zeroed ring of ``capacity`` data bytes."""
        if shared_memory is None:   # pragma: no cover - exotic platforms
            raise TransportError(
                "multiprocessing.shared_memory is unavailable")
        shm = shared_memory.SharedMemory(
            create=True, size=RING_HEADER + capacity)
        shm.buf[:RING_HEADER] = b"\x00" * RING_HEADER
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by segment name (worker side)."""
        if shared_memory is None:   # pragma: no cover - exotic platforms
            raise TransportError(
                "multiprocessing.shared_memory is unavailable")
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Pre-3.13 attaches are force-registered with the resource
            # tracker.  Under spawn the attacher runs its own tracker,
            # which would unlink the segment when the *first* attached
            # process exits; undo the registration.  Under fork the
            # tracker is shared with the owner, registration is an
            # idempotent set-add, and unregistering here would strip the
            # owner's own entry (its later unlink then double-removes).
            shm = shared_memory.SharedMemory(name=name)
            method = multiprocessing.get_start_method(allow_none=True)
            if method is None:  # pragma: no cover - platform default
                method = "fork" if sys.platform.startswith(
                    "linux") else "spawn"
            if resource_tracker is not None and method != "fork":
                try:  # pragma: no cover - spawn-context platforms
                    resource_tracker.unregister(
                        shm._name, "shared_memory")  # noqa: SLF001
                except Exception:
                    pass
        return cls(shm, owner=False)

    def close(self) -> None:
        """Release the mapping (and unlink the segment when owner)."""
        self.ring.release()
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        if self._owner:
            try:
                self.shm.unlink()
            except (FileNotFoundError, OSError):
                pass


# --------------------------------------------------------------------- #
# The edge codec
# --------------------------------------------------------------------- #

def _intern_key(value):
    """``value`` as an intern-table key: anything but a string or ``None``
    carries its type, since ``1``, ``True`` and ``1.0`` are equal."""
    if value is None or type(value) is str:
        return value
    if type(value) is tuple:
        return (tuple, *map(_intern_key, value))
    return (type(value), value)


class InternTable:
    """Producer-side value→id table with FIFO id recycling.

    The facade assigns ids and ships new ``(id, value)`` bindings in the
    same frame as the rows that reference them; the decoder replays the
    bindings in order, so rebinding a recycled id is safe as long as no
    id is rebound *within* a frame after a row referenced it — which
    :meth:`intern` guarantees via the per-frame ``referenced`` set.
    ``pending`` holds bindings not yet shipped over the ring (a batch
    that fell back to the pipe keeps its bindings queued for the next
    ring frame).
    """

    __slots__ = ("capacity", "_ids", "_slots", "_cursor", "pending")

    def __init__(self, capacity: int = DEFAULT_INTERN_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("intern capacity must be positive")
        self.capacity = capacity
        self._ids: Dict[object, int] = {None: 0}
        self._slots: List[object] = [_UNSET] * capacity
        # ``None`` is pre-bound so unlabelled edges stay on the encode
        # fast path (a plain intern-id lookup) instead of needing a
        # per-field ``_F_NONE`` dispatch.
        self._slots[0] = None
        self._cursor = 1
        self.pending: List[Tuple[int, object]] = [(0, None)]

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, value, referenced: set) -> Optional[int]:
        """The id for ``value``, binding (and possibly evicting) one if
        needed; ``None`` when every id is pinned by the current frame.

        Raises ``TypeError`` for unhashable values (the caller's cue to
        overflow the row).
        """
        key = _intern_key(value)
        ident = self._ids.get(key)
        if ident is not None:
            referenced.add(ident)
            return ident
        for _ in range(self.capacity):
            cand = self._cursor % self.capacity
            self._cursor += 1
            if cand in referenced:
                continue            # already cited by this frame's rows
            old = self._slots[cand]
            if old is not _UNSET:
                del self._ids[old]
            self._slots[cand] = key
            self._ids[key] = cand
            self.pending.append((cand, value))
            referenced.add(cand)
            return cand
        return None

    def mark_shipped(self, count: int) -> None:
        """Drop the first ``count`` pending bindings (they reached the
        consumer inside a successfully written frame)."""
        if count:
            del self.pending[:count]


class _Unencodable(Exception):
    """Internal: this row must ride the pickled overflow section."""


class BatchEncoder:
    """Packs dispatch rows ``(idx, wire, forced)`` into one data-frame
    payload (see the module docstring for the layout)."""

    __slots__ = ("table",)

    def __init__(self,
                 intern_capacity: int = DEFAULT_INTERN_CAPACITY) -> None:
        self.table = InternTable(intern_capacity)

    def encode(self, seq: int, rows) -> Tuple[bytes, int]:
        """``(payload, pending)`` for one batch; ``pending`` is how many
        intern bindings the frame carries (acknowledge them with
        ``table.mark_shipped`` once the frame is actually written)."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        table = self.table
        referenced: set = set()
        ids = table._ids
        # Accumulate doubles in a plain list and convert once at the
        # end — bulk ``array("d", list)`` construction beats per-row
        # ``array.extend`` by a third on the hot path.
        buf: List[float] = []
        packed = 0
        overflow: List[tuple] = []
        # While the table cannot possibly fill during this frame, no
        # intern can evict, so rows need not pin their cited ids in
        # ``referenced`` — which keeps the fast path free of set adds.
        no_evict = len(ids) + 6 * len(rows) <= table.capacity
        for row in rows:
            idx, wire, forced = row
            if forced is not None:
                # Duplicate-judgement metadata (frozenset of group keys)
                # is rare and irregular: pickle it rather than widen
                # every row for it.
                overflow.append(row)
                continue
            src, dst, src_label, dst_label, timestamp, label, edge_id = wire
            # Fast path: every field already interned (``None`` is
            # pre-bound), float timestamp, default edge id.  This is the
            # steady-state shape once the vertex/label universe has been
            # seen, so it skips the per-field dispatch entirely (a vertex
            # field but a string or ``None`` misses: typed path below).
            if (no_evict and type(timestamp) is float
                    and type(edge_id) is tuple and len(edge_id) == 3
                    and edge_id[0] is src and edge_id[1] is dst
                    and edge_id[2] is timestamp):
                try:
                    buf += (idx, _FAST_FLAGS_F, ids[src], ids[dst],
                            ids[src_label], ids[dst_label],
                            ids[_intern_key(label)], timestamp, 0.0)
                    packed += 1
                    continue
                except (KeyError, TypeError):
                    pass            # cold or unhashable: dispatch below
            try:
                flags = 0
                values = []
                for shift, value in zip(
                        _SHIFTS, (src, dst, src_label, dst_label, label,
                                  timestamp)):
                    code, packed_value = self._value(value, table,
                                                     referenced)
                    flags |= code << shift
                    values.append(packed_value)
                if type(edge_id) is tuple and len(edge_id) == 3 \
                        and edge_id[0] is src and edge_id[1] is dst \
                        and edge_id[2] is timestamp:
                    flags |= _F_DEFAULT << _SHIFTS[6]
                    values.append(0.0)
                else:
                    code, packed_value = self._value(edge_id, table,
                                                     referenced)
                    flags |= code << _SHIFTS[6]
                    values.append(packed_value)
            except _Unencodable:
                overflow.append(row)
                continue
            buf += (idx, flags)
            buf += values
            packed += 1
        interns = pickle.dumps(table.pending, _PROTO) \
            if table.pending else b""
        over = pickle.dumps(overflow, _PROTO) if overflow else b""
        rows_bytes = array("d", buf).tobytes()
        payload = b"".join((
            _DATA_HEAD.pack(seq, 0, packed, len(interns), len(over)),
            interns, rows_bytes, over))
        return payload, len(table.pending)

    @staticmethod
    def _value(value, table: InternTable,
               referenced: set) -> Tuple[int, float]:
        if value is None:
            return _F_NONE, 0.0
        kind = type(value)
        if kind is float:
            return _F_FLOAT, value
        if kind is int and -MAX_SAFE_INT <= value <= MAX_SAFE_INT:
            return _F_INT, float(value)
        try:
            ident = table.intern(value, referenced)
        except TypeError as exc:        # unhashable: cannot be a key
            raise _Unencodable from exc
        if ident is None:               # table pinned solid by this frame
            raise _Unencodable
        return _F_INTERN, float(ident)


class BatchDecoder:
    """Consumer half of the codec: replays intern bindings and rebuilds
    :class:`StreamEdge` rows, merging overflow rows back in arrival
    order."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Dict[int, object] = {}

    def decode(self, payload: bytes) -> Tuple[int, List[tuple]]:
        """``(seq, rows)`` where each row is ``(idx, edge-or-wire,
        forced)`` sorted by arrival index."""
        seq, kind, packed, interns_len, over_len = _DATA_HEAD.unpack_from(
            payload, 0)
        if kind != 0:
            raise TransportError(f"unknown data frame kind: {kind}")
        offset = _DATA_HEAD.size
        values = self.values
        if interns_len:
            for ident, value in pickle.loads(
                    payload[offset:offset + interns_len]):
                values[ident] = value
            offset += interns_len
        count = packed * ROW_DOUBLES
        doubles = struct.unpack_from(f"<{count}d", payload, offset) \
            if count else ()
        offset += count * 8
        overflow = pickle.loads(payload[offset:offset + over_len]) \
            if over_len else []
        out: List[tuple] = []
        append = out.append
        base = 0
        for _ in range(packed):
            if doubles[base + 1] == _FAST_FLAGS_F:
                # Steady-state shape: five interned strings, float
                # timestamp, default edge id (see ``_FAST_FLAGS``).
                # Float subscripts hash-match their int keys, so the
                # doubles index the values dict directly.
                try:
                    edge = StreamEdge(
                        values[doubles[base + 2]],
                        values[doubles[base + 3]],
                        src_label=values[doubles[base + 4]],
                        dst_label=values[doubles[base + 5]],
                        timestamp=doubles[base + 7],
                        label=values[doubles[base + 6]])
                except KeyError:
                    raise TransportError(
                        "unknown intern id — the intern stream "
                        "desynchronised") from None
                append((int(doubles[base]), edge, None))
                base += ROW_DOUBLES
                continue
            idx = int(doubles[base])
            flags = int(doubles[base + 1])
            fields = []
            for position, shift in enumerate(_SHIFTS):
                code = (flags >> shift) & 0x7
                raw = doubles[base + 2 + position]
                if code == _F_FLOAT:
                    fields.append(raw)
                elif code == _F_INT:
                    fields.append(int(raw))
                elif code == _F_NONE:
                    fields.append(None)
                elif code == _F_DEFAULT:
                    fields.append(None)     # StreamEdge builds it
                elif code == _F_INTERN:
                    try:
                        fields.append(values[int(raw)])
                    except KeyError:
                        raise TransportError(
                            f"unknown intern id {int(raw)} — the intern "
                            "stream desynchronised") from None
                else:
                    raise TransportError(f"unknown field code {code}")
            src, dst, src_label, dst_label, label, timestamp, edge_id = \
                fields
            base += ROW_DOUBLES
            edge = StreamEdge(src, dst, src_label=src_label,
                              dst_label=dst_label, timestamp=timestamp,
                              label=label, edge_id=edge_id)
            out.append((idx, edge, None))
        if not overflow:
            return seq, out
        merged: List[tuple] = []
        i = j = 0
        while i < len(out) and j < len(overflow):
            if out[i][0] <= overflow[j][0]:
                merged.append(out[i])
                i += 1
            else:
                merged.append(overflow[j])
                j += 1
        merged.extend(out[i:])
        merged.extend(overflow[j:])
        return seq, merged


# --------------------------------------------------------------------- #
# Channel endpoints
# --------------------------------------------------------------------- #

def pack_result(seq: int, status: int, blob: bytes = b"") -> bytes:
    """One result-frame payload."""
    return _RESULT_HEAD.pack(seq, status) + blob


def unpack_result(payload: bytes) -> Tuple[int, int, bytes]:
    """``(seq, status, blob)`` from a result-frame payload."""
    seq, status = _RESULT_HEAD.unpack_from(payload, 0)
    return seq, status, payload[_RESULT_HEAD.size:]


class FacadeChannel:
    """Facade-side endpoint: owns both rings plus the encoder state.

    Non-blocking by design — ``try_send``/``try_recv`` return ``False``
    / ``None`` on a full/empty ring so the caller (the shard handle)
    can interleave liveness checks, deadline enforcement and return-path
    draining in its own wait loop.
    """

    __slots__ = ("data", "result", "encoder", "send_seq", "recv_seq")

    def __init__(self, data_capacity: int = DEFAULT_DATA_RING,
                 result_capacity: int = DEFAULT_RESULT_RING,
                 intern_capacity: int = DEFAULT_INTERN_CAPACITY) -> None:
        self.data = ShmRing.create(data_capacity)
        try:
            self.result = ShmRing.create(result_capacity)
        except BaseException:
            self.data.close()
            raise
        self.encoder = BatchEncoder(intern_capacity)
        self.send_seq = 0
        self.recv_seq = 0

    def spec(self) -> Dict[str, str]:
        """What a worker needs to attach (segment names)."""
        return {"data": self.data.name, "result": self.result.name}

    def encode_batch(self, rows) -> Optional[Tuple[bytes, int]]:
        """An encoded frame for ``rows``, or ``None`` when it could
        never fit the data ring (whole-batch pipe fallback)."""
        payload, pending = self.encoder.encode(self.send_seq + 1, rows)
        if FRAME_HEADER + len(payload) > self.data.ring.capacity:
            return None
        return payload, pending

    def try_send(self, frame: Tuple[bytes, int]) -> bool:
        """Write one encoded frame; ``False`` when the ring is full."""
        payload, pending = frame
        if not self.data.ring.try_write(payload):
            return False
        self.send_seq += 1
        self.encoder.table.mark_shipped(pending)
        return True

    def try_recv(self) -> Optional[Tuple[int, Optional[bytes]]]:
        """``(status, blob)`` for the next result frame, or ``None``.

        Raises :class:`TornFrameError` on a corrupt frame and
        :class:`TransportError` when the worker's reply stream
        desynchronises from the frames we sent.
        """
        payload = self.result.ring.try_read()
        if payload is None:
            return None
        seq, status, blob = unpack_result(payload)
        self.recv_seq += 1
        if seq != self.recv_seq:
            raise TransportError(
                f"result ring desynchronised: frame {seq}, "
                f"expected {self.recv_seq}")
        return status, blob

    def close(self) -> None:
        """Unlink both rings (idempotent)."""
        self.data.close()
        self.result.close()


class WorkerChannel:
    """Worker-side endpoint: attaches to the facade's rings by name."""

    __slots__ = ("data", "result", "decoder")

    def __init__(self, data: ShmRing, result: ShmRing) -> None:
        self.data = data
        self.result = result
        self.decoder = BatchDecoder()

    @classmethod
    def attach(cls, spec: Dict[str, str]) -> "WorkerChannel":
        data = ShmRing.attach(spec["data"])
        try:
            result = ShmRing.attach(spec["result"])
        except BaseException:
            data.close()
            raise
        return cls(data, result)

    def try_read(self) -> Optional[bytes]:
        """The next data frame's payload, or ``None`` when idle."""
        return self.data.ring.try_read()

    @staticmethod
    def peek_seq(payload: bytes) -> int:
        """A data frame's sequence number without decoding it — the
        worker answers even frames whose body fails to decode."""
        return _U32.unpack_from(payload, 0)[0]

    def decode(self, payload: bytes) -> Tuple[int, List[tuple]]:
        """Decode one data frame (see :meth:`BatchDecoder.decode`)."""
        return self.decoder.decode(payload)

    def result_fits(self, blob: bytes) -> bool:
        """Whether a result blob can ever ride the result ring."""
        return FRAME_HEADER + _RESULT_HEAD.size + len(blob) \
            <= self.result.ring.capacity

    def try_send_result(self, seq: int, status: int,
                        blob: bytes = b"") -> bool:
        """Write one result frame; ``False`` when the ring is full."""
        return self.result.ring.try_write(pack_result(seq, status, blob))

    def close(self) -> None:
        """Release both mappings (the facade owns the segments)."""
        self.data.close()
        self.result.close()
