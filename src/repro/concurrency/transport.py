"""Struct-packed edge batch codec.

This module is kept only as the frozen benchmark's
``concurrency.transport.*`` probe target (``bench_e2e/layers.py``
measures encode/decode cost and bytes per edge against pickling the same
rows); no product code path uses it.  Nothing else in the library crosses
a process boundary.

:class:`BatchEncoder` / :class:`BatchDecoder` pack dispatch rows
``(idx, wire, forced)`` — ``wire`` being an edge's seven fields — into
**nine doubles** per row (idx, field codes, src, dst, src_label,
dst_label, label, timestamp, edge_id).  Strings and other objects go
through a producer-driven interned value table (:class:`InternTable`):
the encoder assigns ids and ships new ``(id, value)`` bindings in-band,
and the decoder replays them — so a label is pickled once per table
residency, not once per edge.  Rows the codec cannot express (unhashable
values, a ``forced`` payload, a full table) ride an in-frame pickled
*overflow* section, merged back in arrival order on decode.

Doubles represent integers exactly up to 2**53, so vertex ids and
timestamps that are Python ints round-trip bit-exactly; anything larger
is interned like a string.  Field codes keep the *type* intact (an int
timestamp comes back an int, ``None`` comes back ``None``), and the
default ``edge_id == (src, dst, timestamp)`` is detected and
reconstructed by the decoder instead of shipping three redundant fields.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import Dict, List, Optional, Tuple

from ..graph.edge import StreamEdge

#: Default interned-value capacity.  Ids are recycled FIFO once the
#: table fills, so an unbounded vertex universe degrades to re-shipping
#: cold bindings instead of failing.
DEFAULT_INTERN_CAPACITY = 1 << 16

#: Largest int a double represents exactly; bigger ints are interned.
MAX_SAFE_INT = 1 << 53

#: Doubles per encoded row (see :class:`BatchEncoder`).
ROW_DOUBLES = 9

_DATA_HEAD = struct.Struct("<IBIII")    # seq, kind, rows, interns, overflow
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
    """A payload the decoder cannot read (an unknown frame kind or field
    code, or an intern id it was never sent)."""


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

    The encoder assigns ids and ships new ``(id, value)`` bindings in the
    same frame as the rows that reference them; the decoder replays the
    bindings in order, so rebinding a recycled id is safe as long as no
    id is rebound *within* a frame after a row referenced it — which
    :meth:`intern` guarantees via the per-frame ``referenced`` set.
    ``pending`` holds bindings not yet acknowledged with
    :meth:`mark_shipped`, so they ride the next frame again.
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
                # A rare, irregular payload: pickle it rather than widen
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
