"""The service wire format: JSON codecs for edges and matches.

One codec serves every boundary the gateway has — HTTP ingest bodies,
WebSocket frames, write-ahead log entries, JSONL tail sources, and the
match records the delivery paths emit — so a journaled edge reads back
exactly as it arrived, and a producer can replay the gateway's own match
log.

Labels round-trip with their Python types: the engines key routing and
join indexes on label *equality*, so ``80`` must not come back as
``"80"``.  JSON has no tuple, and netflow-style labels are tuples — a
tuple is encoded as a JSON array and any array decodes back to a tuple
(the codec's one documented asymmetry: lists and tuples meet in the
middle, which is safe because :class:`~repro.graph.edge.StreamEdge`
labels must be hashable and therefore are never lists).
"""

from __future__ import annotations

import json
import math
from typing import Hashable, Optional, Tuple

from ..core.matches import Match
from ..graph.edge import StreamEdge

#: Keys accepted in an edge JSON object.  ``timestamp`` and ``edge_id``
#: are optional: a missing timestamp asks the tenant to assign the next
#: server-side tick, a missing id gets StreamEdge's positional default.
EDGE_KEYS = frozenset(
    ("src", "dst", "src_label", "dst_label", "timestamp", "label",
     "edge_id"))


class CodecError(ValueError):
    """Raised on a malformed edge object (bad keys, types, or values)."""


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


#: ``json.loads`` also reads ``NaN`` and ``±Infinity``, which RFC 8259
#: JSON has no spelling for; this decoder refuses them.
_STRICT_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


def parse_json(data):
    """``json.loads`` without the ``NaN`` / ``Infinity`` extension: the
    decoder of ingest bodies, WebSocket frames and tailed JSONL lines.
    Raises ``ValueError`` (and ``RecursionError`` on nesting deeper than
    the stack) like ``json.loads``."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode(json.detect_encoding(data), "surrogatepass")
    return _STRICT_JSON.decode(data)


def _encode_value(value: Hashable):
    if isinstance(value, tuple):
        return [_encode_value(part) for part in value]
    return value


def _decode_value(value):
    if isinstance(value, list):
        return tuple(_decode_value(part) for part in value)
    return value


def edge_to_json(edge: StreamEdge) -> dict:
    """A JSON-able dict describing one edge arrival (see module doc)."""
    record = {
        "src": _encode_value(edge.src),
        "dst": _encode_value(edge.dst),
        "src_label": _encode_value(edge.src_label),
        "dst_label": _encode_value(edge.dst_label),
        "timestamp": edge.timestamp,
    }
    if edge.label is not None:
        record["label"] = _encode_value(edge.label)
    if edge.edge_id != (edge.src, edge.dst, edge.timestamp):
        record["edge_id"] = _encode_value(edge.edge_id)
    return record


def _key_error(record: dict) -> CodecError:
    """Which keys of ``record`` are wrong (the error path names them)."""
    unknown = set(record) - EDGE_KEYS
    if unknown:
        return CodecError(f"unknown edge keys: {sorted(unknown)}")
    missing = {"src", "dst", "src_label", "dst_label"} - set(record)
    return CodecError(f"edge is missing keys: {sorted(missing)}")


def edge_from_json(record: dict, *,
                   default_timestamp: Optional[float] = None) -> StreamEdge:
    """Decode one edge object; raises :class:`CodecError` on bad shape.

    ``default_timestamp`` backs the server-assigned-timestamp mode: it is
    used when the record carries no ``timestamp`` key.  A record with
    neither raises, and so does a non-finite timestamp (``json.loads``
    reads ``NaN`` and ``Infinity``): a ``NaN`` clock admits every later
    arrival and stops the window expiring, an infinite one refuses them
    all.  Every field must be hashable, at any depth.
    """
    if not isinstance(record, dict):
        raise CodecError(f"edge must be a JSON object, got {type(record).__name__}")
    try:
        src, dst = record["src"], record["dst"]
        src_label, dst_label = record["src_label"], record["dst_label"]
    except KeyError:
        raise _key_error(record) from None
    # The four required keys are there, so any key beyond them and the
    # optional ones present is unknown.
    if len(record) != 4 + ("timestamp" in record) + ("label" in record) \
            + ("edge_id" in record):
        raise _key_error(record)
    timestamp = record.get("timestamp", default_timestamp)
    label, edge_id = record.get("label"), record.get("edge_id")
    if timestamp.__class__ is not float:
        if timestamp is None:
            raise CodecError("edge has no timestamp and no server default")
        if isinstance(timestamp, bool) \
                or not isinstance(timestamp, (int, float)):
            raise CodecError(f"bad timestamp: {timestamp!r}")
        try:
            timestamp = float(timestamp)
        except OverflowError:   # an integer no float can hold
            raise CodecError("bad timestamp: too large") from None
    if not math.isfinite(timestamp):
        raise CodecError(f"bad timestamp: {timestamp!r} is not finite")
    try:
        edge = StreamEdge(
            _decode_value(src) if isinstance(src, list) else src,
            _decode_value(dst) if isinstance(dst, list) else dst,
            src_label=_decode_value(src_label)
            if isinstance(src_label, list) else src_label,
            dst_label=_decode_value(dst_label)
            if isinstance(dst_label, list) else dst_label,
            timestamp=timestamp,
            label=_decode_value(label) if isinstance(label, list) else label,
            edge_id=_decode_value(edge_id)
            if isinstance(edge_id, list) else edge_id)
        # StreamEdge hashes only the id: the vertices and labels are
        # index keys downstream, so an unhashable one must stop here.
        hash((edge.src, edge.dst, edge.src_label, edge.dst_label,
              edge.label))
    except TypeError as exc:    # unhashable decoded value
        raise CodecError(f"bad edge field: {exc}") from exc
    except RecursionError:      # nested deeper than the stack follows
        raise CodecError("bad edge field: nested too deeply") from None
    return edge


def unwrap_edge_body(data) -> Optional[Tuple[list, Optional[str], bool]]:
    """Split a decoded ingest payload — ``{"edges": [...]}``, a bare
    array, or one edge object — into ``(records, request_id,
    dlq_replay)``; ``None`` when the shape is wrong (codec errors are
    handled per record downstream).  Only the envelope can carry a
    request id or the dead-letter-replay flag.  The front door and WAL
    replay both read a body through this."""
    request_id = None
    dlq_replay = False
    if isinstance(data, dict) and "edges" in data:
        raw_rid = data.get("request_id")
        if raw_rid is not None:
            request_id = str(raw_rid)
        dlq_replay = bool(data.get("dlq_replay", False))
        data = data["edges"]
    if isinstance(data, dict):
        return [data], request_id, dlq_replay
    if isinstance(data, list):
        return data, request_id, dlq_replay
    return None


def match_to_json(name: str, match: Match) -> dict:
    """The delivery record for one completed match.

    The same shape :class:`~repro.sinks.JSONLSink` writes, so WebSocket
    subscribers and the rotating match log agree line-for-line.
    """
    from ..sinks import match_record
    return match_record(name, match)
