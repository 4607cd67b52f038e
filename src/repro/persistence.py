"""Checkpointing: a session is its query list and its windows.

An expansion list is by definition the set of partial matches over the
current window (paper §IV; Algorithms 2–3 maintain exactly that set), so
what an engine holds is a function of what a session has as plain data.
A checkpoint stores that data and restore is *register, then replay* —
about the cost of streaming one window.

**Written** (:func:`snapshot`; in a CRC32 frame, beside the caller's
``meta``): the ``EngineConfig``, default window (a duration, or a
policy object's group key), clock and counters; per query, in ordinal
order, its registration recipe (name, ordinal, ``QueryGraph``, window as
its group's key ``(kind, parameter)``, backend name, config, engine
options — a Timing engine's resolved join order among them, so a
``random`` strategy rebuilds the plan it had), its ``since`` watermark
and ``EngineStats``; per window group, the buffered edges in arrival
order.  Registration refuses whatever this cannot name (a callable
backend, another window-policy class), so every query can be written.
Sinks, callbacks and a callable default-window factory are runtime
wiring: dropped, re-attach them.

**Restored** (:func:`rebuild`): data of any other shape is refused with
:class:`CheckpointCorruptError` naming the field; then an empty session
from the config, then each query in ordinal order, registered once its
group's buffered edges up to its watermark are back in the group's
window and in the members registered before it; then the rest of every
buffer.  Clock, counters, stats and watermarks are set from the data
(cumulative counters are carried, not recounted).  Replay is per group:
an id that was a live duplicate for one group and fresh for another sits
in one buffer and not the other.

``pickle`` is only the byte codec (labels are arbitrary hashables, which
JSON cannot round-trip): both directions admit :data:`VALUE_TYPES` and
nothing else, so a file naming any other class — an engine, a sink,
``os.system`` — is refused with :class:`CheckpointCorruptError` before
anything is constructed, and a label of a class outside the list fails
at ``checkpoint()``, not at recovery.  Taken from a sink, a checkpoint
holds the arrival being delivered as having reached every query: it is
in its groups' buffers.  ``tests/test_session_model.py``
pins restored ≡ naive; ``tests/test_logical_checkpoint.py``, what differs.
"""

from __future__ import annotations

import io
import math
import pickle
import struct
import zlib
from collections import Counter, deque
from typing import BinaryIO, Optional, Tuple, Union

from .api import BACKENDS, Session, _QueryRecord
from .core.query import ANY, Prefix, QueryEdge, QueryGraph, QueryVertex
from .core.timing import TimingOrder
from .graph.edge import StreamEdge
from .graph.shared_window import window_policy_from_key, window_policy_key
from .isomorphism import ALGORITHMS, StaticMatcher
from .matcher import EngineConfig, EngineStats

#: Bumped only when the data schema in the module docstring changes;
#: a file of any other version is refused.
CHECKPOINT_VERSION = 19

_MAGIC = b"timingsubg-checkpoint"
#: On-disk container prefix of the CRC frame; a file without it is not
#: a checkpoint and is never handed to ``pickle``.
_FRAME_MAGIC = b"TSGCKPT\x02"
_FRAME_HEADER = struct.Struct("<II")    # crc32(payload), len(payload)

#: Every class a checkpoint payload may name (built-in values are
#: opcodes, not names); the last row is a baseline's ``algorithm=``.
VALUE_TYPES = frozenset({
    StreamEdge, QueryGraph, QueryVertex, QueryEdge, TimingOrder, Prefix,
    type(ANY), EngineConfig,
    StaticMatcher, *ALGORITHMS.values(), Counter,
})
_VALUE_NAMES = frozenset(
    (cls.__module__, cls.__qualname__) for cls in VALUE_TYPES)

_NEVER = float("-inf")

_PathOrFile = Union[str, BinaryIO]


class CheckpointError(RuntimeError):
    """A malformed or version-incompatible checkpoint file, or a session
    holding something a checkpoint cannot name."""


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


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj):
        # Consulted for everything but atoms and built-in containers —
        # instances and the classes they name alike.
        if (obj if isinstance(obj, type) else type(obj)) not in VALUE_TYPES:
            raise CheckpointError(
                f"cannot checkpoint {obj!r}: {type(obj).__qualname__} is "
                "not a checkpoint value type (see VALUE_TYPES)")
        return NotImplemented


class _Unpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in _VALUE_NAMES:
            raise pickle.UnpicklingError(
                f"{module}.{name} is not a checkpoint value type")
        return super().find_class(module, name)


def _dump(envelope: dict, target: _PathOrFile) -> None:
    buffer = io.BytesIO()
    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(envelope)
    payload = buffer.getvalue()
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
        envelope = _Unpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        # A garbled pickle raises anything from EOFError to AttributeError
        # depending on where the damage lands, and find_class refuses a
        # class outside VALUE_TYPES; all mean the same operational fact.
        raise CheckpointCorruptError(path, f"unreadable pickle: {exc!r}")
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise CheckpointError("not a timingsubg checkpoint file")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} incompatible with "
            f"{CHECKPOINT_VERSION}")
    return envelope


def snapshot(session: Session) -> dict:
    """``session`` as plain data: what :func:`save_session` frames."""
    queries = []
    for record in session._queries.values():
        matcher = record.matcher
        options = record.options
        if record.backend == "timing" and not matcher.stateless:
            options = {**options, "decomposition": matcher.join_order,
                       "join_order": matcher.join_order}
        queries.append({
            "name": record.name, "ordinal": record.ordinal,
            "query": record.query, "window": record.group_key,
            "backend": record.backend, "config": record.config,
            "options": options, "since": matcher.window.since,
            "stats": matcher.stats.as_dict()})
    window = session.default_window
    if callable(window):
        window = None       # runtime wiring, like the sinks
    elif window is not None and not isinstance(window, (int, float)):
        window = window_policy_key(window)
    return {
        "config": session.config,
        "default_window": window,
        "clock": session.current_time,
        "edges_pushed": session.edges_pushed,
        "routed_pushes": session.routed_pushes,
        "skipped_matchers": session.skipped_matchers,
        "next_ordinal": session._next_ordinal,
        "queries": queries,
        "groups": [(key, list(group.window))
                   for key, group in session._admission.groups.items()],
    }


def rebuild(data: dict, path: str = "<data>") -> Session:
    """The session :func:`snapshot` described, by register-then-replay;
    :class:`CheckpointCorruptError` for ``data`` of any other shape."""
    problem = _misshapen(data)
    if problem is not None:
        raise CheckpointCorruptError(path, problem)
    window = data["default_window"]
    if isinstance(window, tuple):
        window = window_policy_from_key(window)
    session = Session(window=window, config=data["config"])
    _replay(session, data, path)
    return session


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _time(value) -> bool:
    return type(value) in (int, float) and -math.inf <= value < math.inf


def _config(value) -> bool:
    try:
        return isinstance(value, EngineConfig) and value.validate() is value
    except ValueError:
        return False


def _group_of(spec) -> Optional[Tuple]:
    """The window group a saved window spec names, or ``None``."""
    if type(spec) in (int, float):
        spec = ("time", float(spec))
    try:
        key = window_policy_key(window_policy_from_key(spec))
    except (TypeError, ValueError):
        return None
    return key if key == spec else None


#: What each field :func:`snapshot` writes must be, per session and query.
_SESSION_SHAPE = {
    "config": _config,
    "default_window": lambda value: value is None or _group_of(value),
    "clock": _time,
    "edges_pushed": _count, "routed_pushes": _count,
    "skipped_matchers": _count, "next_ordinal": _count,
    "queries": lambda value: type(value) is list,
    "groups": lambda value: type(value) is list and all(
        type(pair) is tuple and len(pair) == 2 and type(pair[0]) is tuple
        and _group_of(pair[0]) == pair[0] and type(pair[1]) is list
        for pair in value),
}
_QUERY_SHAPE = {
    "name": lambda value: type(value) is str,
    "ordinal": _count,
    "query": lambda value: isinstance(value, QueryGraph),
    "window": _group_of,
    "backend": lambda value: value in BACKENDS,
    "config": _config,
    "options": lambda value: type(value) is dict
    and all(type(name) is str for name in value),
    "since": _time,
    "stats": lambda value: type(value) is dict and all(
        name in EngineStats.__slots__ and _count(count)
        for name, count in value.items()),
}


def _bad_field(where: str, found, shape: dict) -> Optional[str]:
    if type(found) is not dict:
        return f"{where} is not a dict"
    for name in found:
        if name not in shape:
            return f"{where} has an unknown field {name!r:.60}"
    for name, valid in shape.items():
        if name not in found:
            return f"{where} lacks {name!r}"
        if not valid(found[name]):
            return f"{where}.{name} is misshapen: {found[name]!r:.60}"
    return None


def _misshapen(data: dict) -> Optional[str]:
    """The first way ``data`` departs from what :func:`snapshot` writes,
    naming the field, or ``None``."""
    problem = _bad_field("session", data, _SESSION_SHAPE)
    if problem is not None:
        return problem
    keys = [key for key, _ in data["groups"]]
    for i, (_, edges) in enumerate(data["groups"]):
        times = [edge.timestamp if isinstance(edge, StreamEdge) else None
                 for edge in edges]
        if not all(map(_time, times)) or times != sorted(set(times)) \
                or times and times[-1] > data["clock"]:
            return f"groups[{i}] is not a stream of edges up to the clock"
    names, ordinal = set(), -1
    for i, saved in enumerate(data["queries"]):
        where = f"queries[{i}]"
        problem = _bad_field(where, saved, _QUERY_SHAPE)
        if problem is not None:
            return problem
        if saved["name"] in names:
            return f"{where}.name repeats {saved['name']!r}"
        if not ordinal < saved["ordinal"] < data["next_ordinal"]:
            return f"{where}.ordinal does not rise below next_ordinal"
        if _group_of(saved["window"]) not in keys:
            return f"{where}.window's group is not in groups"
        names.add(saved["name"])
        ordinal = saved["ordinal"]
    members = {_group_of(saved["window"]) for saved in data["queries"]}
    if len(set(keys)) < len(keys) or members != set(keys):
        return "groups are not the distinct window groups of the queries"
    return None


def _replay(session: Session, data: dict, path: str) -> None:
    admission = session._admission
    buffers = {key: deque(edges) for key, edges in data["groups"]}
    for key in buffers:
        admission.open(key)     # in the saved order, before any member

    def feed(key, until: float) -> None:
        # The group's edges up to ``until``, into its window and into the
        # members registered so far — all of which joined before them —
        # held with that target list for their expiry, as admission does.
        buffer, group = buffers[key], admission.groups[key]
        while buffer and buffer[0].timestamp <= until:
            edge = buffer.popleft()
            group.window.push(edge)     # expires nothing: all are live
            targets = session._index.targets(edge)
            group.hold(edge, targets)
            for _, record in targets:
                if record.group_key == key \
                        and not record.matcher.stateless:
                    record.matcher._insert(edge)

    for i, saved in enumerate(data["queries"]):
        record = _QueryRecord(
            saved["name"], saved["ordinal"], None, None,
            _group_of(saved["window"]),
            query=saved["query"], backend=saved["backend"],
            config=saved["config"], options=saved["options"])
        feed(record.group_key, saved["since"])
        try:
            session._install(record)
        except (TypeError, ValueError) as exc:    # refused by its backend
            raise CheckpointCorruptError(path, f"queries[{i}]: {exc}")
    for key in buffers:
        feed(key, float("inf"))

    clock = data["clock"]
    for saved, record in zip(data["queries"], session._queries.values()):
        matcher = record.matcher
        matcher.window.since = saved["since"]
        for name, value in saved["stats"].items():
            setattr(matcher.stats, name, value)
    admission.clock = clock
    admission.edges_pushed = data["edges_pushed"]
    if clock > _NEVER:
        for group in admission.groups.values():
            group.window.advance(clock)
    session.routed_pushes = data["routed_pushes"]
    session.skipped_matchers = data["skipped_matchers"]
    session._next_ordinal = data["next_ordinal"]


def save_session(session: Session, target: _PathOrFile, *,
                 meta: Optional[dict] = None) -> None:
    """Write ``session``'s data (sans sinks/callbacks) to ``target``.

    ``meta`` rides in the envelope next to the session — the service
    layer stores barrier bookkeeping there (stream position, sealed
    match-log segment, tail offsets) so recovery reads one consistent
    capture instead of racing a sidecar file.  Retrieve it with
    :func:`load_session_meta`.
    """
    envelope = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "session": snapshot(session),
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
    data = envelope.get("session")
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint does not contain a Session")
    path = source if isinstance(source, str) \
        else getattr(source, "name", "<stream>")
    return rebuild(data, path), envelope.get("meta")
