"""Match sinks: pluggable consumers for :class:`~repro.api.Session` results.

A sink is any callable taking ``(query_name, match)``; plain functions work
directly.  This module ships the stock ones:

* :class:`ListSink` — collect ``(name, match)`` pairs in memory (safe to
  append from concurrent matcher threads);
* :class:`JSONLSink` — append one JSON object per match to a file, the
  format downstream alerting pipelines ingest;
* :class:`RotatingJSONLSink` — JSONL across numbered segment files that
  rotate on demand, the exactly-once delivery primitive the service
  layer's checkpoint barrier rides on;
* :func:`printing_sink` — human-readable one-liners to any text stream.

File-backed sinks have deterministic lifecycle semantics — ``flush()``
pushes buffered records to the OS, ``close()`` is idempotent, writing
after close raises — because a long-running service must be able to
rotate and close sinks at exact points (checkpoint barriers, graceful
shutdown) and *know* what reached disk.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Hashable, IO, Iterator, List, Optional, Tuple, Union

from . import faults
from .core.matches import Match
from .core.query import ANY


class ListSink:
    """Collects every delivered match in arrival order.

    Iterating yields ``(query_name, match)`` pairs; ``matches`` is the
    bare match list.

    Cross-thread use: matchers running in different threads (e.g. a
    service worker plus a direct caller) may deliver concurrently.
    Appends go through a lock so records never interleave mid-update,
    and the read accessors snapshot the list — iteration never observes
    a half-applied :meth:`clear`.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, Match]] = []
        self._lock = threading.Lock()

    def __call__(self, name: str, match: Match) -> None:
        with self._lock:
            self.records.append((name, match))

    @property
    def matches(self) -> List[Match]:
        with self._lock:
            return [match for _, match in self.records]

    def for_query(self, name: str) -> List[Match]:
        """The collected matches of one query."""
        with self._lock:
            return [match for n, match in self.records if n == name]

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)

    def __iter__(self) -> Iterator[Tuple[str, Match]]:
        with self._lock:
            return iter(list(self.records))

    def __repr__(self) -> str:
        return f"ListSink({len(self)} matches)"


def _json_safe(value: Hashable):
    """Labels can be tuples, ints, the ANY wildcard… make them JSON-able."""
    if value is ANY:
        return "*"
    if isinstance(value, tuple):
        return [_json_safe(part) for part in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def match_record(name: str, match: Match) -> dict:
    """The canonical JSON-able record for one delivered match.

    One function owns the shape so every delivery path — the JSONL sinks
    here, the service layer's WebSocket subscriptions — emits identical
    records.
    """
    return {
        "query": name,
        "matched_at": match.latest_timestamp(),
        "edges": {
            str(edge_id): {
                "src": _json_safe(edge.src),
                "dst": _json_safe(edge.dst),
                "timestamp": edge.timestamp,
                "label": _json_safe(edge.label),
            }
            for edge_id, edge in match.edge_map.items()
        },
    }


class JSONLSink:
    """Appends one JSON object per match to a path or text file object.

    Each line looks like::

        {"query": "exfil", "matched_at": 8.0,
         "edges": {"t1": {"src": ..., "dst": ..., "timestamp": ...,
                          "label": ...}, ...}}

    Lifecycle: every record is flushed to the OS as it is written (alerts
    must reach tailing consumers immediately, and a crash must not lose
    buffered records); :meth:`flush` re-asserts that explicitly,
    :meth:`close` is idempotent and flushes first (for caller-owned file
    objects it flushes but leaves the handle open — the caller owns its
    lifetime), and writing after close raises ``ValueError`` instead of
    corrupting a rotated-away file.  Usable as a context manager.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._handle: Optional[IO[str]] = open(
                target, "a", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.count = 0
        self._closed = False

    def __call__(self, name: str, match: Match) -> None:
        if self._closed:
            raise ValueError("sink is closed")
        self._handle.write(
            json.dumps(match_record(name, match), sort_keys=True) + "\n")
        self._handle.flush()
        self.count += 1

    def flush(self) -> None:
        """Push any buffered records to the OS (``ValueError`` if closed)."""
        if self._closed:
            raise ValueError("sink is closed")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close (idempotent).  A caller-owned file object is
        flushed but left open; further writes raise either way."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = ", closed" if self._closed else ""
        return f"JSONLSink({self.count} matches written{state})"


class RotatingJSONLSink:
    """JSONL match records across numbered segment files.

    Writes ``<prefix>-<n>.jsonl`` segments under ``directory``; a call to
    :meth:`rotate` seals the current segment (flush + fsync + close) and
    opens the next.  The service layer rotates exactly at checkpoint
    barriers: segments at or below the sealed index are *committed*
    (their matches correspond to stream positions the checkpoint
    captured), anything newer is discarded on crash recovery and
    regenerated by replay — which is what makes match delivery
    exactly-once per segment instead of at-least-once.

    Thread-safe; record counting and rotation are atomic with respect to
    writes.
    """

    def __init__(self, directory: str, *, prefix: str = "matches",
                 start_index: int = 0) -> None:
        self.directory = directory
        self.prefix = prefix
        self.index = start_index
        self.count = 0
        self._lock = threading.Lock()
        self._closed = False
        os.makedirs(directory, exist_ok=True)
        self._handle: Optional[IO[str]] = open(
            self.segment_path(self.index), "a", encoding="utf-8")

    def segment_path(self, index: int) -> str:
        """The path of segment ``index``."""
        return os.path.join(self.directory,
                            f"{self.prefix}-{index:06d}.jsonl")

    def __call__(self, name: str, match: Match,
                 line: Optional[str] = None) -> None:
        """Append one match; ``line`` is its record already encoded
        (``json.dumps(match_record(name, match), sort_keys=True)``), for
        a caller that hands the same text elsewhere too."""
        if line is None:
            line = json.dumps(match_record(name, match), sort_keys=True)
        with self._lock:
            if self._closed:
                raise ValueError("sink is closed")
            faults.fire("sink.write")
            self._handle.write(line + "\n")
            self.count += 1

    def rotate(self) -> int:
        """Seal the current segment durably; returns its index.

        The sealed file is flushed and fsynced before the next segment
        opens, so a checkpoint that records the returned index can rely
        on every one of its records surviving a crash.
        """
        with self._lock:
            if self._closed:
                raise ValueError("sink is closed")
            sealed = self.index
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self.index += 1
            self._handle = open(
                self.segment_path(self.index), "a", encoding="utf-8")
            return sealed

    def flush(self) -> None:
        """Flush the open segment (``ValueError`` if closed)."""
        with self._lock:
            if self._closed:
                raise ValueError("sink is closed")
            faults.fire("sink.flush")
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the open segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def abort(self) -> None:
        """Crash simulation: close the open segment's file descriptor
        and discard what is still buffered, as a ``SIGKILL`` would."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handle, self._handle = self._handle, None
        handle.buffer.raw.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` or :meth:`abort` has run."""
        return self._closed

    def segment_files(self) -> List[str]:
        """Existing segment paths, in index order."""
        try:
            names = sorted(
                name for name in os.listdir(self.directory)
                if name.startswith(self.prefix + "-")
                and name.endswith(".jsonl"))
        except FileNotFoundError:
            return []
        return [os.path.join(self.directory, name) for name in names]

    def __enter__(self) -> "RotatingJSONLSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RotatingJSONLSink(segment={self.index}, "
                f"{self.count} matches written)")


def printing_sink(stream=None, template: str = "[{name}] match at t={t}"):
    """A sink printing one line per match (default: stdout)."""
    def sink(name: str, match: Match) -> None:
        line = template.format(name=name, t=match.latest_timestamp(),
                               match=match)
        if stream is None:
            print(line)
        else:
            print(line, file=stream)
    return sink
