"""File tailing producers: follow JSONL/CSV files into a tenant's queue.

A :class:`FileTailer` is a daemon thread that follows a growing file
(``tail -f`` style), parses each completed line into a
:class:`~repro.graph.edge.StreamEdge`, and enqueues it on its tenant's
bounded queue — so file-fed deployments get the same backpressure,
metrics, and crash recovery as network producers.

Each enqueued edge carries the byte offset *after* its line as a source
resume position; the tenant's worker records the offset once the edge is
actually in the engine, and the checkpoint barrier persists it.  On
restart the gateway hands the tailer the checkpointed offset, so lines
already absorbed before the crash are not re-read and lines after the
barrier are replayed — exactly the at-least-once replay the recovery
contract needs (see :mod:`repro.service.gateway`).

Formats: ``jsonl`` (one service-codec edge object per line) and ``csv``
(the :mod:`repro.io.csv_stream` column layout; the header row is re-read
on every boot to recover the field order, then the tailer seeks to the
resume offset).  A line that fails to parse — malformed JSON or CSV, a
bad edge, a non-finite timestamp, bytes that are not UTF-8 — is counted
and skipped: a corrupt row must not wedge the feed.  Partial lines (a
writer caught mid-append) are left unconsumed until their newline
arrives.

Resilience: read errors back off exponentially (capped) and reopen the
file at the last fully-consumed offset, so a transient I/O failure never
kills the feed.  Truncation (the file shrank under the tailer) and
rotation (the path now names a different inode) are detected at the next
idle poll; both reopen from the start of the new content and are
counted.  The ``tailer.read`` fault-injection site covers every read.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from typing import List, Optional

from .. import faults
from ..graph.edge import StreamEdge
from ..io.csv_stream import _parse_label
from ..stats import COUNTER, Table, snapshot
from .codec import CodecError, edge_from_json, parse_json
from .config import TailConfig
from .queues import QueueClosed

#: Read-error backoff bounds (seconds).
_BACKOFF_CAP = 5.0


class FileTailer(threading.Thread):
    """Follow one file into one tenant's queue (see module docstring)."""

    #: What :meth:`status` reports beside path and format.
    STATS: Table = {
        "lines_read": (COUNTER, "Complete lines read from the tailed file."),
        "parse_errors": (COUNTER, "Tailed lines skipped as unparsable."),
        "edges_enqueued": (COUNTER, "Tailed edges enqueued."),
        "read_errors": (COUNTER, "Tailed-file read failures survived."),
        "truncations": (COUNTER, "Times the file shrank under the tailer."),
        "rotations": (COUNTER, "Times the tailed path named a new file."),
    }

    def __init__(self, tenant, config: TailConfig, *,
                 start_offset: int = 0) -> None:
        super().__init__(daemon=True,
                         name=f"repro-tail-{tenant.config.name}")
        self.tenant = tenant
        self.config = config
        self.start_offset = start_offset
        self._stop_event = threading.Event()
        self.lines_read = 0
        self.parse_errors = 0
        self.edges_enqueued = 0
        self.read_errors = 0
        self.truncations = 0
        self.rotations = 0
        self._resume_offset = start_offset

    def stop(self) -> None:
        """Ask the tailer to exit; it stops at the next poll tick."""
        self._stop_event.set()

    # ------------------------------------------------------------------ #
    def run(self) -> None:  # noqa: D102 - Thread API
        poll = self.config.poll_interval
        backoff = poll
        while not self._stop_event.is_set():
            if not os.path.exists(self.config.path):
                if self._stop_event.wait(poll):
                    return
                continue
            try:
                # Undecodable bytes become lone surrogates, which
                # ``_parse`` refuses, instead of killing the thread.
                with open(self.config.path, encoding="utf-8",
                          errors="surrogateescape", newline="") as fh:
                    fields = self._position(fh, self._resume_offset)
                    outcome = self._follow(fh, fields, poll)
            except QueueClosed:
                return
            except OSError:
                # Transient read trouble (or an injected fault): back
                # off and reopen at the last fully-consumed offset.
                self.read_errors += 1
                backoff = min(backoff * 2.0, _BACKOFF_CAP)
                if self._stop_event.wait(backoff):
                    return
                continue
            backoff = poll
            if outcome == "stopped":
                return
            # "reopen": truncation/rotation — loop around and reattach.

    def _position(self, fh, offset: int) -> Optional[List[str]]:
        """Consume the CSV header (if any) and seek to the resume
        offset; returns the CSV field order or ``None`` for JSONL."""
        fields: Optional[List[str]] = None
        if self.config.format == "csv":
            header = fh.readline()
            if header:
                fields = next(csv.reader([header]))
            header_end = fh.tell()
            if offset > header_end:
                fh.seek(offset)
        elif offset:
            fh.seek(offset)
        return fields

    def _follow(self, fh, fields, poll: float) -> str:
        """Consume completed lines until stop ("stopped") or until the
        file is truncated/rotated under us ("reopen")."""
        while not self._stop_event.is_set():
            position = fh.tell()
            faults.fire("tailer.read")
            line = fh.readline()
            if not line or not line.endswith("\n"):
                # Nothing new, or a writer caught mid-line: rewind and
                # wait for the newline to land.
                fh.seek(position)
                event = self._check_replaced(fh, position)
                if event is not None:
                    self._resume_offset = 0
                    return "reopen"
                if self._stop_event.wait(poll):
                    return "stopped"
                continue
            self.lines_read += 1
            stripped = line.strip()
            if not stripped:
                self._resume_offset = fh.tell()
                continue
            if self.tenant.ingest_edges(   # parsed in the admission hold
                    lambda: self._parse(stripped, fields),
                    offset=(self.config.path, fh.tell())):
                self.edges_enqueued += 1
            else:
                self.parse_errors += 1
            self._resume_offset = fh.tell()
        return "stopped"

    def _check_replaced(self, fh, position: int) -> Optional[str]:
        """At an idle poll, notice the file changing under the tailer."""
        try:
            disk = os.stat(self.config.path)
        except OSError:
            # The path vanished mid-rotation; reopen once it returns.
            self.rotations += 1
            return "rotated"
        if disk.st_size < position:
            self.truncations += 1
            return "truncated"
        if disk.st_ino != os.fstat(fh.fileno()).st_ino:
            self.rotations += 1
            return "rotated"
        return None

    def _parse(self, line: str,
               fields: Optional[List[str]]) -> List[StreamEdge]:
        """The line's edge, or none; run in the tenant's admission hold,
        where it may draw a server stamp."""
        server_mode = self.tenant.config.timestamps == "server"
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:      # the file held invalid UTF-8
            return []
        if self.config.format == "jsonl":
            try:
                record = parse_json(line)
                default = (self.tenant.next_server_timestamp()
                           if server_mode else None)
                return [edge_from_json(record, default_timestamp=default)]
            except (ValueError, CodecError, RecursionError):
                return []
        # csv
        if not fields:
            return []
        try:
            values = next(csv.reader([line]))
            if len(values) > len(fields):
                return []       # a column the header does not name
            row = dict(zip(fields, values))
            timestamp = (self.tenant.next_server_timestamp()
                         if server_mode else float(row["timestamp"]))
            if not math.isfinite(timestamp):
                return []
            return [StreamEdge(
                row["src"], row["dst"],
                src_label=row["src_label"], dst_label=row["dst_label"],
                timestamp=timestamp,
                label=_parse_label(row.get("label") or ""),
                edge_id=row.get("edge_id") or None)]
        except (KeyError, ValueError, StopIteration, csv.Error):
            return []

    def status(self) -> dict:
        """A JSON-able snapshot: the path, the format and :attr:`STATS`."""
        return {"path": self.config.path, "format": self.config.format,
                **snapshot(self, self.STATS)}
