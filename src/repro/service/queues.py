"""Bounded ingest queues with explicit, countable backpressure.

Every tenant owns one :class:`BoundedEdgeQueue` between the gateway's
front door (asyncio handlers, file tailers, in-process producers) and its
consumers: the worker thread and, for a WAL tenant, the event loop that
acked the batch.  The queue is the *only* place the service absorbs a
producer/consumer rate mismatch, and it makes the absorption policy
explicit instead of letting memory grow silently:

``block`` (default)
    ``put`` waits until the consumer makes room.  Lossless — the
    backpressure propagates to the producer (an HTTP caller's request
    simply takes longer; a tailer pauses).
``drop_oldest``
    A full queue evicts its oldest unprocessed entries to admit new
    ones, counting every eviction in ``dropped``.  Freshness over
    completeness — the load-shedding mode.
``spill``
    A full queue overflows to a disk file (JSON lines, the service
    codec) and replays it in FIFO order as the consumer catches up.
    Lossless like ``block`` but absorbs bursts without slowing the
    producer; ``spilled`` / ``spill_pending`` surface the overflow.

All counters (``enqueued``, ``dequeued``, ``dropped``, ``spilled``,
``rejected_closed``, depth, high-water mark, oldest-entry lag) feed the
``/metrics`` endpoint.  The queue is thread-safe; ``close()`` starts the
shutdown drain: producers are refused, the consumer keeps draining until
:meth:`get_batch` returns an empty batch with ``closed`` set.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import List, Optional, Sequence, Tuple

from .. import faults
from ..graph.edge import StreamEdge
from .codec import edge_from_json, edge_to_json

#: Accepted backpressure policies (see module docstring).
BACKPRESSURE_POLICIES = ("block", "drop_oldest", "spill")


class QueueClosed(RuntimeError):
    """Raised by :meth:`BoundedEdgeQueue.put` after :meth:`close`."""


class _Entry:
    """One queued arrival: the edge, its source offset (file tailers use
    this to checkpoint resume positions), its enqueue time (lag), and —
    for WAL-enabled tenants — the edge's log sequence number, which the
    worker uses to advance the applied-LSN watermark the checkpoint
    barrier records."""

    __slots__ = ("edge", "offset", "enqueued_at", "lsn")

    def __init__(self, edge: StreamEdge, offset: Optional[int],
                 enqueued_at: float, lsn: Optional[int] = None) -> None:
        self.edge = edge
        self.offset = offset
        self.enqueued_at = enqueued_at
        self.lsn = lsn


class BoundedEdgeQueue:
    """A bounded, thread-safe FIFO of edge arrivals (see module doc).

    Parameters
    ----------
    capacity:
        Maximum in-memory entries.  Must be >= 1.
    policy:
        One of :data:`BACKPRESSURE_POLICIES`.
    spill_path:
        Overflow file for the ``spill`` policy (required there, ignored
        otherwise).  Created lazily on first overflow.
    durable_spill:
        When ``True`` (the default) every spilled record is fsynced and
        an orphaned spill file is re-adopted at boot — the spill file
        *is* the durability story.  A WAL-enabled tenant passes
        ``False``: spilled edges are already journaled upstream, so the
        spill is a plain memory overflow (no per-record fsync) and an
        orphan left by a crash is discarded, because boot-time WAL
        replay re-delivers those edges — re-adopting them too would
        double-deliver.
    """

    def __init__(self, capacity: int, *, policy: str = "block",
                 spill_path: Optional[str] = None,
                 durable_spill: bool = True) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ValueError(f"queue capacity must be a positive int, "
                             f"got {capacity!r}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy: {policy!r} "
                f"(expected one of {BACKPRESSURE_POLICIES})")
        if policy == "spill" and spill_path is None:
            raise ValueError("the spill policy needs a spill_path")
        self.capacity = capacity
        self.policy = policy
        self.spill_path = spill_path
        self.durable_spill = durable_spill
        self._entries: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # Spill bookkeeping: while a spill file holds entries, FIFO order
        # requires every new arrival to join it (memory would overtake the
        # spilled middle otherwise).  The file is append-write, offset-read.
        self._spill_handle = None
        self._spill_read_offset = 0
        self._spill_pending = 0
        #: Counters surfaced on /metrics.
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.spilled = 0
        self.rejected_closed = 0
        self.high_water = 0
        #: Entries adopted from an orphaned spill file at boot.
        self.spill_recovered = 0
        #: Entries discarded by :meth:`clear` (supervisor restarts).
        self.cleared = 0
        if policy == "spill":
            if durable_spill:
                self._recover_spill()
            else:
                self._discard_orphan_spill()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def put(self, edge: StreamEdge, *, offset: Optional[int] = None,
            timeout: Optional[float] = None,
            lsn: Optional[int] = None) -> bool:
        """Enqueue one arrival; returns ``False`` only when it was shed.

        Under ``block`` a full queue waits (up to ``timeout`` seconds if
        given — expiry raises ``TimeoutError`` rather than dropping,
        because blocking promises losslessness).  Raises
        :class:`QueueClosed` after :meth:`close`.
        """
        return self.put_batch((edge,), first_lsn=lsn, offset=offset,
                              timeout=timeout) == 1

    def put_batch(self, edges: Sequence[StreamEdge], *,
                  first_lsn: Optional[int] = None,
                  offset: Optional[int] = None,
                  timeout: Optional[float] = None,
                  wake: bool = True) -> int:
        """Enqueue a batch under one lock hold, with one timestamp and
        one consumer wake-up; returns how many were admitted (all of
        them: ``drop_oldest`` sheds the *oldest* entries, never the new
        ones — admitted means entered the pipeline, not survived it).

        Edges get consecutive LSNs from ``first_lsn`` and ``offset`` tags
        the last one.  Under ``block`` the batch takes the room there is
        and waits for the rest (so a batch larger than the capacity still
        drains through); ``timeout`` bounds the whole call and expiry
        raises ``TimeoutError`` with the admitted prefix left queued.
        ``wake=False`` skips the wake-up, for a producer that consumes
        the batch itself (a consumer blocked in :meth:`wait` still finds
        it at its next poll, and one is woken whenever the batch has to
        wait for room).  Raises :class:`QueueClosed` after :meth:`close`.
        """
        if not edges:
            return 0
        faults.fire("queue.put")
        entries, capacity, policy = self._entries, self.capacity, self.policy
        last = len(edges) - 1
        with self._lock:
            if self._closed:
                self.rejected_closed += 1
                raise QueueClosed("queue is closed to new arrivals")
            now = time.monotonic()
            deadline = None if timeout is None else now + timeout
            appended = 0
            for position, edge in enumerate(edges):
                tag = offset if position == last else None
                lsn = None if first_lsn is None else first_lsn + position
                if len(entries) >= capacity or self._spill_pending:
                    if policy == "spill":
                        self._spill_out(edge, tag, lsn)
                        continue
                    if policy == "drop_oldest":
                        entries.popleft()
                        self.dropped += 1
                    else:
                        self._published(appended, True)
                        appended = 0
                        now = self._wait_for_room(deadline)
                entries.append(_Entry(edge, tag, now, lsn))
                appended += 1
            self._published(appended, wake)
        return len(edges)

    def _published(self, appended: int, wake: bool) -> None:
        """Account for ``appended`` new in-memory entries and, with
        ``wake``, wake the consumer once (lock held)."""
        if appended:
            self.enqueued += appended
            if len(self._entries) > self.high_water:
                self.high_water = len(self._entries)
            if wake:
                self._not_empty.notify(appended)

    def _wait_for_room(self, deadline: Optional[float]) -> float:
        """Block until the queue has room (lock held); returns the time
        it did.  ``TimeoutError`` past ``deadline``, :class:`QueueClosed`
        if the queue closes meanwhile."""
        while len(self._entries) >= self.capacity:
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if (remaining is not None and remaining <= 0) \
                    or not self._not_full.wait(remaining):
                raise TimeoutError("queue stayed full past the put timeout")
            if self._closed:
                self.rejected_closed += 1
                raise QueueClosed("queue closed while blocked")
        return time.monotonic()

    # ------------------------------------------------------------------ #
    # Spill file (all under self._lock)
    # ------------------------------------------------------------------ #
    def _recover_spill(self) -> None:
        """Adopt an orphaned spill file left by a crash (init only).

        A kill between spill-out and spill-in used to lose the parked
        edges silently: the next overflow reopened the file with ``w+``
        and truncated them.  Now complete lines are counted back into
        the pending total (a torn trailing write — no final newline —
        is discarded via an atomic rewrite, never a partial parse).
        """
        try:
            with open(self.spill_path, encoding="utf-8") as handle:
                data = handle.read()
        except (FileNotFoundError, OSError):
            return
        if not data:
            return
        keep = data if data.endswith("\n") \
            else data[:data.rfind("\n") + 1]
        if keep != data:
            tmp = self.spill_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as out:
                out.write(keep)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.spill_path)
        count = keep.count("\n")
        if not count:
            return
        self._spill_handle = open(self.spill_path, "a+", encoding="utf-8")
        self._spill_read_offset = 0
        self._spill_pending = count
        self.spill_recovered = count
        # Keep the flow balance (enqueued == dequeued once drained):
        # recovered entries re-enter this process's pipeline.
        self.enqueued += count
        self.spilled += count

    def _discard_orphan_spill(self) -> None:
        """Drop a crash-orphaned spill file (init, non-durable mode) —
        its edges live in the WAL and replay will re-deliver them; a
        second delivery from the spill would break exactly-once."""
        try:
            os.remove(self.spill_path)
        except OSError:
            pass

    def _spill_out(self, edge: StreamEdge, offset: Optional[int],
                   lsn: Optional[int] = None) -> None:
        if self._spill_handle is None:
            self._spill_handle = open(self.spill_path, "a+", encoding="utf-8")
            self._spill_read_offset = 0
        record = {"edge": edge_to_json(edge)}
        if offset is not None:
            record["offset"] = offset
        if lsn is not None:
            record["lsn"] = lsn
        self._spill_handle.seek(0, os.SEEK_END)
        self._spill_handle.write(json.dumps(record) + "\n")
        self._spill_handle.flush()
        if self.durable_spill:
            # Durability before acknowledgement: once put() returns, a
            # kill must not lose the parked edge.  (A WAL-enabled tenant
            # already journaled it — the spill is just overflow.)
            os.fsync(self._spill_handle.fileno())
        self._spill_pending += 1
        self.spilled += 1
        self.enqueued += 1
        self._not_empty.notify()

    def _spill_in(self, budget: int) -> None:
        """Refill up to ``budget`` entries from the spill file, swapping
        in a fresh file once fully drained."""
        handle = self._spill_handle
        handle.seek(self._spill_read_offset)
        while budget > 0 and self._spill_pending > 0:
            line = handle.readline()
            if not line:
                break
            self._spill_pending -= 1
            try:
                record = json.loads(line)
                entry = _Entry(edge_from_json(record["edge"]),
                               record.get("offset"), time.monotonic(),
                               record.get("lsn"))
            except (ValueError, KeyError):
                # A corrupt recovered line: drop it, keep draining.
                self.dropped += 1
                self.dequeued += 1
                continue
            self._entries.append(entry)
            budget -= 1
        self._spill_read_offset = handle.tell()
        if self._spill_pending == 0:
            self._spill_reset()

    def _spill_reset(self) -> None:
        """Replace the drained spill file with a fresh empty one via
        atomic rename — an in-place truncate torn by a crash could leave
        half a record to be mis-recovered on the next boot."""
        tmp = self.spill_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as out:
            out.flush()
            os.fsync(out.fileno())
        if self._spill_handle is not None:
            self._spill_handle.close()
        os.replace(tmp, self.spill_path)
        self._spill_handle = open(self.spill_path, "a+", encoding="utf-8")
        self._spill_read_offset = 0

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def get_batch(self, max_batch: int,
                  timeout: Optional[float] = None
                  ) -> Tuple[List[_Entry], bool]:
        """Dequeue up to ``max_batch`` entries.

        Returns ``(entries, closed)``.  Blocks up to ``timeout`` seconds
        for the first entry (``None`` = forever); an empty batch with
        ``closed=True`` means the queue is closed *and* fully drained —
        the worker's exit signal.
        """
        faults.fire("queue.get")
        with self._lock:
            while not self._entries and not self._spill_pending:
                if self._closed:
                    return [], True
                if not self._not_empty.wait(timeout):
                    return [], self._closed and not self._entries \
                        and not self._spill_pending
            batch: List[_Entry] = []
            while self._entries and len(batch) < max_batch:
                batch.append(self._entries.popleft())
            if self._spill_pending and len(batch) < max_batch:
                self._spill_in(max_batch - len(batch))
                while self._entries and len(batch) < max_batch:
                    batch.append(self._entries.popleft())
            self.dequeued += len(batch)
            self._not_full.notify_all()
            return batch, False

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until an entry is queued or the queue closes, at most
        ``timeout`` seconds; returns whether an entry is queued.  A
        consumer that must dequeue and apply under a lock of its own
        waits here, then takes the batch with ``get_batch(n, timeout=0)``
        inside that lock."""
        with self._lock:
            if not (self._entries or self._spill_pending or self._closed):
                self._not_empty.wait(timeout)
            return bool(self._entries or self._spill_pending)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Entries currently queued (memory + spill overflow)."""
        with self._lock:
            return len(self._entries) + self._spill_pending

    def spill_pending(self) -> int:
        """Entries currently parked in the spill file."""
        with self._lock:
            return self._spill_pending

    def lag_seconds(self) -> float:
        """Age of the oldest queued in-memory entry (0.0 when empty) —
        how far the consumer trails the front door."""
        with self._lock:
            if not self._entries:
                return 0.0
            return max(0.0, time.monotonic() - self._entries[0].enqueued_at)

    def counters(self) -> dict:
        """A snapshot of every counter the metrics endpoint exports."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "depth": len(self._entries) + self._spill_pending,
                "spill_pending": self._spill_pending,
                "high_water": self.high_water,
                "enqueued": self.enqueued,
                "dequeued": self.dequeued,
                "dropped": self.dropped,
                "spilled": self.spilled,
                "rejected_closed": self.rejected_closed,
                "spill_recovered": self.spill_recovered,
                "cleared": self.cleared,
                "lag_seconds": (
                    max(0.0, time.monotonic() - self._entries[0].enqueued_at)
                    if self._entries else 0.0),
            }

    def clear(self) -> int:
        """Discard every pending entry (memory + spill) — the
        supervisor's restart path: a session restored from its
        checkpoint replays from the checkpointed position, so the
        backlog past the barrier must not be applied out of order.
        Returns how many entries were discarded."""
        with self._lock:
            count = len(self._entries) + self._spill_pending
            self._entries.clear()
            if self._spill_pending:
                self._spill_pending = 0
                self._spill_reset()
            self.cleared += count
            # Flow balance: cleared entries left the pipeline.
            self.dequeued += count
            self._not_full.notify_all()
            return count

    def check_open(self) -> None:
        """Raise :class:`QueueClosed` (counted like a refused put) once
        :meth:`close` was called — for a producer that must be refused
        before it writes anything anywhere else."""
        with self._lock:
            if self._closed:
                self.rejected_closed += 1
                raise QueueClosed("queue is closed to new arrivals")

    def close(self) -> None:
        """Refuse new arrivals; wakes blocked producers and the consumer
        (which keeps draining what is already queued).  Idempotent."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def dispose(self) -> None:
        """Release the spill file handle (after the worker has exited)."""
        with self._lock:
            if self._spill_handle is not None:
                self._spill_handle.close()
                self._spill_handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BoundedEdgeQueue(depth={self.depth()}, "
                f"capacity={self.capacity}, policy={self.policy})")
