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
    completeness — the load-shedding mode (not for a WAL tenant, whose
    ack promises every journaled edge is applied).

The queue holds memory only: a tenant's one on-disk FIFO is its
write-ahead log.  Its counters (:attr:`BoundedEdgeQueue.STATS`) feed
``/stats`` and ``/metrics``.  The queue is thread-safe; ``close()``
starts the shutdown drain: producers are refused, the consumer keeps
draining until :meth:`get_batch` returns an empty batch with ``closed``
set.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import List, Optional, Sequence, Tuple

from .. import faults
from ..graph.edge import StreamEdge
from ..stats import COUNTER, GAUGE, Table, snapshot

#: Accepted backpressure policies (see module docstring).
BACKPRESSURE_POLICIES = ("block", "drop_oldest")


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
    """

    #: What :meth:`counters` reports (see :mod:`repro.stats`).
    STATS: Table = {
        "capacity": (GAUGE, "Queue capacity (entries)."),
        "depth": (GAUGE, "Entries queued now."),
        "high_water": (GAUGE, "Most entries ever queued at once."),
        "enqueued": (COUNTER, "Entries admitted to the queue."),
        "dequeued": (COUNTER, "Entries taken off the queue."),
        "dropped": (COUNTER, "Oldest entries evicted (drop_oldest)."),
        "rejected_closed": (COUNTER, "Arrivals refused once closed."),
        "lag_seconds": (GAUGE, "Age of the oldest queued entry."),
    }

    def __init__(self, capacity: int, *, policy: str = "block") -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ValueError(f"queue capacity must be a positive int, "
                             f"got {capacity!r}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy: {policy!r} "
                f"(expected one of {BACKPRESSURE_POLICIES})")
        self.capacity = capacity
        self.policy = policy
        self._entries: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.rejected_closed = 0
        self.high_water = 0

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
                if len(entries) >= capacity:
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
            while not self._entries:
                if self._closed:
                    return [], True
                if not self._not_empty.wait(timeout):
                    return [], self._closed and not self._entries
            batch: List[_Entry] = []
            while self._entries and len(batch) < max_batch:
                batch.append(self._entries.popleft())
            self.dequeued += len(batch)
            self._not_full.notify_all()
            return batch, False

    def wake(self) -> None:
        """Wake the consumer if an entry is queued: for a producer that
        enqueued with ``wake=False`` and then could not consume the
        batch itself."""
        with self._lock:
            if self._entries:
                self._not_empty.notify()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until an entry is queued or the queue closes, at most
        ``timeout`` seconds; returns whether an entry is queued.  A
        consumer that must dequeue and apply under a lock of its own
        waits here, then takes the batch with ``get_batch(n, timeout=0)``
        inside that lock."""
        with self._lock:
            if not (self._entries or self._closed):
                self._not_empty.wait(timeout)
            return bool(self._entries)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Entries currently queued."""
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict:
        """A snapshot of :attr:`STATS`."""
        with self._lock:
            return snapshot(
                self, self.STATS, depth=len(self._entries),
                lag_seconds=(
                    max(0.0, time.monotonic() - self._entries[0].enqueued_at)
                    if self._entries else 0.0))

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BoundedEdgeQueue(depth={self.depth()}, "
                f"capacity={self.capacity}, policy={self.policy})")
