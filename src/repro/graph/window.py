"""Time-based sliding window over a streaming graph.

The paper (Definition 2) uses a time-based sliding window ``W`` of fixed
duration ``|W|``: at current time ``t`` the window spans ``(t - |W|, t]``.
Edges whose timestamp falls out of this span have *expired*.

:class:`SlidingWindow` keeps the in-window edges in arrival (i.e. timestamp)
order and pops expired edges as time advances, returning them to whoever
drove the slide.  It is the substrate both the Timing engine and every
baseline build on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List

from .edge import StreamEdge


class SlidingWindow:
    """FIFO of in-window edges with timestamp-driven expiry.

    Parameters
    ----------
    duration:
        The window length ``|W|``.  At time ``t`` the window covers the
        half-open interval ``(t - duration, t]`` exactly as in the paper.

    Expiry contract
    ---------------
    ``push`` and ``advance`` *return* the edges they drop, oldest first,
    after the window has already forgotten them.  That list is the only
    way an expiry leaves the window: whoever drives the window delivers it
    (an engine to its own ``_expire`` hook, a session to the engines that
    ingested the edge).
    """

    __slots__ = ("duration", "_edges", "_current_time")

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ValueError(f"window duration must be positive, got {duration}")
        self.duration = duration
        self._edges: Deque[StreamEdge] = deque()
        self._current_time: float = float("-inf")

    @property
    def current_time(self) -> float:
        """Timestamp of the most recent arrival (``-inf`` before any)."""
        return self._current_time

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._edges)

    def __contains__(self, edge: StreamEdge) -> bool:
        # StreamEdge equality is by ``edge_id``; a linear scan, because
        # nothing on a hot path asks (duplicate probes go through the
        # engines' live-id registries and the shared bearer index).
        return edge in self._edges

    def advance(self, timestamp: float) -> List[StreamEdge]:
        """Move the window head to ``timestamp`` and pop expired edges.

        Returns the expired edges in chronological order.  Monotonicity is
        enforced: time can only move forward.
        """
        if timestamp < self._current_time:
            raise ValueError(
                f"time moves backwards: {timestamp} < {self._current_time}")
        self._current_time = timestamp
        cutoff = timestamp - self.duration
        expired: List[StreamEdge] = []
        while self._edges and self._edges[0].timestamp <= cutoff:
            expired.append(self._edges.popleft())
        return expired

    def push(self, edge: StreamEdge) -> List[StreamEdge]:
        """Insert a new arrival and return the edges it expires.

        The new edge's timestamp must be strictly greater than every edge
        already in the window (Definition 1: streaming timestamps strictly
        increase).
        """
        if self._edges and edge.timestamp <= self._edges[-1].timestamp:
            raise ValueError(
                "stream timestamps must strictly increase: "
                f"{edge.timestamp} <= {self._edges[-1].timestamp}")
        expired = self.advance(edge.timestamp)
        self._edges.append(edge)
        return expired

    def edges(self) -> List[StreamEdge]:
        """Snapshot list of the in-window edges, oldest first."""
        return list(self._edges)

    def oldest(self) -> StreamEdge:
        """The oldest in-window edge (raises ``IndexError`` when empty)."""
        return self._edges[0]

    def newest(self) -> StreamEdge:
        """The newest in-window edge (raises ``IndexError`` when empty)."""
        return self._edges[-1]
