"""Count-based sliding window: keep the most recent N edges.

The paper evaluates the time-based model (Definition 2), but count-based
windows are the other standard stream semantics and the whole engine is
window-policy-agnostic — expiry is driven by whatever ``push`` returns.
:class:`CountSlidingWindow` is interface-compatible with
:class:`~repro.graph.window.SlidingWindow` (``push``/``advance``/iteration)
and can be passed directly to :class:`~repro.core.engine.TimingMatcher`.

Note that ``advance`` never expires anything here: the passage of time
without arrivals cannot shrink a count-based window.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List

from .edge import StreamEdge

_INF = float("inf")


def _check_finite(timestamp: float) -> None:
    if not -_INF < timestamp < _INF:
        raise ValueError(
            f"stream timestamps must be finite, got {timestamp!r}")


class CountSlidingWindow:
    """FIFO of at most ``capacity`` most recent edges.

    Same expiry contract as :class:`~repro.graph.window.SlidingWindow`:
    ``push`` returns the edge it evicts (if any), and that returned list is
    the only way an eviction leaves the window.
    """

    __slots__ = ("capacity", "_edges", "_current_time")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be ≥ 1, got {capacity}")
        self.capacity = capacity
        self._edges: Deque[StreamEdge] = deque()
        self._current_time: float = float("-inf")

    @property
    def current_time(self) -> float:
        return self._current_time

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._edges)

    def __contains__(self, edge: StreamEdge) -> bool:
        return edge in self._edges      # by edge_id; a linear scan

    def push(self, edge: StreamEdge) -> List[StreamEdge]:
        """Insert one arrival; returns the edge it evicts (if any)."""
        _check_finite(edge.timestamp)
        if self._edges and edge.timestamp <= self._edges[-1].timestamp:
            raise ValueError(
                "stream timestamps must strictly increase: "
                f"{edge.timestamp} <= {self._edges[-1].timestamp}")
        if edge.timestamp < self._current_time:
            raise ValueError("time moves backwards")
        self._current_time = edge.timestamp
        expired: List[StreamEdge] = []
        if len(self._edges) == self.capacity:
            expired.append(self._edges.popleft())
        self._edges.append(edge)
        return expired

    def advance(self, timestamp: float) -> List[StreamEdge]:
        """Move time forward; count windows never expire on time alone."""
        if timestamp < self._current_time:
            raise ValueError(
                f"time moves backwards: {timestamp} < {self._current_time}")
        _check_finite(timestamp)
        self._current_time = timestamp
        return []

    def edges(self) -> List[StreamEdge]:
        return list(self._edges)

    def oldest(self) -> StreamEdge:
        return self._edges[0]

    def newest(self) -> StreamEdge:
        return self._edges[-1]
