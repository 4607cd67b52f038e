"""The sliding window over a streaming graph.

The paper (Definition 2) uses a time-based sliding window ``W`` of fixed
duration ``|W|``: at current time ``t`` the window spans ``(t - |W|, t]``.
Edges whose timestamp falls out of this span have *expired*.

:class:`WindowBuffer` is the one implementation of a window: the in-window
edges in arrival (i.e. timestamp) order, the clock, and — once an id
could collide — an ``edge_id → timestamp`` index of the live bearers.
It slides by time (a
:class:`SlidingWindow`) or by count (a
:class:`~repro.graph.count_window.CountSlidingWindow`), and returns the
edges a slide drops to whoever drove it.  A standalone engine owns one, and
a session's window group owns one
(:class:`~repro.graph.shared_window.SharedSlidingWindow`).
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, Dict, Hashable, Iterator, List, Optional

from .edge import StreamEdge

_INF = float("inf")
#: The longest window: a longer int has no float, so the slide's ``t -
#: duration`` would raise ``OverflowError`` at the first push.
_MAX_DURATION = sys.float_info.max


def check_time(timestamp: float, clock: float,
               newest: Optional[float] = None) -> None:
    """Raise the ``ValueError`` a stream at ``clock`` gives an arrival or
    an advance to ``timestamp``.

    ``newest`` is the latest timestamp an arrival must exceed (pass it for
    an arrival, not for an advance).  A ``NaN`` cutoff would never expire
    anything again, and an infinite one would refuse every later arrival.
    """
    if newest is not None and timestamp <= newest:
        raise ValueError(
            f"stream timestamps must strictly increase: "
            f"{timestamp} <= {newest}")
    if timestamp < clock:
        raise ValueError(f"time moves backwards: {timestamp} < {clock}")
    if not -_INF < timestamp < _INF:
        raise ValueError(
            f"stream timestamps must be finite, got {timestamp!r}")


def check_duration(duration) -> float:
    """``duration`` as a float, or the ``ValueError`` a window gives a
    length that is not positive and finite: ``NaN`` would expire nothing,
    a bool is not a length, and an int past the largest float has no
    float at all."""
    if isinstance(duration, bool) or not 0 < duration <= _MAX_DURATION:
        raise ValueError(
            f"window duration must be positive and finite, got {duration}")
    return float(duration)


class WindowBuffer:
    """FIFO of in-window edges, sliding by time or by count.

    Exactly one bound is set: ``duration`` (the window covers ``(t -
    duration, t]`` at time ``t``) or ``capacity`` (the most recent
    ``capacity`` edges; time alone never expires one).  Build one through
    :class:`SlidingWindow` or
    :class:`~repro.graph.count_window.CountSlidingWindow`.

    Expiry contract
    ---------------
    ``push`` and ``advance`` *return* the edges they drop, oldest first,
    after the window has already forgotten them.  That list is the only
    way an expiry leaves the window: whoever drives the window delivers it
    (an engine to its own ``_expire`` hook, a session to the engines that
    ingested the edge).

    :attr:`bearers` maps each live ``edge_id`` to its latest bearer's
    timestamp, so a duplicate probe is one dict lookup.  The buffer
    itself refuses no duplicate (that is its driver's policy): driven
    directly it admits coexisting same-id bearers, and the index keeps
    the latest one's timestamp, deleting it only when *that* bearer
    expires.

    The index is built only once a duplicate is possible.  A *stamped*
    edge's id (see :class:`~repro.graph.edge.StreamEdge`) names its own
    timestamp, and timestamps strictly increase (Definition 1), so while
    every buffered edge is stamped no stamped arrival past the clock can
    find a bearer, and the window keeps no index (``_bearers`` is
    ``None``).  The first explicit-id arrival, or the first read of
    :attr:`bearers`, :meth:`bearer_live_at` or :meth:`bearer_timestamp`,
    builds it from the buffer; from then on it is kept as each slide
    goes.  A caller that judges duplicates may skip its probe for a
    stamped arrival past the clock of a window whose ``_bearers`` is
    ``None``, and must read :attr:`bearers` otherwise.
    """

    __slots__ = ("duration", "capacity", "_edges", "_current_time",
                 "_bearers")

    def __init__(self, duration: Optional[float],
                 capacity: Optional[int]) -> None:
        self.duration = duration
        self.capacity = capacity
        self._edges: Deque[StreamEdge] = deque()
        self._current_time: float = float("-inf")
        #: The id index, or ``None`` while none has been needed.
        self._bearers: Optional[Dict[Hashable, float]] = None

    @property
    def current_time(self) -> float:
        """Timestamp of the latest push or advance (``-inf`` before any)."""
        return self._current_time

    @property
    def bearers(self) -> Dict[Hashable, float]:
        """``edge_id → timestamp`` of each id's latest live bearer, built
        from the buffer on the first read; read it, never write it."""
        bearers = self._bearers
        if bearers is None:
            bearers = self._index()
        return bearers

    def _index(self) -> Dict[Hashable, float]:
        # Oldest first, so each id keeps its latest bearer's timestamp.
        self._bearers = bearers = {
            edge.edge_id: edge.timestamp for edge in self._edges}
        return bearers

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._edges)

    def __contains__(self, edge: StreamEdge) -> bool:
        # StreamEdge equality is by ``edge_id``; a linear scan, because
        # nothing on a hot path asks (duplicate probes use ``bearers``).
        return edge in self._edges

    def edges(self) -> List[StreamEdge]:
        """Snapshot list of the in-window edges, oldest first."""
        return list(self._edges)

    def oldest(self) -> StreamEdge:
        """The oldest in-window edge (raises ``IndexError`` when empty)."""
        return self._edges[0]

    def newest(self) -> StreamEdge:
        """The newest in-window edge (raises ``IndexError`` when empty)."""
        return self._edges[-1]

    def push(self, edge: StreamEdge) -> List[StreamEdge]:
        """Insert a new arrival and return the edges it expires.

        The new edge's timestamp must be finite, strictly greater than
        every edge already in the window (Definition 1: streaming
        timestamps strictly increase) and not before the clock.

        Every arrival pays for this call, so the slide runs in its own
        frame; when nothing expires it returns a fresh empty list.
        """
        timestamp = edge.timestamp
        buffer = self._edges
        if not self._current_time < timestamp < _INF:
            # Past the clock implies past every buffered edge; at the
            # clock is fine after a bare advance.  The rest raises.
            check_time(timestamp, self._current_time,
                       buffer[-1].timestamp if buffer else None)
        self._current_time = timestamp
        expired = []
        if self.duration is not None:
            cutoff = timestamp - self.duration
            while buffer and buffer[0].timestamp <= cutoff:
                expired.append(buffer.popleft())
        elif len(buffer) >= self.capacity:     # room for the arrival
            expired.append(buffer.popleft())
        buffer.append(edge)
        bearers = self._bearers
        if bearers is not None:
            for old in expired:
                # Timestamp-paired: an older coexisting bearer's expiry
                # must not clobber the latest bearer's entry.
                if bearers.get(old.edge_id) == old.timestamp:
                    del bearers[old.edge_id]
            bearers[edge.edge_id] = timestamp     # latest bearer wins
        elif type(edge) is not StreamEdge:
            self._index()       # an explicit id: a duplicate is possible
        return expired

    def advance(self, timestamp: float) -> List[StreamEdge]:
        """Move the clock to ``timestamp`` without an arrival; returns the
        expired edges, oldest first.  Time only moves forward, and only to
        a finite time; a count window never drops an edge here."""
        if not self._current_time <= timestamp < _INF:
            check_time(timestamp, self._current_time)
        self._current_time = timestamp
        expired = []
        if self.duration is not None:
            buffer, bearers = self._edges, self._bearers
            cutoff = timestamp - self.duration
            while buffer and buffer[0].timestamp <= cutoff:
                old = buffer.popleft()
                expired.append(old)
                if bearers is not None \
                        and bearers.get(old.edge_id) == old.timestamp:
                    del bearers[old.edge_id]    # timestamp-paired, as above
        return expired

    def bearer_timestamp(self, edge_id: Hashable) -> Optional[float]:
        """Timestamp of the live edge carrying ``edge_id`` (``None`` if
        no live bearer)."""
        return self.bearers.get(edge_id)

    def bearer_live_at(self, edge_id: Hashable, timestamp: float) -> bool:
        """Whether an arrival at ``timestamp`` would find ``edge_id`` still
        in-window — i.e. be a duplicate.  Time-based windows account for
        the expiry the arrival itself would trigger; count-based windows
        only expire by capacity, so any stored bearer is live.
        """
        bearer = self.bearers.get(edge_id)
        if bearer is None:
            return False
        if self.duration is None:
            return True
        return bearer > timestamp - self.duration

    def __repr__(self) -> str:
        bound = (f"duration={self.duration}" if self.duration is not None
                 else f"capacity={self.capacity}")
        return f"{type(self).__name__}({bound}, {len(self)} edges)"


class SlidingWindow(WindowBuffer):
    """The time-based window of Definition 2.

    Parameters
    ----------
    duration:
        The window length ``|W|``.  At time ``t`` the window covers the
        half-open interval ``(t - duration, t]`` exactly as in the paper.
    """

    __slots__ = ()

    def __init__(self, duration: float) -> None:
        check_duration(duration)
        super().__init__(duration, None)
