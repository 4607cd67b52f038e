"""One window buffer of the live stream, shared by many matchers.

In a multi-query :class:`~repro.api.Session` every registered matcher sees
the *same* arrivals: fanning each edge out to per-matcher
:class:`~repro.graph.window.SlidingWindow` copies costs ``O(Q·|W|)`` window
memory and ``Q`` identical expiry cascades per arrival.  This module
de-duplicates that: a :class:`SharedSlidingWindow` owns the single deque of
in-window edges (plus an id → timestamp index for O(1) duplicate probes),
``push``/``advance`` return the edges the slide dropped for the session to
deliver, and each matcher keeps only a read-only :class:`SharedWindowView`
onto the shared buffer — cutting window memory to ``O(|W|)`` and running
one expiry scan per advance regardless of how many queries are registered.

The shared window wraps either time-based window policy
(:class:`~repro.graph.window.SlidingWindow`) or count-based policy
(:class:`~repro.graph.count_window.CountSlidingWindow`); matchers with the
same policy parameters (same duration, or same capacity) are *compatible*
and share one buffer.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Tuple

from .count_window import CountSlidingWindow
from .edge import StreamEdge
from .window import SlidingWindow

#: Window-policy classes a shared window can wrap.  Exact types only —
#: a subclass may change expiry semantics, which would silently break
#: every matcher on the buffer.
SHAREABLE_WINDOW_TYPES = (SlidingWindow, CountSlidingWindow)


def window_policy_key(window) -> Optional[Tuple[str, float]]:
    """Compatibility key of a window policy, or ``None`` if unshareable.

    Two matchers may share one buffer exactly when their policies expire
    identically on the same stream: same-duration time windows, or
    same-capacity count windows.
    """
    if type(window) is SlidingWindow:
        return ("time", window.duration)
    if type(window) is CountSlidingWindow:
        return ("count", window.capacity)
    return None


def window_policy_from_key(key: Tuple[str, float]):
    """A fresh, empty policy object for a :func:`window_policy_key`."""
    kind, param = key
    return SlidingWindow(param) if kind == "time" \
        else CountSlidingWindow(int(param))


class SharedSlidingWindow:
    """The single buffer of live edges behind a multi-query session.

    Wraps a fresh window-policy object (time- or count-based) and maintains
    an ``edge_id → timestamp`` index over the live edges, pruned from the
    list of dropped edges the policy returns.  Duplicate-id *policy* is the
    session's business: :meth:`repro.ingest.Admission.admit` probes this
    index and drops an in-window duplicate for the whole group before it
    is buffered — a query registered mid-stream *inherits* the stream's
    duplicate view rather than ingesting a re-used id whose original
    bearer it never saw.  The buffer itself refuses nothing: driven
    directly it admits coexisting same-id bearers, and the index then
    keeps the latest bearer's timestamp, deleting it only when *that*
    bearer expires.
    """

    __slots__ = ("_policy", "_id_times")

    def __init__(self, policy) -> None:
        if type(policy) not in SHAREABLE_WINDOW_TYPES:
            raise TypeError(
                f"not a shareable window policy: {policy!r} "
                f"(expected one of {[t.__name__ for t in SHAREABLE_WINDOW_TYPES]})")
        if len(policy) != 0:
            raise ValueError("a shared window must start from an empty policy")
        self._policy = policy
        self._id_times: dict = {}

    # ------------------------------------------------------------------ #
    # Policy passthrough
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        """Wrapped time policy's window length (``AttributeError`` for
        count policies)."""
        return self._policy.duration

    @property
    def capacity(self) -> int:
        """Wrapped count policy's capacity (``AttributeError`` for time
        policies)."""
        return self._policy.capacity

    @property
    def current_time(self) -> float:
        """The wrapped policy's clock (latest push/advance timestamp)."""
        return self._policy.current_time

    def __len__(self) -> int:
        return len(self._policy)

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._policy)

    def __contains__(self, edge) -> bool:
        return edge in self._policy

    def edges(self) -> List[StreamEdge]:
        """The in-window edges, oldest first."""
        return self._policy.edges()

    def oldest(self) -> StreamEdge:
        """The earliest in-window edge (``IndexError`` when empty)."""
        return self._policy.oldest()

    def newest(self) -> StreamEdge:
        """The latest in-window edge (``IndexError`` when empty)."""
        return self._policy.newest()

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def _dropped(self, expired: List[StreamEdge]) -> List[StreamEdge]:
        # Timestamp-paired deletion: an older coexisting bearer's expiry
        # must not clobber the latest bearer's index entry.
        id_times = self._id_times
        for edge in expired:
            if id_times.get(edge.edge_id) == edge.timestamp:
                del id_times[edge.edge_id]
        return expired

    def advance(self, timestamp: float) -> List[StreamEdge]:
        """Slide time forward; returns the expired edges, oldest first."""
        return self._dropped(self._policy.advance(timestamp))

    def push(self, edge: StreamEdge) -> List[StreamEdge]:
        """Buffer one arrival; returns what it expires, oldest first."""
        expired = self._dropped(self._policy.push(edge))
        self._id_times[edge.edge_id] = edge.timestamp   # latest bearer wins
        return expired

    # ------------------------------------------------------------------ #
    # Duplicate probes
    # ------------------------------------------------------------------ #
    def bearer_timestamp(self, edge_id: Hashable) -> Optional[float]:
        """Timestamp of the live edge carrying ``edge_id`` (``None`` if
        no live bearer)."""
        return self._id_times.get(edge_id)

    def bearer_live_at(self, edge_id: Hashable, timestamp: float) -> bool:
        """Whether an arrival at ``timestamp`` would find ``edge_id`` still
        in-window — i.e. be a duplicate.  Time-based windows account for
        the expiry the arrival itself would trigger; count-based windows
        only expire by capacity, so any stored bearer is live.
        """
        bearer = self._id_times.get(edge_id)
        if bearer is None:
            return False
        duration = getattr(self._policy, "duration", None)
        if duration is None:
            return True
        return bearer > timestamp - duration

    def __repr__(self) -> str:
        kind = "time" if type(self._policy) is SlidingWindow else "count"
        return f"SharedSlidingWindow({kind}, {len(self)} edges)"


class SharedWindowView:
    """A matcher's read-only view of a :class:`SharedSlidingWindow`.

    Exposes the read surface of a window policy (length, iteration,
    membership, ``duration``/``capacity``/``current_time``, ``edges`` /
    ``oldest`` / ``newest``) backed by the shared buffer, so code that
    inspects ``matcher.window`` keeps working.  Mutation is refused: a
    :class:`~repro.api.Session` owns the buffer, and a direct
    ``matcher.push`` would desynchronise every other matcher on it.
    """

    __slots__ = ("_shared", "since")

    def __init__(self, shared: SharedSlidingWindow) -> None:
        self._shared = shared
        #: The buffer's clock when this view was attached.  Buffered
        #: edges at or before it arrived before the view's matcher joined
        #: and were never offered to it — a reader re-deriving "what did
        #: my matcher ingest" from the buffer must skip them.
        self.since = shared.current_time

    @property
    def shared(self) -> SharedSlidingWindow:
        """The underlying session-owned shared window."""
        return self._shared

    @property
    def duration(self) -> float:
        """Shared time window's length (``AttributeError`` for count)."""
        return self._shared.duration

    @property
    def capacity(self) -> int:
        """Shared count window's capacity (``AttributeError`` for time)."""
        return self._shared.capacity

    @property
    def current_time(self) -> float:
        """The shared buffer's clock."""
        return self._shared.current_time

    def __len__(self) -> int:
        return len(self._shared)

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._shared)

    def __contains__(self, edge) -> bool:
        return edge in self._shared

    def edges(self) -> List[StreamEdge]:
        """The in-window edges of the shared buffer, oldest first."""
        return self._shared.edges()

    def oldest(self) -> StreamEdge:
        """The earliest edge in the shared buffer."""
        return self._shared.oldest()

    def newest(self) -> StreamEdge:
        """The latest edge in the shared buffer."""
        return self._shared.newest()

    def push(self, edge: StreamEdge):
        """Refused: only the owning session may mutate the buffer."""
        raise RuntimeError(
            "this matcher's window is a shared-session buffer; stream "
            "through Session.push/push_many, not the matcher directly")

    def advance(self, timestamp: float):
        """Refused: only the owning session may advance the buffer."""
        raise RuntimeError(
            "this matcher's window is a shared-session buffer; advance "
            "time through Session.advance_time")

    def __repr__(self) -> str:
        return f"SharedWindowView({self._shared!r})"
