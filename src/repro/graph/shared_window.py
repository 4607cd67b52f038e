"""One window buffer of the live stream, shared by many matchers.

In a multi-query :class:`~repro.api.Session` every registered matcher sees
the *same* arrivals: fanning each edge out to per-matcher
:class:`~repro.graph.window.SlidingWindow` copies costs ``O(Q·|W|)`` window
memory and ``Q`` identical expiry cascades per arrival.  This module
de-duplicates that: a :class:`SharedSlidingWindow` — the same
:class:`~repro.graph.window.WindowBuffer` a standalone engine slides, with
its id → timestamp index for O(1) duplicate probes, built once an
explicit id makes a duplicate possible — is the one buffer of
a window group.  ``push``/``advance`` return the edges the slide dropped
for the session to deliver, and each matcher keeps only a read-only
:class:`SharedWindowView` onto the shared buffer — cutting window memory
to ``O(|W|)`` and running one expiry scan per advance regardless of how
many queries are registered.

A shared window takes the bound of an empty time-based
(:class:`~repro.graph.window.SlidingWindow`) or count-based
(:class:`~repro.graph.count_window.CountSlidingWindow`) policy; matchers
with the same policy parameters (same duration, or same capacity) are
*compatible* and share one buffer.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Tuple

from .count_window import CountSlidingWindow
from .edge import StreamEdge
from .window import SlidingWindow, WindowBuffer

#: Window-policy classes a shared window takes its bound from, and the
#: windows a standalone engine accepts.  Exact types only — a subclass
#: may change expiry semantics, which would silently break every matcher
#: on the buffer.
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
    """A fresh, empty policy object for a :func:`window_policy_key`
    (``ValueError`` for an unknown kind or a bound the policy refuses)."""
    kind, param = key
    if kind == "time":
        return SlidingWindow(param)
    if kind == "count":
        return CountSlidingWindow(param)
    raise ValueError(f"unknown window policy kind: {kind!r}")


class SharedSlidingWindow(WindowBuffer):
    """The single buffer of live edges behind a multi-query session.

    Built from a fresh, empty built-in policy (time- or count-based),
    whose bound it adopts; everything else — the slide, the clock, the
    :attr:`~repro.graph.window.WindowBuffer.bearers` index and when it is
    built — is the :class:`~repro.graph.window.WindowBuffer` every window
    is.  Duplicate-id *policy* is the session's business:
    :meth:`repro.ingest.Admission.admit` probes the bearer index (none
    for a stamped arrival while the buffer holds no index: the stream
    clock has already refused any arrival that is not past it) and drops
    an in-window duplicate for the whole group before it is buffered — a
    query registered mid-stream *inherits* the stream's duplicate view
    rather than ingesting a re-used id whose original bearer it never saw.
    """

    __slots__ = ()

    def __init__(self, policy) -> None:
        if type(policy) not in SHAREABLE_WINDOW_TYPES:
            raise TypeError(
                f"not a shareable window policy: {policy!r} "
                f"(expected one of {[t.__name__ for t in SHAREABLE_WINDOW_TYPES]})")
        if len(policy) != 0:
            raise ValueError("a shared window must start from an empty policy")
        super().__init__(policy.duration, policy.capacity)


class SharedWindowView:
    """A matcher's read-only view of a :class:`SharedSlidingWindow`.

    Exposes the read surface of a window policy (length, iteration,
    membership, ``duration``/``capacity``/``current_time``, ``edges`` /
    ``oldest`` / ``newest``, the bearer index) backed by the shared
    buffer, so code that inspects ``matcher.window`` keeps working.
    Mutation is refused: a :class:`~repro.api.Session` owns the buffer,
    and a direct ``matcher.push`` would desynchronise every other matcher
    on it.
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

    @property
    def bearers(self) -> dict:
        """The shared buffer's ``edge_id → timestamp`` index (built on
        this read if the buffer holds none yet)."""
        return self._shared.bearers

    # The two slots ``MatcherBase.push`` peeks to skip its probe.
    @property
    def _bearers(self) -> Optional[dict]:
        return self._shared._bearers

    @property
    def _current_time(self) -> float:
        return self._shared._current_time

    def bearer_live_at(self, edge_id: Hashable, timestamp: float) -> bool:
        """The shared buffer's duplicate verdict for ``edge_id``."""
        return self._shared.bearer_live_at(edge_id, timestamp)

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
