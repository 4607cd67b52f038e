"""Count-based sliding window: keep the most recent N edges.

The paper evaluates the time-based model (Definition 2), but count-based
windows are the other standard stream semantics and the whole engine is
window-policy-agnostic — expiry is driven by whatever ``push`` returns.
:class:`CountSlidingWindow` is the same
:class:`~repro.graph.window.WindowBuffer` as
:class:`~repro.graph.window.SlidingWindow`, bounded by a count, and can be
passed directly to :class:`~repro.core.engine.TimingMatcher`.

Note that ``advance`` never expires anything here: the passage of time
without arrivals cannot shrink a count-based window.
"""

from __future__ import annotations

from .window import WindowBuffer


class CountSlidingWindow(WindowBuffer):
    """FIFO of at most ``capacity`` most recent edges.

    ``push`` returns the edge it evicts (if any), and that returned list is
    the only way an eviction leaves the window.  ``capacity`` must be a
    positive integer; a whole float (``3.0``) is taken as its integer.
    """

    __slots__ = ()

    def __init__(self, capacity: int) -> None:
        # Anything else never evicts (2.5, inf, nan) or fails at the first
        # push ("3"); a bool is not a count.
        if type(capacity) not in (int, float) or not capacity >= 1 \
                or capacity % 1:
            raise ValueError(f"count window capacity must be a positive "
                             f"integer, got {capacity!r}")
        super().__init__(None, int(capacity))
