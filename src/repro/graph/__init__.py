"""Streaming-graph substrate: edges, streams, windows, snapshots."""

from .count_window import CountSlidingWindow
from .edge import StreamEdge
from .shared_window import SharedSlidingWindow, SharedWindowView
from .snapshot import SnapshotGraph
from .stream import GraphStream
from .window import SlidingWindow

__all__ = [
    "StreamEdge", "GraphStream", "SlidingWindow", "CountSlidingWindow",
    "SharedSlidingWindow", "SharedWindowView", "SnapshotGraph",
]
