"""Stream edge: the atomic unit of a streaming graph.

A streaming graph (paper, Definition 1) is a constantly growing sequence of
directed, labelled edges, each arriving at a strictly increasing timestamp.
:class:`StreamEdge` is an immutable record of one such arrival.

Vertices are identified by arbitrary hashable ids and carry a label.  Edge
labels are optional (the paper's formalisation is vertex-labelled, with edge
labels reducible to imaginary mid-edge vertices; we support them natively for
convenience — the CAIDA-style workload uses them heavily).
"""

from __future__ import annotations

from typing import Hashable, Optional


class StreamEdge:
    """One directed, labelled edge occurrence in a streaming graph.

    Parameters
    ----------
    src, dst:
        Hashable vertex identifiers (e.g. IP addresses, user ids).
    src_label, dst_label:
        Vertex labels used by the structural matching.
    timestamp:
        Arrival time.  Within one :class:`~repro.graph.stream.GraphStream`
        timestamps are strictly increasing, which is what makes the paper's
        timing-order pruning sound.
    label:
        Optional edge label (``None`` matches only unlabelled query edges; the
        wildcard logic lives on the query side, see
        :meth:`repro.core.query.QueryEdge.matches_labels`).
    edge_id:
        Optional explicit identifier.  Defaults to ``(src, dst, timestamp)``
        which is unique within a stream because timestamps are unique.

    An edge built with ``edge_id=None`` is *stamped*: its id names its
    own timestamp, so it can share no id with an earlier arrival that is
    stamped too, and a window of stamped edges needs no id index (see
    :class:`~repro.graph.window.WindowBuffer`).  An explicit id may
    collide; such an edge is an instance of a private slot-less
    subclass, so ``type(edge) is StreamEdge`` is the O(1) stamp test and
    costs no memory.  Equality, hashing and ``repr`` ignore the
    difference.
    """

    __slots__ = ("src", "dst", "src_label", "dst_label", "timestamp", "label",
                 "edge_id", "_hash")

    def __init__(
        self,
        src: Hashable,
        dst: Hashable,
        *,
        src_label: Hashable,
        dst_label: Hashable,
        timestamp: float,
        label: Optional[Hashable] = None,
        edge_id: Optional[Hashable] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.src_label = src_label
        self.dst_label = dst_label
        self.timestamp = timestamp
        self.label = label
        if edge_id is None:
            edge_id = (src, dst, timestamp)
        elif type(self) is StreamEdge:
            self.__class__ = _NamedEdge
        self.edge_id = edge_id
        self._hash = hash(edge_id)

    # StreamEdge identity is its edge_id: two objects describing the same
    # arrival compare equal, which lets matches be compared structurally.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamEdge):
            return NotImplemented
        return self.edge_id == other.edge_id

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        lbl = f", label={self.label!r}" if self.label is not None else ""
        return (f"StreamEdge({self.src!r}:{self.src_label!r} -> "
                f"{self.dst!r}:{self.dst_label!r} @ {self.timestamp}{lbl})")

    @property
    def endpoints(self) -> tuple:
        """``(src, dst)`` vertex-id pair."""
        return (self.src, self.dst)

    def touches(self, vertex: Hashable) -> bool:
        """Whether ``vertex`` is an endpoint of this edge."""
        return vertex == self.src or vertex == self.dst


class _NamedEdge(StreamEdge):
    """A :class:`StreamEdge` whose id was given, not stamped: the tag an
    id index looks for (same slots, so the same size)."""

    __slots__ = ()
