"""Match objects and time-constrained-match verification (Definition 4).

A (partial) match assigns a distinct data edge to each query edge of some
subquery.  The induced vertex mapping must be injective (the paper requires a
bijection between query vertices and match vertices), endpoint/edge labels
must be compatible, and matched timestamps must respect the timing order.

The engine internally stores partial matches in *sequential form* (tuples
aligned to a timing sequence — see :mod:`repro.core.expansion`); this module
provides the user-facing :class:`Match` and the independent verifier the test
suite uses as its oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from ..graph.edge import StreamEdge
from .query import EdgeId, QueryGraph, VertexId


def build_vertex_mapping(
    query: QueryGraph, edge_map: Mapping[EdgeId, StreamEdge],
) -> Optional[Dict[VertexId, Hashable]]:
    """Derive the query-vertex → data-vertex mapping, or ``None`` if invalid.

    Invalid means: two query edges disagree on a shared query vertex, or two
    distinct query vertices would map to the same data vertex (injectivity).
    """
    mapping: Dict[VertexId, Hashable] = {}
    for eid, data_edge in edge_map.items():
        qedge = query.edge(eid)
        for qv, dv in ((qedge.src, data_edge.src), (qedge.dst, data_edge.dst)):
            bound = mapping.get(qv)
            if bound is None:
                mapping[qv] = dv
            elif bound != dv:
                return None
    # Injectivity: no two query vertices share a data vertex.
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def satisfies_timing(
    query: QueryGraph, edge_map: Mapping[EdgeId, StreamEdge],
) -> bool:
    """Whether matched timestamps respect every applicable ``≺`` constraint."""
    for eid, data_edge in edge_map.items():
        for succ in query.timing.successors(eid):
            other = edge_map.get(succ)
            if other is not None and not data_edge.timestamp < other.timestamp:
                return False
    return True


def edges_distinct(edge_map: Mapping[EdgeId, StreamEdge]) -> bool:
    """Whether all matched data edges are pairwise distinct."""
    seen = set()
    for data_edge in edge_map.values():
        if data_edge in seen:
            return False
        seen.add(data_edge)
    return True


def verify_match(
    query: QueryGraph,
    edge_map: Mapping[EdgeId, StreamEdge],
    *,
    require_complete: bool = True,
) -> bool:
    """Full semantic check of Definition 4 — the test suite's oracle.

    Validates label compatibility per edge, injective vertex mapping, edge
    distinctness and timing constraints.  With ``require_complete=False``,
    partial matches (subquery matches) are accepted.
    """
    if require_complete and set(edge_map) != set(query.edge_ids()):
        return False
    if not set(edge_map) <= set(query.edge_ids()):
        return False
    for eid, data_edge in edge_map.items():
        if not query.edge_matches(eid, data_edge):
            return False
    if not edges_distinct(edge_map):
        return False
    if build_vertex_mapping(query, edge_map) is None:
        return False
    return satisfies_timing(query, edge_map)


class Match:
    """An immutable query-edge → data-edge assignment.

    Equality and hashing are structural (on the assignment), so result sets
    can be compared across engines — the comparative benchmarks rely on this
    to assert every baseline reports the *same* matches as Timing.
    """

    __slots__ = ("edge_map", "_key")

    def __init__(self, edge_map: Mapping[EdgeId, StreamEdge]) -> None:
        self.edge_map: Dict[EdgeId, StreamEdge] = dict(edge_map)
        # Built by the first ``==`` / ``hash``: most matches are delivered
        # to a sink and never compared.
        self._key: Optional[frozenset] = None

    def _identity(self) -> frozenset:
        key = self._key
        if key is None:
            key = self._key = frozenset(
                (eid, edge.edge_id) for eid, edge in self.edge_map.items())
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __len__(self) -> int:
        return len(self.edge_map)

    def __getitem__(self, edge_id: EdgeId) -> StreamEdge:
        return self.edge_map[edge_id]

    def __contains__(self, edge_id: EdgeId) -> bool:
        return edge_id in self.edge_map

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{eid!r}→{edge.src!r}->{edge.dst!r}@{edge.timestamp}"
            for eid, edge in sorted(self.edge_map.items(), key=lambda kv: repr(kv[0])))
        return f"Match({parts})"

    @property
    def data_edges(self) -> Tuple[StreamEdge, ...]:
        return tuple(self.edge_map.values())

    def earliest_timestamp(self) -> float:
        return min(e.timestamp for e in self.edge_map.values())

    def latest_timestamp(self) -> float:
        return max(e.timestamp for e in self.edge_map.values())

    def uses_edge(self, edge: StreamEdge) -> bool:
        return any(e == edge for e in self.edge_map.values())

    def vertex_mapping(self, query: QueryGraph) -> Dict[VertexId, Hashable]:
        """The induced vertex mapping (raises if inconsistent)."""
        mapping = build_vertex_mapping(query, self.edge_map)
        if mapping is None:
            raise ValueError("match has no consistent injective vertex mapping")
        return mapping

    def project(self, edge_ids: Iterable[EdgeId]) -> "Match":
        """Restriction of the match to a subset of query edges."""
        return Match({eid: self.edge_map[eid] for eid in edge_ids})

    def merged_with(self, other: "Match") -> "Match":
        """Union of two assignments (overlaps must agree)."""
        merged = dict(self.edge_map)
        for eid, edge in other.edge_map.items():
            if eid in merged and merged[eid] != edge:
                raise ValueError(f"conflicting assignment for {eid!r}")
            merged[eid] = edge
        return Match(merged)
