"""BoostISO-style matcher (Ren & Wang, 2015).

BoostISO accelerates any base algorithm by exploiting vertex relationships
(syntactic containment/equivalence) to prune and batch candidates.  Our
rendition layers a neighbour-label containment prune on top of the QuickSI
ordering: a candidate data vertex must offer, for every neighbouring query
label, at least as many distinctly-labelled neighbours as the query vertex
requires (documented simplification of the full four-relationship scheme —
it preserves the "strictly stronger pruning than QuickSI" property that the
streaming comparison exercises).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..core.query import ANY, EdgeId, QueryGraph, VertexId
from ..graph.edge import StreamEdge
from ..graph.snapshot import SnapshotGraph
from .quicksi import QuickSI


class BoostISO(QuickSI):
    """QuickSI ordering + neighbour-label containment pruning."""

    name = "BoostISO"

    def __init__(self) -> None:
        self._requirements_cache: Dict[int, Dict[VertexId, Counter]] = {}

    def _neighbor_requirements(self, query: QueryGraph) -> Dict[VertexId, Counter]:
        """Per query vertex: the labels of its distinct other neighbours,
        counted as :meth:`SnapshotGraph.neighbors` counts data ones."""
        key = id(query)
        cached = self._requirements_cache.get(key)
        if cached is not None:
            return cached
        nbrs: Dict[VertexId, set] = {v.vertex_id: set()
                                     for v in query.vertices()}
        for qedge in query.edges():
            if qedge.src != qedge.dst:
                nbrs[qedge.src].add(qedge.dst)
                nbrs[qedge.dst].add(qedge.src)
        req = {v: Counter(map(query.vertex_label, others))
               for v, others in nbrs.items()}
        self._requirements_cache = {key: req}  # single-query cache
        return req

    def prune(self, query: QueryGraph, snapshot: SnapshotGraph,
              eid: EdgeId, candidate: StreamEdge) -> bool:
        req = self._neighbor_requirements(query)
        qedge = query.edge(eid)
        for qv, dv in ((qedge.src, candidate.src), (qedge.dst, candidate.dst)):
            needed = req[qv]
            if not needed:
                continue
            offered: Counter = Counter()
            for nbr in snapshot.neighbors(dv):
                offered[snapshot.vertex_label(nbr)] += 1
            for label, count in needed.items():
                if label is ANY:
                    if sum(offered.values()) < count:
                        return False
                elif offered.get(label, 0) < count:
                    return False
        return True
