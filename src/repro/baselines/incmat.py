"""IncMat baseline: incremental matching by anchored re-search (Fan et al.).

"Incremental graph pattern matching" maintains no partial results; on every
update it re-runs a static subgraph-isomorphism algorithm over the *affected
area* — the subgraph within query-diameter hops of the updated edge — and
post-filters the timing constraints.  The paper instantiates it with three
state-of-the-art static algorithms (QuickSI, TurboISO, BoostISO); any
:class:`~repro.isomorphism.base.StaticMatcher` plugs in here.

Two implementation notes (both documented deviations-without-consequence):

* The anchored backtracking search starts at the new edge and follows a
  connected matching order, so it *provably never leaves* the affected area
  — materialising the d-hop subgraph first (as the original formulation
  does) would only add work.  ``affected_area()`` is still provided and
  tested, and used to report the affected-area sizes the paper discusses.
* Complete matches are kept in a registry indexed by data edge so expiry is
  a lookup; IncMat's cost profile in the paper comes from re-searching and
  from keeping the whole window's adjacency, both of which are preserved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.matches import Match
from ..core.query import QueryGraph
from ..graph.edge import StreamEdge
from ..graph.snapshot import SnapshotGraph
from ..isomorphism.base import StaticMatcher
from ..isomorphism.quicksi import QuickSI
from ..matcher import MatcherBase


class IncMatMatcher(MatcherBase):
    """Affected-area re-search matcher parameterised by a static algorithm."""

    def __init__(self, query: QueryGraph, window: float,
                 algorithm: Optional[StaticMatcher] = None, *,
                 duplicate_policy: str = "raise") -> None:
        self._init_streaming(query, window,
                             duplicate_policy=duplicate_policy)
        self.snapshot = SnapshotGraph()
        self.algorithm = algorithm if algorithm is not None else QuickSI()
        self.name = f"IncMat-{self.algorithm.name}"
        self._diameter = query.diameter()
        self._results: Set[Match] = set()
        self._by_edge: Dict[StreamEdge, Set[Match]] = {}

    # ------------------------------------------------------------------ #
    # push/push_many/advance_time come from MatcherBase.
    # ------------------------------------------------------------------ #
    def _insert(self, edge: StreamEdge) -> List[Match]:
        self.stats.edges_seen += 1
        self.snapshot.add_edge(edge)
        new_matches: List[Match] = []
        matched_any = False
        for eid in self.query.matching_edge_ids(edge):
            matched_any = True
            for assignment in self.algorithm.find(
                    self.query, self.snapshot, anchor=(eid, edge),
                    enforce_timing=True):
                match = Match(assignment)
                if match not in self._results:
                    self._results.add(match)
                    for used in match.data_edges:
                        self._by_edge.setdefault(used, set()).add(match)
                    new_matches.append(match)
        if matched_any:
            self.stats.edges_matched += 1
        self.stats.matches_emitted += len(new_matches)
        return new_matches

    def _expire(self, edge: StreamEdge) -> None:
        self.stats.expired_edges += 1
        self.snapshot.remove_edge(edge)
        dead = self._by_edge.pop(edge, None)
        if not dead:
            return
        for match in dead:
            self._results.discard(match)
            for used in match.data_edges:
                if used != edge:
                    bucket = self._by_edge.get(used)
                    if bucket is not None:
                        bucket.discard(match)
                        if not bucket:
                            self._by_edge.pop(used, None)

    # ------------------------------------------------------------------ #
    def affected_area(self, edge: StreamEdge) -> Set:
        """Vertices within query-diameter hops of the edge's endpoints —
        the region Fan et al. re-search (exposed for tests/analysis)."""
        return self.snapshot.vertices_within_hops(
            {edge.src, edge.dst}, self._diameter)

    def current_matches(self) -> List[Match]:
        return list(self._results)

    def result_count(self) -> int:
        return len(self._results)

    def space_cells(self) -> int:
        """Window adjacency (the dominating term the paper charges IncMat
        for) plus the maintained result set."""
        result_cells = sum(len(m) for m in self._results)
        return self.snapshot.logical_space_cells() + result_cells
