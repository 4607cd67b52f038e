"""Naive per-snapshot recomputation — the test suite's oracle.

"A naive solution … is to run a classical subgraph isomorphism algorithm on
each snapshot, … followed by a check of the timing order constraint"
(paper §III-A1).  This matcher does exactly that: it keeps the window's
snapshot graph, recomputes *all* time-constrained matches after every
arrival, and reports the ones containing the new edge.

It is deliberately simple and independent of the expansion-list machinery,
which is what makes it a trustworthy oracle for the property-based tests:
the Timing engine's incremental answers must equal this matcher's
from-scratch answers at every time point (streaming consistency,
Definition 11, for the single-threaded case).

It conforms to the :class:`repro.matcher.Matcher` protocol via
:class:`repro.matcher.MatcherBase` like every other engine.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.matches import Match
from ..core.query import QueryGraph
from ..graph.edge import StreamEdge
from ..graph.snapshot import SnapshotGraph
from ..isomorphism.base import StaticMatcher
from ..matcher import MatcherBase


class NaiveSnapshotMatcher(MatcherBase):
    """Recompute-from-scratch continuous matcher (oracle / worst baseline)."""

    name = "Naive"

    def __init__(self, query: QueryGraph, window: float,
                 algorithm: Optional[StaticMatcher] = None, *,
                 duplicate_policy: str = "raise") -> None:
        self._init_streaming(query, window,
                             duplicate_policy=duplicate_policy)
        self.snapshot = SnapshotGraph()
        self.algorithm = algorithm if algorithm is not None else StaticMatcher()

    def _insert(self, edge: StreamEdge) -> List[Match]:
        self.stats.edges_seen += 1
        # Same semantics as every other engine: counted when the arrival
        # label-matches some query edge, not when it completes a match.
        if self.query.matching_edge_ids(edge):
            self.stats.edges_matched += 1
        self.snapshot.add_edge(edge)
        new = [match for match in self.current_matches()
               if match.uses_edge(edge)]
        self.stats.matches_emitted += len(new)
        return new

    def _expire(self, edge: StreamEdge) -> None:
        self.stats.expired_edges += 1
        self.snapshot.remove_edge(edge)

    def current_matches(self) -> List[Match]:
        """Every time-constrained match in the current snapshot."""
        return [Match(assignment) for assignment in
                self.algorithm.find(self.query, self.snapshot,
                                    enforce_timing=True)]

    def space_cells(self) -> int:
        """Snapshot adjacency only — nothing else is materialised."""
        return self.snapshot.logical_space_cells()
