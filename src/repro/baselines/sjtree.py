"""SJ-tree baseline (Choudhury et al., EDBT 2015) with posterior timing check.

The subgraph-join tree decomposes the query into single-edge leaves joined
left-deep; every node materialises the matches of its subquery.  New arrivals
enter at the leaves and propagate joins upward; root matches are isomorphic
matches of the whole query.  Two properties the paper contrasts against
Timing are reproduced faithfully:

* **no timing-based pruning** — the tree stores every structurally viable
  partial match, regardless of arrival order, and filters the timing
  constraints *posteriorly* on complete matches only ("we verify answers from
  SJ-tree posteriorly with the timing order constraints", §VII-C);
* **expiry by enumeration** — SJ-tree keeps no edge → partial-match index,
  so deleting an expired edge scans all stored partial matches ("in SJ-tree,
  all partial matches need to be enumerated to find the expired ones",
  §VII-C1).  This is the deliberate maintenance-cost disadvantage visible in
  Figs. 15/16.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.join import UnionSpec
from ..core.matches import Match, satisfies_timing
from ..core.query import EdgeId, QueryGraph
from ..graph.edge import StreamEdge
from ..isomorphism.base import StaticMatcher
from ..matcher import MatcherBase

#: Logical cells charged per stored tuple (key + length overhead), matching
#: the accounting of the independent store so space comparisons are fair.
SJ_ENTRY_OVERHEAD = 3


class SJTreeMatcher(MatcherBase):
    """Left-deep subgraph-join tree with posterior timing filtering."""

    name = "SJ-tree"

    def __init__(self, query: QueryGraph, window: float,
                 leaf_order: Optional[List[EdgeId]] = None, *,
                 duplicate_policy: str = "raise") -> None:
        self._init_streaming(query, window,
                             duplicate_policy=duplicate_policy)
        # Left-deep leaf order; connectivity-repaired input order unless the
        # caller provides a (e.g. selectivity-estimated) one.
        if leaf_order is None:
            leaf_order = StaticMatcher._connectivity_order(
                query, list(query.edge_ids()), None)
        if set(leaf_order) != set(query.edge_ids()):
            raise ValueError("leaf order must cover exactly the query edges")
        self.leaf_order = list(leaf_order)
        self.m = len(self.leaf_order)

        # Leaves: per query edge, every label-compatible edge in the window.
        self._leaves: List[List[StreamEdge]] = [[] for _ in range(self.m)]
        # Internal nodes: matches of the prefix subquery of length i+1
        # (flat tuples aligned to leaf_order[:i+1]).  partials[0] aliases
        # the first leaf conceptually but is materialised for uniformity.
        self._partials: List[List[Tuple[StreamEdge, ...]]] = [
            [] for _ in range(self.m)]
        # Structure-only join specs: prefix of length i joined with leaf i.
        self._specs: List[UnionSpec] = [None]  # type: ignore[list-item]
        for i in range(1, self.m):
            self._specs.append(UnionSpec(
                query, self.leaf_order[:i], (self.leaf_order[i],),
                enforce_timing=False))

    # ------------------------------------------------------------------ #
    # push/push_many/advance_time come from MatcherBase.
    # ------------------------------------------------------------------ #
    def _insert(self, edge: StreamEdge) -> List[Match]:
        return self.insert_edge(edge)

    def _expire(self, edge: StreamEdge) -> None:
        """Remove the expired edge by full enumeration (see module docs)."""
        self.stats.expired_edges += 1
        for level in range(self.m):
            self._leaves[level] = [e for e in self._leaves[level]
                                   if e != edge]
            self._partials[level] = [flat for flat in self._partials[level]
                                     if edge not in flat]

    def insert_edge(self, edge: StreamEdge) -> List[Match]:
        self.stats.edges_seen += 1
        new_complete: List[Tuple[StreamEdge, ...]] = []
        matched_any = False
        for level, eid in enumerate(self.leaf_order):
            if not self.query.edge_matches(eid, edge):
                continue
            matched_any = True
            self._leaves[level].append(edge)
            if level == 0:
                delta = [(edge,)]
                self._partials[0].append((edge,))
            else:
                spec = self._specs[level]
                delta = [prefix + (edge,)
                         for prefix in self._partials[level - 1]
                         if spec.check(prefix, (edge,))]
                self._partials[level].extend(delta)
            # Propagate upward through the remaining leaves.
            current = delta
            for upper in range(level + 1, self.m):
                if not current:
                    break
                spec = self._specs[upper]
                grown = [prefix + (leaf_edge,)
                         for prefix in current
                         for leaf_edge in self._leaves[upper]
                         if spec.check(prefix, (leaf_edge,))]
                self._partials[upper].extend(grown)
                current = grown
            if level + 1 <= self.m:
                # ``current`` holds the new root matches contributed by this
                # leaf entry (if the propagation reached the root).
                if current and len(current[0]) == self.m:
                    new_complete.extend(current)
        if matched_any:
            self.stats.edges_matched += 1
        # Posterior timing filter on complete matches only.
        out: List[Match] = []
        for flat in new_complete:
            assignment = dict(zip(self.leaf_order, flat))
            if satisfies_timing(self.query, assignment):
                out.append(Match(assignment))
        self.stats.matches_emitted += len(out)
        return out

    # ------------------------------------------------------------------ #
    def current_matches(self) -> List[Match]:
        out = []
        for flat in self._partials[self.m - 1]:
            assignment = dict(zip(self.leaf_order, flat))
            if satisfies_timing(self.query, assignment):
                out.append(Match(assignment))
        return out

    def stored_partial_count(self) -> int:
        return sum(len(level) for level in self._partials)

    def space_cells(self) -> int:
        """Logical cells: leaf entries and partial-match tuples, each with
        the same per-entry overhead the independent store charges, so space
        comparisons across engines use one accounting scheme."""
        cells = sum(1 + SJ_ENTRY_OVERHEAD
                    for level in self._leaves for _ in level)
        cells += sum(len(flat) + SJ_ENTRY_OVERHEAD
                     for level in self._partials for flat in level)
        return cells
