"""Query planning introspection: ``explain()`` for continuous queries.

Production streaming engines expose their plans; this module renders what
the Timing engine decided for a query — the TC decomposition (Algorithm 6),
the prefix-connected join order with joint numbers (§VI-C), the expansion-
list layout, and the Theorem-7 cost estimate — without running any data.

Example::

    from repro.core.plan import explain
    print(explain(query).render())
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .decomposition import (
    Decomposition, expected_join_operations, greedy_decomposition,
    random_decomposition, validate_decomposition,
)
from .join_order import jn_join_order, joint_number, random_join_order
from .query import EdgeId, QueryGraph
from .tc import tc_subqueries


class QueryPlan:
    """The planning outcome for one query (immutable snapshot)."""

    def __init__(self, query: QueryGraph, decomposition: Decomposition,
                 join_order: Decomposition,
                 tcsub_count: int) -> None:
        self.query = query
        self.decomposition = decomposition
        self.join_order = join_order
        self.tcsub_count = tcsub_count
        self.k = len(decomposition)
        self.expected_joins_per_edge = expected_join_operations(query, self.k)

    # ------------------------------------------------------------------ #
    @property
    def is_tc_query(self) -> bool:
        return self.k == 1

    @property
    def stateless(self) -> bool:
        """Whether the engine runs this query on its stateless plan (one
        query edge: no expansion list is kept — see
        :mod:`repro.core.engine`)."""
        return self.query.is_single_edge

    def expansion_list_items(self) -> List[str]:
        """Human-readable item layout: one entry per lockable item (none
        for a stateless plan)."""
        items: List[str] = []
        if self.stateless:
            return items
        for si, seq in enumerate(self.join_order):
            for level in range(1, len(seq) + 1):
                prefix = ", ".join(map(str, seq[:level]))
                items.append(f"L{si + 1}^{level} = Ω({{{prefix}}})")
        if self.k > 1:
            running: List[EdgeId] = list(self.join_order[0])
            for level in range(2, self.k + 1):
                running.extend(self.join_order[level - 1])
                items.append(f"L0^{level} = Ω(Q1 ∪ … ∪ Q{level})")
        return items

    def joint_numbers(self) -> List[Tuple[int, int]]:
        """(prefix index, JN against next subquery) along the join order."""
        result = []
        prefix: List[EdgeId] = list(self.join_order[0])
        for index, part in enumerate(self.join_order[1:], start=2):
            result.append((index, joint_number(self.query, prefix, part)))
            prefix.extend(part)
        return result

    def render(self) -> str:
        """Multi-line textual plan."""
        q = self.query
        # What recognising one arrival costs: a dict probe per mask, a
        # ``labels_compatible`` call per residual check on the entries a
        # probe finds, every arrival judged by the edges that key nothing.
        masks, keyed, residual, all_keyed = q.label_index_shape()
        lines = [
            "Continuous query plan",
            "=====================",
            f"query: {q.num_vertices} vertices, {q.num_edges} edges, "
            f"{len(q.timing.direct_constraints())} timing constraints "
            f"({self.tcsub_count} TC-subqueries discovered)",
            f"class: {'TC-query' if self.is_tc_query else 'non-TC query'}",
            "plan kind: " + (
                "stateless (one query edge: matches are emitted on arrival "
                "and no expansion list is kept)" if self.stateless
                else "stored (expansion lists below)"),
            f"label index: {masks} mask{'s' * (masks != 1)} · "
            f"{keyed} of {q.num_edges} edges keyed · "
            f"{residual} residual check{'s' * (residual != 1)} · "
            f"all-keyed: {'yes' if all_keyed else 'no'}",
            f"decomposition (k={self.k}): " + "  ".join(
                "{" + ",".join(map(str, seq)) + "}"
                for seq in self.decomposition),
            "join order: " + " ⋈ ".join(
                "{" + ",".join(map(str, seq)) + "}"
                for seq in self.join_order),
        ]
        for level, jn in self.joint_numbers():
            lines.append(f"  JN(prefix, Q{level}) = {jn}")
        lines.append(
            "expected joins per arrival (Theorem 7): "
            f"{self.expected_joins_per_edge:.3f}")
        items = self.expansion_list_items()
        lines.append("expansion-list items:" if items
                     else "expansion-list items: none")
        for item in items:
            lines.append(f"  {item}")
        return "\n".join(lines)


def choose_plan(query: QueryGraph, decomposition_strategy: str,
                join_order_strategy: str, rng: random.Random, *,
                decomposition: Optional[Decomposition] = None,
                subs: Optional[list] = None
                ) -> Tuple[Decomposition, Decomposition]:
    """The TC decomposition and its join order, chosen the one way the
    engine and :func:`explain` both use: ``decomposition_strategy``
    (``greedy`` | ``random``, skipped when ``decomposition`` is given),
    then ``join_order_strategy`` (``jn`` | ``random``), the random ones
    drawing from ``rng`` in that order.  ``subs`` is the query's
    TC-subqueries when the caller already found them."""
    if decomposition is None:
        if subs is None:
            subs = tc_subqueries(query)
        if decomposition_strategy == "greedy":
            decomposition = greedy_decomposition(query, subs)
        elif decomposition_strategy == "random":
            decomposition = random_decomposition(query, rng, subs)
        else:
            raise ValueError(
                f"unknown decomposition strategy: {decomposition_strategy!r}")
    validate_decomposition(query, decomposition)
    if join_order_strategy == "jn":
        order = jn_join_order(query, decomposition)
    elif join_order_strategy == "random":
        order = random_join_order(query, decomposition, rng)
    else:
        raise ValueError(
            f"unknown join order strategy: {join_order_strategy!r}")
    return decomposition, order


def explain(query: QueryGraph, *, decomposition_strategy: str = "greedy",
            join_order_strategy: str = "jn",
            rng: Optional[random.Random] = None) -> QueryPlan:
    """Plan a query exactly as :class:`TimingMatcher` would, without data
    (see :func:`choose_plan`)."""
    query.validate()
    subs = tc_subqueries(query)
    decomposition, order = choose_plan(
        query, decomposition_strategy, join_order_strategy,
        rng if rng is not None else random.Random(0), subs=subs)
    return QueryPlan(query, decomposition, order, len(subs))
