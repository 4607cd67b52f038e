"""The engine-level protocol: ``Matcher``, ``MatcherBase``, ``EngineConfig``.

Every continuous matcher in this repo — the paper's Timing engine and the
three baselines (SJ-tree, IncMat, naive recomputation) — speaks the same
streaming interface.  This module makes that interface *formal* and hoists
the behaviour they all share out of the individual classes.  It sits below
the engines (it imports only :mod:`repro.graph`), so
:mod:`repro.core.engine` and :mod:`repro.baselines` build on it and
:mod:`repro.api` — which re-exports every name here — builds on them:

``Matcher``
    A :func:`typing.runtime_checkable` protocol naming the streaming surface
    (``push`` / ``push_many`` / ``advance_time`` / ``current_matches`` /
    ``result_count`` / ``space_cells`` / ``stats``).  Anything conforming can
    be registered with a :class:`~repro.api.Session`, benchmarked by
    :mod:`repro.bench`, and cross-validated against the oracle.

``MatcherBase``
    The shared template implementation: window-policy coercion (a number
    becomes a time-based :class:`~repro.graph.window.SlidingWindow`, any
    push/advance object passes through), the in-window duplicate-id guard
    with a configurable policy (``raise`` / ``skip`` / ``count``), shared
    :class:`EngineStats`, and the expire-then-insert ``push`` skeleton.
    Concrete matchers implement the ``_insert`` / ``_expire`` hooks.

``EngineConfig``
    One dataclass holding every Timing-engine knob (storage, decomposition
    strategy, join-order strategy, RNG seed, duplicate policy) and the
    session-level mode knobs; ``TimingMatcher.from_config`` takes one plus
    per-call field overrides.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Protocol, runtime_checkable,
)

from .graph.edge import StreamEdge
from .graph.shared_window import SharedWindowView
from .graph.window import SlidingWindow

if TYPE_CHECKING:   # pragma: no cover - annotations only
    from .core.matches import Match
    from .core.query import QueryGraph

#: Accepted in-window duplicate-``edge_id`` policies (see
#: :meth:`MatcherBase.push`).
DUPLICATE_POLICIES = ("raise", "skip", "count")

#: Storage layouts for the Timing engine (``Timing`` vs ``Timing-IND``).
STORAGE_KINDS = ("mstree", "independent")

#: Decomposition strategies (Algorithm 6 vs the ``Timing-RD`` ablation).
DECOMPOSITION_STRATEGIES = ("greedy", "random")

#: Join-order strategies (§VI-C heuristic vs the ``Timing-RJ`` ablation).
JOIN_ORDER_STRATEGIES = ("jn", "random")

#: Insert-path join strategies: ``"hash"`` probes join-key indexes
#: (O(candidates) per arrival, see :mod:`repro.core.index`); ``"scan"`` is
#: the paper-faithful full scan of the previous expansion-list item
#: (Theorem 3's ``O(|Lᵢ₋₁|)``), kept for the ablation.
INDEXING_MODES = ("hash", "scan")

#: Session sub-plan sharing strategies: ``"shared"`` (default) keeps one
#: refcounted expansion-list store per *canonical* TC-subquery (see
#: :func:`repro.core.decomposition.subplan_signature`) per shared window
#: group, maintained exactly once per arrival however many registered
#: queries contain that sub-plan; ``"private"`` gives every engine its own
#: stores — the historical behaviour, kept as the ablation baseline.  Both
#: produce identical ``(name, match)`` streams.
SUBPLAN_SHARING_MODES = ("shared", "private")

#: Session sharding strategies: ``"none"`` (default) runs every registered
#: matcher in the calling process; ``"thread"`` / ``"process"`` partition
#: the matchers across ``EngineConfig.shards`` worker shards (stable hash
#: of the query name, rebalanced on register/deregister), each holding its
#: own shared window and sub-plan registry, with batches fanned out
#: through the routing index so a shard only receives arrivals its
#: matchers can consume.  All modes produce identical ``(name, match)``
#: streams — see :class:`repro.concurrency.sharding.ShardedSession`.
SHARDING_MODES = ("none", "thread", "process")

#: Shard batch transports for ``sharding="process"`` sessions:
#: ``"shm"`` (default) frames struct-packed edge batches into
#: preallocated shared-memory rings — one SPSC data ring and one result
#: ring per shard — so the facade never pickles on the hot path (the
#: duplex pipe stays for control RPCs and oversized fallbacks);
#: ``"pipe"`` is the historical pickle-over-pipe batch path, kept as
#: the ablation baseline.  ``"thread"`` shards pass objects by
#: reference and ignore the knob.  Both transports produce identical
#: ``(name, match)`` streams — see :mod:`repro.concurrency.transport`.
TRANSPORT_MODES = ("shm", "pipe")


def as_window(window):
    """Coerce a window spec into a window-policy object.

    A number is a time-based window duration (the paper's model, Definition
    2); any object with the ``push``/``advance`` interface — e.g.
    :class:`~repro.graph.count_window.CountSlidingWindow` — or a session's
    read-only ``SharedWindowView`` passes through unchanged.
    """
    if isinstance(window, SharedWindowView):
        return window
    if isinstance(window, bool):
        raise TypeError("window must be a duration or a window policy object")
    if isinstance(window, (int, float)):
        return SlidingWindow(float(window))
    if hasattr(window, "push") and hasattr(window, "advance"):
        return window
    raise TypeError(
        "window must be a duration or a window policy object, "
        f"got {window!r}")


class EngineStats:
    """Counters every matcher exposes (cost-model experiments and tests).

    ``edges_skipped`` counts arrivals dropped by the ``count``
    duplicate-id policy (see :meth:`MatcherBase.push`).  ``index_probes``
    and ``scan_fallbacks`` split the Timing engine's join operations by
    strategy: hash-index bucket probes vs full expansion-list scans (all
    joins are scans under ``"scan"``; under ``"hash"`` only the
    shapes with no equality constraint fall back).  ``subplan_reuses``
    counts expansion-list insertions this engine served from a shared
    sub-plan store's delta memo instead of recomputing (the joins another
    consumer of the same :class:`~repro.subplans.SharedSubplanStore`
    already paid for).
    """

    __slots__ = ("edges_seen", "edges_matched", "edges_discarded",
                 "join_operations", "partial_matches_created",
                 "matches_emitted", "expired_edges", "expired_partials",
                 "edges_skipped", "index_probes", "scan_fallbacks",
                 "subplan_reuses")

    def __init__(self) -> None:
        self.edges_seen = self.edges_matched = self.edges_discarded = \
            self.join_operations = self.partial_matches_created = \
            self.matches_emitted = self.expired_edges = \
            self.expired_partials = self.edges_skipped = \
            self.index_probes = self.scan_fallbacks = self.subplan_reuses = 0

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain ``name -> value`` dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EngineStats({inner})"


@runtime_checkable
class Matcher(Protocol):
    """The streaming interface shared by every engine in this repo.

    ``push`` processes one arrival (expiry first, then insertion) and
    returns the matches completed by it; ``advance_time`` slides the window
    without an arrival.  ``current_matches`` is the full answer set
    ``Ω(Q)`` over the current window; ``result_count`` its cardinality;
    ``space_cells`` the logical partial-match storage footprint used by the
    space experiments.  ``stats`` is a shared :class:`EngineStats`.
    """

    stats: EngineStats

    def push(self, edge: StreamEdge) -> List[Match]:
        """Process one arrival; returns the matches it completed."""
        ...

    def push_many(self, edges: Iterable[StreamEdge]) -> List[Match]:
        """Process a batch of arrivals; returns all new matches."""
        ...

    def advance_time(self, timestamp: float) -> None:
        """Slide the window forward without an arrival."""
        ...

    def current_matches(self) -> List[Match]:
        """The full answer set over the current window."""
        ...

    def result_count(self) -> int:
        """Cardinality of :meth:`current_matches`."""
        ...

    def space_cells(self) -> int:
        """Logical partial-match storage footprint."""
        ...


class MatcherBase:
    """Shared streaming skeleton for continuous matchers.

    Subclasses call :meth:`_init_streaming` from their ``__init__`` and
    implement the two hooks:

    * ``_insert(edge)`` — handle one in-window arrival, return the newly
      completed matches;
    * ``_expire(edge)`` — drop all state referencing an expired edge.

    The base provides ``push`` (duplicate guard → expiry → insertion),
    ``push_many``, ``advance_time``, and a ``result_count`` that defaults to
    ``len(current_matches())``.  The streaming surface is serial; the
    paper's S/X access guards (:mod:`repro.core.guard`) are passed where
    they synchronise something — straight to the Timing engine's
    ``insert_edge`` / ``delete_edge``.
    """

    #: Display name used by the benchmark harness and ``Session``.
    name = "matcher"

    #: ``True`` for a matcher that retains no edges — its answers are a
    #: function of the window alone (the Timing engine's one-edge plan).
    #: A :class:`~repro.api.Session` then never delivers it an expiry.
    stateless = False

    def _init_streaming(self, query: QueryGraph, window, *,
                        duplicate_policy: str = "raise") -> None:
        query.validate()
        self.query = query
        self.window = as_window(window)
        if duplicate_policy not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy: {duplicate_policy!r} "
                f"(expected one of {DUPLICATE_POLICIES})")
        self.duplicate_policy = duplicate_policy
        self.stats = EngineStats()
        # Edge-identity guard of :meth:`push`: StreamEdge equality is by
        # edge_id, and the expiry registries key on it — a second in-window
        # arrival with the same id would alias and corrupt deletion.  Maps
        # each live (pushed, unexpired) edge id to its bearer's timestamp
        # so the duplicate peek in :meth:`would_reject` is one dict probe.
        # A session member is fed through the hooks and leaves it empty:
        # the shared buffer judges duplicates there.
        self._live_edge_ids: Dict = {}

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _insert(self, edge: StreamEdge) -> List[Match]:
        raise NotImplementedError

    def _expire(self, edge: StreamEdge) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The shared streaming surface
    # ------------------------------------------------------------------ #
    def push(self, edge: StreamEdge) -> List[Match]:
        """Process one arrival: expire, then insert; returns new matches.

        An arrival whose ``edge_id`` collides with an edge still in the
        window is handled per the matcher's duplicate policy:

        * ``"raise"`` (default) — ``ValueError``, side-effect-free: a
          rejected push touches no window state, so the caller may
          recover and continue the stream;
        * ``"skip"`` — drop the arrival silently;
        * ``"count"`` — drop it and count it in ``stats.edges_skipped``.

        The duplicate check runs against the window as the arrival's own
        timestamp would leave it: an id whose previous bearer is past a
        time-based window is not a duplicate.  (Count-based windows
        expire only by capacity at insertion, so there a still-stored
        bearer is a genuine duplicate.)  A *dropped* duplicate still
        advances time.
        """
        live = self._live_edge_ids
        if edge.edge_id in live:
            # The id has a bearer: judge it against the window as this
            # arrival leaves it.  Any other arrival needs no judgement,
            # and ``window.push`` below slides for it.
            if self.would_reject(edge):     # side-effect-free peek
                raise ValueError(
                    f"duplicate in-window edge id: {edge.edge_id!r}")
            self.advance_time(edge.timestamp)
            if edge.edge_id in live:
                # Only the skip/count policies reach here (raise peeked).
                if self.duplicate_policy == "count":
                    self.stats.edges_skipped += 1
                return []
        for old in self.window.push(edge):
            live.pop(old.edge_id, None)
            self._expire(old)
        live[edge.edge_id] = edge.timestamp
        return self._insert(edge)

    def push_many(self, edges: Iterable[StreamEdge]) -> List[Match]:
        """Process a batch of arrivals; returns all new matches in order."""
        matches: List[Match] = []
        for edge in edges:
            matches.extend(self.push(edge))
        return matches

    def advance_time(self, timestamp: float) -> None:
        """Slide the window forward without inserting an edge."""
        for old in self.window.advance(timestamp):
            self._live_edge_ids.pop(old.edge_id, None)
            self._expire(old)

    def would_reject(self, edge: StreamEdge) -> bool:
        """Whether pushing ``edge`` *directly* would raise as a duplicate.

        Side-effect-free and O(1): the live-id registry maps each
        ingested in-window id to its bearer's timestamp, so the peek is
        one dict probe plus the expiry the arrival itself would trigger —
        matchers with a non-``raise`` policy skip even that.

        The answer reflects this matcher's own ingestion history.  A
        :class:`~repro.api.Session` consults it for each privately
        buffering matcher (a factory's engine, a custom window policy) for
        the all-or-nothing guarantee (protocol matchers outside
        :class:`MatcherBase` can implement it to join that guarantee); a
        window-group member is judged on its group's shared stream buffer
        instead, which also covers bearers that were never routed to this
        matcher — so there ``Session.push`` may reject an arrival this
        method alone would accept.
        """
        if self.duplicate_policy != "raise":
            return False
        bearer = self._live_edge_ids.get(edge.edge_id)
        if bearer is None:
            return False
        duration = getattr(self.window, "duration", None)
        if duration is None:
            return True     # count windows never expire on time alone
        return bearer > edge.timestamp - duration

    def routing_signatures(self):
        """``(exact_keys, predicates, has_generic)`` — the label-triple
        signature a :class:`~repro.api.Session` compiles into its routing
        index at registration (see
        :meth:`repro.core.query.QueryGraph.label_signatures`).  Exact
        keys land in the dict index, predicate atom triples
        (``ANY``/``Prefix`` labels) in the session's
        :class:`~repro.core.labeltrie.PredicateRouter`, and an arrival
        that hits neither can reach this matcher only when
        ``has_generic``."""
        return self.query.label_signatures()

    def is_discardable(self, edge: StreamEdge) -> bool:
        """Label-level discardability (the trivial case of the paper's
        Lemma 1): ``True`` when the arrival matches no query edge, so
        ingesting it could never contribute to a match.  Engines may
        override with stronger state-dependent probes — the Timing
        engine's prerequisite test does.  ``Session`` routing skips
        exactly the matchers for which this label-level test holds.
        """
        return not self.query.matching_edge_ids(edge)

    def current_matches(self) -> List[Match]:
        """The full answer set over the current window (subclass hook)."""
        raise NotImplementedError

    def result_count(self) -> int:
        """Number of current matches (selectivity metric, Fig. 25)."""
        return len(self.current_matches())

    def space_cells(self) -> int:
        """Logical partial-match storage footprint (subclass hook)."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Every Timing-engine knob in one declarative object.

    Pass it to :meth:`TimingMatcher.from_config
    <repro.core.engine.TimingMatcher.from_config>` or a
    :class:`~repro.api.Session`.

    Parameters
    ----------
    storage:
        ``"mstree"`` (the paper's ``Timing``) or ``"independent"`` flat
        tuples (``Timing-IND``).
    decomposition:
        ``"greedy"`` (Algorithm 6) or ``"random"`` (``Timing-RD``).
    join_order:
        ``"jn"`` (joint-number heuristic, §VI-C) or ``"random"``
        (``Timing-RJ``).
    indexing:
        ``"hash"`` (default) maintains join-key indexes over the expansion
        lists so the insert hot path touches only O(candidates) stored
        entries; ``"scan"`` is the paper-faithful full scan per arrival
        (Theorem 3), kept as the ablation baseline.  Both produce
        identical matches and identical logical space.
    subplan_sharing:
        Cross-query sub-plan sharing for sessions: ``"shared"``
        (default) lets Timing engines registered on the same
        window group adopt one refcounted expansion-list store per
        canonical TC-subquery, so an overlapping pattern library pays for
        each distinct sub-plan once instead of once per query;
        ``"private"`` keeps per-engine stores (the ablation baseline).
        Standalone engines ignore it.
        Both modes produce identical matches — see
        :data:`SUBPLAN_SHARING_MODES` and
        :class:`~repro.subplans.SharedSubplanStore`.
    sharding:
        Session-level matcher partitioning (engines ignore it):
        ``"none"`` (default) keeps every registered matcher in the
        calling process; ``"thread"`` / ``"process"`` shard them across
        ``shards`` worker loops so heavy query sets parallelise over one
        ingested stream — see
        :class:`~repro.concurrency.sharding.ShardedSession`.  All modes
        produce identical matches.
    shards:
        Worker-shard count used when ``sharding`` is not ``"none"``
        (ignored otherwise).
    transport:
        Batch transport for ``sharding="process"`` sessions: ``"shm"``
        (default) ships struct-packed edge batches through per-shard
        shared-memory rings with zero hot-path pickling; ``"pipe"`` is
        the pickle-over-pipe ablation baseline.  Ignored by ``"none"``
        and ``"thread"`` sessions; identical matches either way — see
        :data:`TRANSPORT_MODES`.
    seed:
        RNG seed for the ``random`` strategies (deterministic by default so
        engine construction is reproducible).
    duplicate_policy:
        In-window duplicate-``edge_id`` handling: ``"raise"``, ``"skip"``
        or ``"count"`` (see :meth:`MatcherBase.push`).
    """

    storage: str = "mstree"
    decomposition: str = "greedy"
    join_order: str = "jn"
    indexing: str = "hash"
    subplan_sharing: str = "shared"
    sharding: str = "none"
    shards: int = 4
    transport: str = "shm"
    seed: int = 0
    duplicate_policy: str = "raise"

    def replace(self, **changes) -> "EngineConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> "EngineConfig":
        """Raise ``ValueError`` on any unknown or inconsistent knob;
        returns ``self`` so it chains."""
        if self.storage not in STORAGE_KINDS:
            raise ValueError(f"unknown storage kind: {self.storage!r} "
                             f"(expected one of {STORAGE_KINDS})")
        if self.decomposition not in DECOMPOSITION_STRATEGIES:
            raise ValueError(
                f"unknown decomposition strategy: {self.decomposition!r} "
                f"(expected one of {DECOMPOSITION_STRATEGIES})")
        if self.join_order not in JOIN_ORDER_STRATEGIES:
            raise ValueError(
                f"unknown join order strategy: {self.join_order!r} "
                f"(expected one of {JOIN_ORDER_STRATEGIES})")
        if self.indexing not in INDEXING_MODES:
            raise ValueError(
                f"unknown indexing mode: {self.indexing!r} "
                f"(expected one of {INDEXING_MODES})")
        if self.subplan_sharing not in SUBPLAN_SHARING_MODES:
            raise ValueError(
                f"unknown subplan sharing mode: {self.subplan_sharing!r} "
                f"(expected one of {SUBPLAN_SHARING_MODES})")
        if self.sharding not in SHARDING_MODES:
            raise ValueError(
                f"unknown sharding mode: {self.sharding!r} "
                f"(expected one of {SHARDING_MODES})")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) \
                or self.shards < 1:
            raise ValueError(f"shards must be a positive int, "
                             f"got {self.shards!r}")
        if self.transport not in TRANSPORT_MODES:
            raise ValueError(
                f"unknown shard transport: {self.transport!r} "
                f"(expected one of {TRANSPORT_MODES})")
        if self.duplicate_policy not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy: {self.duplicate_policy!r} "
                f"(expected one of {DUPLICATE_POLICIES})")
        return self
