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
    The shared template implementation: window coercion (a number
    becomes a time-based :class:`~repro.graph.window.SlidingWindow`; a
    ``SlidingWindow``, a ``CountSlidingWindow`` or a session member's
    ``SharedWindowView`` passes through), the in-window duplicate-id guard
    on the window's bearer index with a configurable policy (``raise`` /
    ``skip`` / ``count``), shared :class:`EngineStats`, and the
    expire-then-insert ``push`` skeleton.
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
from .graph.shared_window import SHAREABLE_WINDOW_TYPES, SharedWindowView
from .graph.window import SlidingWindow, check_duration

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


def as_window(window):
    """Coerce a window spec into a window object.

    A number is a time-based window duration (the paper's model, Definition
    2).  A :class:`~repro.graph.window.SlidingWindow`, a
    :class:`~repro.graph.count_window.CountSlidingWindow` (exact types: a
    subclass could expire differently) or a session's read-only
    ``SharedWindowView`` passes through unchanged.
    """
    if type(window) in SHAREABLE_WINDOW_TYPES \
            or isinstance(window, SharedWindowView):
        return window
    if isinstance(window, (int, float)) and not isinstance(window, bool):
        return SlidingWindow(check_duration(window))
    raise TypeError(
        "window must be a duration or a window policy object "
        f"(SlidingWindow or CountSlidingWindow), got {window!r}")


class EngineStats:
    """Counters every matcher exposes (cost-model experiments and tests).

    ``edges_skipped`` counts arrivals dropped by the ``count``
    duplicate-id policy (see :meth:`MatcherBase.push`).  ``index_probes``
    and ``scan_fallbacks`` split the Timing engine's join operations by
    strategy: hash-index bucket probes vs full expansion-list scans (only
    the join shapes with no equality constraint fall back to a scan).
    ``subplan_reuses``
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

        Duplicates are judged on the window's bearer index.  Edge identity
        must be unique in the window: StreamEdge equality is by
        ``edge_id``, and the expiry registries key on it — a second
        in-window arrival with the same id would alias and corrupt
        deletion.  A stamped arrival past the clock of a window that
        holds no index (every buffered edge stamped) cannot share an
        id, so it is not probed; any other arrival builds the index.
        """
        window = self.window
        bearers = window._bearers
        if bearers is None and (type(edge) is not StreamEdge
                                or not window._current_time
                                < edge.timestamp):
            bearers = window.bearers
        if bearers is not None and edge.edge_id in bearers:
            # The id has a bearer: judge it against the window as this
            # arrival leaves it.  Any other arrival needs no judgement,
            # and ``window.push`` below slides for it.
            if self.would_reject(edge):     # side-effect-free peek
                raise ValueError(
                    f"duplicate in-window edge id: {edge.edge_id!r}")
            self.advance_time(edge.timestamp)
            if edge.edge_id in bearers:
                # Only the skip/count policies reach here (raise peeked).
                if self.duplicate_policy == "count":
                    self.stats.edges_skipped += 1
                return []
        for old in window.push(edge):
            self._expire(old)
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
            self._expire(old)

    def would_reject(self, edge: StreamEdge) -> bool:
        """Whether pushing ``edge`` directly would raise as a duplicate
        (side-effect-free, one probe of the window's bearer index)."""
        return self.duplicate_policy == "raise" and \
            self.window.bearer_live_at(edge.edge_id, edge.timestamp)

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

    def exclusive_space_cells(self) -> int:
        """The cells no other engine shares (see the Timing engine's)."""
        return self.space_cells()


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
        if self.duplicate_policy not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy: {self.duplicate_policy!r} "
                f"(expected one of {DUPLICATE_POLICIES})")
        return self
