"""The unified public API: ``Matcher`` protocol, ``EngineConfig``, ``Session``.

Every continuous matcher in this repo — the paper's Timing engine and the
three baselines (SJ-tree, IncMat, naive recomputation) — speaks the same
streaming interface.  This module makes that interface *formal* and hoists
the behaviour they all share out of the individual classes:

``Matcher``
    A :func:`typing.runtime_checkable` protocol naming the streaming surface
    (``push`` / ``push_many`` / ``advance_time`` / ``current_matches`` /
    ``result_count`` / ``space_cells`` / ``stats``).  Anything conforming can
    be registered with a :class:`Session`, benchmarked by
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
    strategy, join-order strategy, default access guard, RNG seed,
    duplicate policy); ``TimingMatcher.from_config`` takes one plus
    per-call field overrides.

``Session``
    The facade a deployment talks to: register named queries (from
    :class:`~repro.core.query.QueryGraph` objects, DSL text, or ``.tq``
    files), fan arrivals out to all of them in lock-step, attach match
    sinks (callbacks, collectors, JSONL writers — :mod:`repro.sinks`),
    ingest batches from any edge iterable or a CSV trace, and
    checkpoint/restore the whole thing via :mod:`repro.persistence`.

Quickstart::

    from repro import Session, ListSink

    session = Session(window=30.0)
    session.register("exfil", open("exfiltration.tq").read())
    alerts = session.add_sink(ListSink())
    session.push_many(edges)
    for name, match in alerts:
        ...
"""

from __future__ import annotations

import dataclasses
import threading
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Protocol,
    Tuple, Union, runtime_checkable,
)

from .graph.edge import StreamEdge
from .graph.shared_window import SharedWindowView
from .graph.window import SlidingWindow
from .ingest import ALWAYS_ROUTED, Admission, RouteIndex, group_key

if TYPE_CHECKING:  # imported lazily at runtime — repro.core imports us
    from .core.decomposition import SubplanSignature
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

#: Session multi-query ingestion strategies: ``"shared"`` (default) keeps
#: one shared window buffer per window policy and routes each arrival
#: through a label-triple index to only the matchers that can consume it;
#: ``"fanout"`` is the historical lock-step full fan-out (every matcher
#: buffers the whole stream), kept as the ablation baseline.  Both produce
#: identical ``(name, match)`` streams, with one documented refinement:
#: shared routing judges in-window duplicate ids against the stream (the
#: shared buffer), so a query registered mid-stream does not treat a
#: replayed id as fresh (see :class:`repro.ingest.Admission`).
ROUTING_MODES = ("shared", "fanout")

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

MatchCallback = Callable[[str, "Match"], None]


def _resolved_sharding(sharding, config) -> str:
    """The sharding mode a :class:`Session` construction will run under:
    the explicit keyword wins, then the config, then ``"none"`` — the
    same precedence :meth:`Session.__init__` applies, because
    :meth:`Session.__new__` uses this to decide whether to dispatch to
    the :class:`~repro.concurrency.sharding.ShardedSession` facade."""
    if sharding is not None:
        return sharding
    if config is not None:
        return getattr(config, "sharding", "none")
    return "none"


def _strip_config_guard(state: dict) -> dict:
    """Shared ``__getstate__`` rule: an :class:`EngineConfig` guard is
    runtime wiring (lock tables hold threading primitives) and is never
    checkpointed."""
    config = state.get("config")
    if config is not None and config.guard is not None:
        state["config"] = config.replace(guard=None)
    return state


def as_window(window):
    """Coerce a window spec into a window-policy object.

    A number is a time-based window duration (the paper's model, Definition
    2); any object with the ``push``/``advance`` interface — e.g.
    :class:`~repro.graph.count_window.CountSlidingWindow` — passes through
    unchanged.
    """
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
    consumer of the same :class:`SharedSubplanStore` already paid for).
    """

    __slots__ = ("edges_seen", "edges_matched", "edges_discarded",
                 "join_operations", "partial_matches_created",
                 "matches_emitted", "expired_edges", "expired_partials",
                 "edges_skipped", "index_probes", "scan_fallbacks",
                 "subplan_reuses")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

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

    * ``_insert(edge, guard)`` — handle one in-window arrival, return the
      newly completed matches;
    * ``_expire(edge, guard)`` — drop all state referencing an expired edge.

    The base provides ``push`` (duplicate guard → expiry → insertion),
    ``push_many``, ``advance_time``, and a ``result_count`` that defaults to
    ``len(current_matches())``.  ``guard`` threads the concurrency
    access-guard protocol (:mod:`repro.core.guard`) through to the hooks;
    matchers without locking simply ignore it.
    """

    #: Display name used by the benchmark harness and ``Session``.
    name = "matcher"

    #: ``True`` for a matcher that retains no edges — its answers are a
    #: function of the window alone (the Timing engine's one-edge plan).
    #: A :class:`Session` then keeps no live-edge entry for it and never
    #: delivers it an expiry.
    stateless = False

    def _init_streaming(self, query: QueryGraph, window, *,
                        duplicate_policy: str = "raise",
                        default_guard=None) -> None:
        query.validate()
        self.query = query
        self.window = as_window(window)
        if duplicate_policy not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy: {duplicate_policy!r} "
                f"(expected one of {DUPLICATE_POLICIES})")
        self.duplicate_policy = duplicate_policy
        self.default_guard = default_guard
        self.stats = EngineStats()
        # Edge-identity guard: StreamEdge equality is by edge_id, and the
        # expiry registries key on it — a second in-window arrival with the
        # same id would alias and corrupt deletion.  Maps each live
        # (ingested, unexpired) edge id to its bearer's timestamp so the
        # duplicate peek in :meth:`would_reject` is one dict probe.
        self._live_edge_ids: Dict = {}

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _insert(self, edge: StreamEdge, guard) -> List[Match]:
        raise NotImplementedError

    def _expire(self, edge: StreamEdge, guard) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The shared streaming surface
    # ------------------------------------------------------------------ #
    def push(self, edge: StreamEdge, guard=None) -> List[Match]:
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
        if self.would_reject(edge):     # side-effect-free peek
            raise ValueError(
                f"duplicate in-window edge id: {edge.edge_id!r}")
        guard = guard if guard is not None else self.default_guard
        for old in self.window.advance(edge.timestamp):
            self._live_edge_ids.pop(old.edge_id, None)
            self._expire(old, guard)
        if edge.edge_id in self._live_edge_ids:
            # Only the skip/count policies reach here (raise peeked above).
            if self.duplicate_policy == "count":
                self.stats.edges_skipped += 1
            return []
        for old in self.window.push(edge):
            self._live_edge_ids.pop(old.edge_id, None)
            self._expire(old, guard)
        self._live_edge_ids[edge.edge_id] = edge.timestamp
        return self._insert(edge, guard)

    def push_many(self, edges: Iterable[StreamEdge],
                  guard=None) -> List[Match]:
        """Process a batch of arrivals; returns all new matches in order."""
        matches: List[Match] = []
        for edge in edges:
            matches.extend(self.push(edge, guard))
        return matches

    def advance_time(self, timestamp: float, guard=None) -> None:
        """Slide the window forward without inserting an edge."""
        guard = guard if guard is not None else self.default_guard
        for old in self.window.advance(timestamp):
            self._live_edge_ids.pop(old.edge_id, None)
            self._expire(old, guard)

    def would_reject(self, edge: StreamEdge) -> bool:
        """Whether pushing ``edge`` *directly* would raise as a duplicate.

        Side-effect-free and O(1): the live-id registry maps each
        ingested in-window id to its bearer's timestamp, so the peek is
        one dict probe plus the expiry the arrival itself would trigger —
        matchers with a non-``raise`` policy skip even that.

        The answer reflects this matcher's own ingestion history.  A
        fanout :class:`Session` consults it per matcher for the
        all-or-nothing guarantee (protocol matchers outside
        :class:`MatcherBase` can implement it to join that guarantee); a
        shared-routing session instead probes its shared stream buffer,
        which also covers bearers that were never routed to this
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
        signature a :class:`Session` compiles into its routing index at
        registration (see
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

    def __getstate__(self):
        # Guards are runtime wiring (lock tables hold threading
        # primitives, trace guards hold open traces) — like a Session's
        # sinks, they are not checkpointed; re-attach after restore.
        state = dict(self.__dict__)
        state["default_guard"] = None
        return _strip_config_guard(state)


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Every Timing-engine knob in one declarative object.

    Pass it to :meth:`TimingMatcher.from_config
    <repro.core.engine.TimingMatcher.from_config>` or a :class:`Session`.

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
    routing:
        Multi-query ingestion strategy for a :class:`Session` built from
        this config (engines ignore it): ``"shared"`` (default) routes
        each arrival through a session-wide label-triple index to only
        the matchers that can consume it, with one shared window buffer
        per window policy; ``"fanout"`` is the historical full fan-out
        where every matcher re-buffers the whole stream, kept as the
        ablation baseline.  Both produce identical matches (duplicate
        ids are judged stream-level under ``"shared"`` — see
        :data:`ROUTING_MODES`).
    subplan_sharing:
        Cross-query sub-plan sharing for shared-routing sessions:
        ``"shared"`` (default) lets Timing engines registered on the same
        window group adopt one refcounted expansion-list store per
        canonical TC-subquery, so an overlapping pattern library pays for
        each distinct sub-plan once instead of once per query;
        ``"private"`` keeps per-engine stores (the ablation baseline).
        Standalone engines and ``routing="fanout"`` sessions ignore it.
        Both modes produce identical matches — see
        :data:`SUBPLAN_SHARING_MODES` and :class:`SharedSubplanStore`.
    sharding:
        Session-level matcher partitioning (engines ignore it):
        ``"none"`` (default) keeps every registered matcher in the
        calling process; ``"thread"`` / ``"process"`` shard them across
        ``shards`` worker loops so heavy query sets parallelise over one
        ingested stream — see
        :class:`~repro.concurrency.sharding.ShardedSession`.  Requires
        ``routing="shared"``; all modes produce identical matches.
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
    guard:
        Default access guard threaded through every operation when no
        per-call guard is given (``None`` → serial no-op guard).
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
    routing: str = "shared"
    subplan_sharing: str = "shared"
    sharding: str = "none"
    shards: int = 4
    transport: str = "shm"
    guard: Optional[object] = None
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
        if self.routing not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing mode: {self.routing!r} "
                f"(expected one of {ROUTING_MODES})")
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
        if self.sharding != "none" and self.routing != "shared":
            raise ValueError(
                "sharded sessions ride on the shared-routing index: "
                f"sharding={self.sharding!r} requires routing='shared', "
                f"got routing={self.routing!r}")
        if self.duplicate_policy not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy: {self.duplicate_policy!r} "
                f"(expected one of {DUPLICATE_POLICIES})")
        return self


# --------------------------------------------------------------------- #
# Shared sub-plan stores
# --------------------------------------------------------------------- #

class SharedSubplanStore:
    """One canonical TC-subquery's expansion-list store, session-shared.

    Two registered queries containing the same sub-plan — identical
    :func:`~repro.core.decomposition.subplan_signature`, same window group,
    same storage kind — maintain *identical* expansion lists, so a
    :class:`Session` hands both engines this one record instead of letting
    each keep a private copy.  The record owns the physical store (an
    :class:`~repro.core.mstree.MSTreeTCStore` or
    :class:`~repro.core.stores.IndependentTCStore`) and a per-arrival delta
    memo: the first consuming engine to process an arrival performs the
    insertion and remembers the per-position deltas; every later consumer
    replays them as an O(1) cache hit, so the store is written exactly once
    per arrival regardless of fan-in.  Expiry is exactly-once by
    idempotence (``delete_edge`` pops the edge registry on first delivery).

    ``consumers`` is the refcount maintained by
    :meth:`Session.register` / :meth:`Session.deregister`; the session
    frees the record when the last consumer leaves.  Join-key indexes are
    shared automatically: canonically equal sub-plans compile identical
    key refs, and index registration is idempotent per ``(level, refs)``.
    """

    __slots__ = ("key", "signature", "length", "storage", "store",
                 "consumers", "reuses", "_delta_key", "_deltas")

    def __init__(self, key: Tuple, signature: "SubplanSignature",
                 storage: str) -> None:
        self.key = key
        self.signature = signature
        self.length = len(signature)
        self.storage = storage
        if storage == "mstree":
            from .core.mstree import MSTreeTCStore
            self.store = MSTreeTCStore(self.length)
        else:
            from .core.stores import IndependentTCStore
            self.store = IndependentTCStore(self.length)
        #: Number of registered engines currently consuming this store.
        self.consumers = 0
        #: Per-position insertions served from the delta memo instead of
        #: being recomputed (the work sharing saves, in join units).
        self.reuses = 0
        self._delta_key: Optional[Tuple] = None
        self._deltas: Dict[int, list] = {}

    def lookup(self, edge: StreamEdge, position: int) -> Optional[list]:
        """The memoised delta of ``edge`` at 0-based ``position``, or
        ``None`` when this consumer is the arrival's first and must
        compute (and :meth:`remember`) it."""
        if self._delta_key != (edge.edge_id, edge.timestamp):
            return None
        delta = self._deltas.get(position)
        if delta is not None:
            self.reuses += 1
        return delta

    def remember(self, edge: StreamEdge, position: int,
                 delta: list) -> None:
        """Memoise a computed delta for the current arrival.  Stream
        timestamps strictly increase, so ``(edge_id, timestamp)`` uniquely
        names the arrival and a stale memo can never be mistaken for a
        later one."""
        key = (edge.edge_id, edge.timestamp)
        if self._delta_key != key:
            self._delta_key = key
            self._deltas = {}
        self._deltas[position] = delta

    def space_cells(self) -> int:
        """The shared store's physical partial-match cells."""
        return self.store.space_cells()

    def __getstate__(self):
        # The delta memo is in-flight work scoped to one arrival; it is
        # never checkpointed.
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_delta_key"] = None
        state["_deltas"] = {}
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedSubplanStore(length={self.length}, "
                f"storage={self.storage}, consumers={self.consumers})")


class _SubplanRegistry:
    """A session's refcounted cache of :class:`SharedSubplanStore` records.

    Keyed by ``(window-group key, storage kind, signature)``.  A bucket
    may briefly hold several records for one key: a record is *joinable*
    only while its store is empty (a fresh consumer starts from an empty
    window, so adopting a non-empty store would leak the past into it —
    exactly the mid-stream-registration semantics the routing layer pins);
    a consumer arriving while the key's records are all non-empty gets a
    fresh record that later same-key registrants can share.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: Dict[Tuple, List[SharedSubplanStore]] = {}

    def acquire(self, group_key: Tuple, storage: str,
                signature: "SubplanSignature") -> SharedSubplanStore:
        """A joinable (empty) record for the key — refcount bumped — or a
        fresh one when every existing record is already occupied."""
        key = (group_key, storage, signature)
        bucket = self._buckets.setdefault(key, [])
        for record in bucket:
            if record.store.is_empty():
                record.consumers += 1
                return record
        record = SharedSubplanStore(key, signature, storage)
        record.consumers = 1
        bucket.append(record)
        return record

    def release(self, record: SharedSubplanStore) -> None:
        """Drop one consumer; the last one out frees the record."""
        record.consumers -= 1
        if record.consumers <= 0:
            bucket = self._buckets.get(record.key)
            if bucket is not None:
                bucket[:] = [r for r in bucket if r is not record]
                if not bucket:
                    del self._buckets[record.key]

    def records(self) -> List[SharedSubplanStore]:
        """Every live record, across all keys."""
        return [record for bucket in self._buckets.values()
                for record in bucket]

    def record_count(self) -> int:
        """Number of live shared-store records."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def consumer_count(self) -> int:
        """Total refcount over all records (engines consuming a store)."""
        return sum(record.consumers for record in self.records())

    def space_cells(self) -> int:
        """Physical cells across all shared stores."""
        return sum(record.space_cells() for record in self.records())

    def reuse_count(self) -> int:
        """Total memo-served insertions across all records."""
        return sum(record.reuses for record in self.records())


class _SubplanProvider:
    """Construction-time handle a :class:`Session` passes to a Timing
    engine: the engine calls :meth:`acquire` once per planned TC-subquery
    and adopts the returned record's store.  Tracks acquisitions so a
    failed construction can roll its refcounts back."""

    __slots__ = ("_registry", "_group_key", "acquired")

    def __init__(self, registry: _SubplanRegistry, group_key: Tuple) -> None:
        self._registry = registry
        self._group_key = group_key
        self.acquired: List[SharedSubplanStore] = []

    def acquire(self, query: "QueryGraph", sequence,
                storage: str) -> Optional[SharedSubplanStore]:
        """The shared record for one planned TC-subquery, or ``None``
        when its signature is uncacheable (unhashable labels)."""
        from .core.decomposition import subplan_signature
        signature = subplan_signature(query, sequence)
        if signature is None:       # unhashable label: no cache key
            return None
        record = self._registry.acquire(self._group_key, storage, signature)
        self.acquired.append(record)
        return record

    def rollback(self) -> None:
        """Release every acquisition (failed engine construction)."""
        for record in self.acquired:
            self._registry.release(record)
        self.acquired.clear()


# --------------------------------------------------------------------- #
# Session
# --------------------------------------------------------------------- #

#: Built-in backend names accepted by :meth:`Session.register`.
BACKENDS = ("timing", "sjtree", "incmat", "naive")


def _build_matcher(backend, query: QueryGraph, window,
                   config: EngineConfig, options: dict):
    """Instantiate a backend.  Imports are local: the engine modules import
    this module for :class:`MatcherBase`, so importing them at module level
    would be circular."""
    if callable(backend):
        if options:
            raise ValueError(
                "engine options are not forwarded to factory backends; "
                f"bake them into the factory instead: {sorted(options)}")
        return backend(query, window)
    if backend == "timing":
        from .core.engine import TimingMatcher
        return TimingMatcher(query, window, config=config, **options)
    # Baselines: the session config contributes its duplicate policy, but
    # an explicit per-query option wins.
    options.setdefault("duplicate_policy", config.duplicate_policy)
    if backend == "sjtree":
        from .baselines.sjtree import SJTreeMatcher
        return SJTreeMatcher(query, window, **options)
    if backend == "incmat":
        from .baselines.incmat import IncMatMatcher
        return IncMatMatcher(query, window, **options)
    if backend == "naive":
        from .baselines.naive import NaiveSnapshotMatcher
        return NaiveSnapshotMatcher(query, window, **options)
    raise ValueError(f"unknown backend: {backend!r} "
                     f"(expected one of {BACKENDS} or a factory)")


class _SharedMember:
    """Session-side record of one matcher enrolled in a shared window
    group: its registration ordinal, its engine and the group whose
    buffer its window view reads."""

    __slots__ = ("name", "ordinal", "matcher", "group_key")

    def __init__(self, name: str, ordinal: int, matcher,
                 group_key: Tuple) -> None:
        self.name = name
        self.ordinal = ordinal
        self.matcher = matcher
        self.group_key = group_key


class Session:
    """A registry of named continuous queries sharing one input stream.

    Real monitoring deployments register many patterns at once (the paper's
    motivation cites Verizon's ten attack patterns covering 90% of
    incidents).  A ``Session`` delivers each arrival to every registered
    :class:`Matcher` that can consume it, delivers completed matches to
    attached sinks, and supports live registration/deregistration and
    checkpoint/restore.

    Under the default ``routing="shared"`` ingestion strategy the session
    compiles each query's label-triple signature (see
    :meth:`~repro.core.query.QueryGraph.label_signatures`) into one
    routing index at registration, keeps a single
    :class:`~repro.graph.shared_window.SharedSlidingWindow` per window
    policy instead of ``Q`` per-matcher stream copies, and hands every
    edge that buffer drops straight to the engines that ingested it —
    before the arrival that displaced it is inserted (the paper's
    ``Del``-then-``Ins`` order), so an engine is at the stream position
    whenever anyone looks.  Arrivals that provably cannot match a query
    (the label-level case of the paper's discardable-edge Lemma 1,
    exposed as :meth:`MatcherBase.is_discardable`) never touch that
    query's engine.
    ``routing="fanout"`` restores the historical full fan-out — every
    matcher re-buffers the whole stream — as the ablation baseline; both
    produce identical ``(name, match)`` streams (in-window duplicate ids
    are judged against the shared stream buffer, a deliberate refinement
    that only shows for queries registered mid-stream — see
    :class:`~repro.ingest.Admission`).  Under ``"fanout"`` no matcher
    enrolls in a shared window or the routing index: every one is a
    privately-buffering, always-routed target of the same ingest loop.

    On top of shared routing, ``subplan_sharing="shared"`` (the default)
    de-duplicates the *partial-match state itself*: Timing engines on the
    same window group whose plans contain the same canonical TC-subquery
    (same label triples, equality-constraint shape and timing skeleton —
    :func:`~repro.core.decomposition.subplan_signature`) adopt one
    refcounted :class:`SharedSubplanStore` for it, maintained exactly once
    per arrival, while each query's global joins stay private.  A query
    registered mid-stream gets fresh stores (its sub-plans become
    shareable by *later* registrants), preserving the starts-empty
    semantics above.  ``subplan_sharing="private"`` is the ablation
    baseline; both modes produce identical ``(name, match)`` streams.

    Parameters
    ----------
    window:
        Default window for registered queries: a duration, or a zero-arg
        factory returning a fresh window-policy object per query (a bare
        policy object is rejected — engines cannot share one mutable
        window).  Each query may override it at registration.
    config:
        Default :class:`EngineConfig` for ``timing`` backends, and the
        source of the duplicate policy and routing mode for the built-in
        backends.  Factory backends construct their own engines and must
        bake such settings in themselves.
    duplicate_policy:
        Shorthand for ``config.replace(duplicate_policy=...)``.
    routing:
        Shorthand for ``config.replace(routing=...)``.
    sharding:
        Shorthand for ``config.replace(sharding=...)``.  Any value other
        than ``"none"`` makes the constructor return a
        :class:`~repro.concurrency.sharding.ShardedSession`, which
        partitions registered matchers across ``shards`` worker shards.
    shards:
        Shorthand for ``config.replace(shards=...)``.
    transport:
        Shorthand for ``config.replace(transport=...)`` — the process
        shard batch transport (``"shm"``/``"pipe"``, see
        :data:`TRANSPORT_MODES`).
    """

    def __new__(cls, *args, **kwargs):
        # ``Session(sharding="process")`` (or a config carrying a sharding
        # mode) dispatches to the ShardedSession facade; subclasses and
        # unpickling are left alone.
        if cls is Session and _resolved_sharding(
                kwargs.get("sharding"), kwargs.get("config")) != "none":
            from .concurrency.sharding import ShardedSession
            return super().__new__(ShardedSession)
        return super().__new__(cls)

    def __init__(self, *, window=None, config: Optional[EngineConfig] = None,
                 duplicate_policy: Optional[str] = None,
                 routing: Optional[str] = None,
                 sharding: Optional[str] = None,
                 shards: Optional[int] = None,
                 transport: Optional[str] = None) -> None:
        if isinstance(window, bool):
            raise TypeError("window must be a duration or a window factory")
        if isinstance(window, (int, float)) and window <= 0:
            raise ValueError("window must be positive")
        if window is not None and not isinstance(window, (int, float)) \
                and not callable(window):
            raise TypeError(
                "a Session's default window must be a duration or a "
                "zero-arg window factory — a shared policy object would "
                "be mutated by every registered engine")
        self.default_window = window
        config = config if config is not None else EngineConfig()
        if duplicate_policy is not None:
            config = config.replace(duplicate_policy=duplicate_policy)
        if routing is not None:
            config = config.replace(routing=routing)
        if sharding is not None:
            config = config.replace(sharding=sharding)
        if shards is not None:
            config = config.replace(shards=shards)
        if transport is not None:
            config = config.replace(transport=transport)
        self.config = config.validate()
        self._matchers: Dict[str, Matcher] = {}
        # One entry per registered query, in registration order.
        self._callbacks: Dict[str, Optional[MatchCallback]] = {}
        self._sinks: List[Tuple[Optional[str], MatchCallback]] = []
        self._routing = self.config.routing
        # The two ingest stages (see repro.ingest).  Route payloads are
        # (ordinal, name), so a target list reads in registration order.
        self._admission = Admission(self._on_expired)
        self._index = RouteIndex()
        # Matchers enrolled in a shared window group, by name; the rest
        # buffer privately and are always routed (all of them under
        # routing="fanout").
        self._members: Dict[str, _SharedMember] = {}
        # How many of them retain edges: while none does (a tenant full
        # of one-edge queries), expired edges have nobody to reach.
        self._retaining = 0
        self._private_entries: List[Tuple[int, str]] = []
        # name -> the window policy object it registered with: one
        # mutable policy cannot back two engines.
        self._policy_windows: Dict[str, object] = {}
        # Refcounted shared sub-plan stores (empty under routing="fanout"
        # or subplan_sharing="private") — see SharedSubplanStore.
        self._subplans = _SubplanRegistry()
        self._next_ordinal = 0
        #: Engine insertions performed by shared routing.
        self.routed_pushes = 0
        #: Matcher visits shared routing proved unnecessary and skipped.
        self.skipped_matchers = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query: Union[QueryGraph, str], *,
                 window=None, backend="timing",
                 config: Optional[EngineConfig] = None,
                 callback: Optional[MatchCallback] = None,
                 **engine_options) -> Matcher:
        """Add a named query; returns its engine.

        ``query`` is a :class:`~repro.core.query.QueryGraph` or DSL text
        (see :mod:`repro.io.dsl`; its ``window`` line is used when no
        explicit ``window`` is given).  ``backend`` picks the engine
        (``"timing"`` default, ``"sjtree"``, ``"incmat"``, ``"naive"``, or
        a ``factory(query, window)`` callable); ``engine_options`` are
        passed to its constructor (the Timing engine takes its knobs as
        ``config``, which defaults to the session's).

        Raises on duplicate names.  A query registered mid-stream starts
        with an empty window — it only sees arrivals from now on, which is
        the only sound semantics for a structure that never saw the past.
        """
        query, window = self._resolve_registration(name, query, window)
        config = config if config is not None else self.config
        provider = self._subplan_provider(backend, config, window)
        if provider is not None:
            engine_options["subplan_provider"] = provider
        try:
            matcher = _build_matcher(backend, query, window, config,
                                     engine_options)
        except BaseException:
            if provider is not None:
                provider.rollback()     # failed build leaks no refcounts
            raise
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        if self._routing != "shared" \
                or not self._enroll_shared(name, ordinal, matcher):
            # Privately-buffering matcher: lock-step fan-out semantics.
            self._private_entries.append((ordinal, name))
            self._index.add(name, (ordinal, name), ALWAYS_ROUTED)
            if self.current_time > float("-inf"):
                matcher.advance_time(self.current_time)
        self._matchers[name] = matcher
        self._callbacks[name] = callback
        if not isinstance(window, (int, float)):
            self._policy_windows[name] = window
        return matcher

    def _resolve_registration(self, name: str, query, window):
        """The ``(query, window)`` a registration will build from: DSL
        text parsed, the window taken from the argument, the DSL
        ``window`` line or the session default (a factory is called for a
        fresh policy object), and validated — shared by both session
        kinds so they accept and reject the same registrations."""
        if name in self._callbacks:
            raise ValueError(f"query already registered: {name!r}")
        if isinstance(query, str):
            from .io.dsl import parse_query
            query, window_hint = parse_query(query)
            if window is None:
                window = window_hint
        if window is None:
            window = self.default_window
            if callable(window):
                window = window()       # fresh policy object per engine
        if window is None:
            raise ValueError(
                f"no window for query {name!r}: pass register(window=...), "
                "a DSL 'window' line, or a Session default")
        if as_window(window) is window:
            # Same hazard the constructor rejects for the default window:
            # one mutable policy object cannot back two engines.
            for other_name, other in self._policy_windows.items():
                if other is window:
                    raise ValueError(
                        "window policy object is already used by query "
                        f"{other_name!r}; pass a fresh instance — engines "
                        "cannot share one mutable window")
        return query, window

    def _enroll_shared(self, name: str, ordinal: int, matcher) -> bool:
        """Subscribe a matcher to shared routing; ``False`` if it must
        keep buffering privately (non-:class:`MatcherBase`, or a custom /
        pre-filled window policy)."""
        if not isinstance(matcher, MatcherBase):
            return False
        key = group_key(matcher.window)
        if key is None:
            return False
        # The first member's fresh policy object becomes the group buffer.
        group = self._admission.enroll(key, (ordinal, name),
                                       matcher.duplicate_policy,
                                       policy=matcher.window)
        matcher.window = SharedWindowView(group.window)
        self._members[name] = _SharedMember(name, ordinal, matcher, key)
        self._retaining += not matcher.stateless
        self._index.add(name, (ordinal, name), matcher.routing_signatures())
        return True

    def _subplan_provider(self, backend, config: EngineConfig,
                          window) -> Optional[_SubplanProvider]:
        """A sub-plan provider for this registration, or ``None``.

        Sharing is offered exactly when the engine is certain to enroll in
        shared routing (only co-members of one shared window group expire
        in lock-step, which the exactly-once expiry of a shared store
        relies on): the built-in Timing backend, ``routing="shared"``,
        ``subplan_sharing="shared"``, and a window that will land in a
        known shared group — as judged by the same
        :func:`~repro.ingest.group_key` enrollment itself uses, so the
        two can never disagree.
        """
        if self._routing != "shared" or backend != "timing" \
                or config.subplan_sharing != "shared":
            return None
        key = group_key(window)
        if key is None:
            return None         # unshareable or pre-filled: won't enroll
        return _SubplanProvider(self._subplans, key)

    def register_file(self, name: str, path: str, **kwargs) -> Matcher:
        """Register a query from a ``.tq`` DSL file."""
        with open(path, encoding="utf-8") as handle:
            return self.register(name, handle.read(), **kwargs)

    def set_callback(self, name: str,
                     callback: Optional[MatchCallback]) -> None:
        """Attach (or clear) a registered query's callback — e.g. to
        re-wire alerting after :meth:`restore`, which drops callbacks."""
        if name not in self._callbacks:
            raise KeyError(f"unknown query: {name!r}")
        self._callbacks[name] = callback

    def deregister(self, name: str) -> None:
        """Remove a query: unhook its routing-index entries and
        window-group membership, release its shared sub-plan refcounts,
        and drop its filtered sinks."""
        if name not in self._matchers:
            raise KeyError(f"unknown query: {name!r}")
        member = self._members.pop(name, None)
        if member is not None:
            # The last member out frees the group.
            self._retaining -= not member.matcher.stateless
            self._admission.withdraw(member.group_key,
                                     (member.ordinal, name))
        else:
            self._private_entries[:] = [e for e in self._private_entries
                                        if e[1] != name]
        self._index.remove(name)
        self._policy_windows.pop(name, None)
        release = getattr(self._matchers[name],
                          "release_shared_subplans", None)
        if release is not None:
            # Detaches the engine's expiry cascade from shared sub-plan
            # stores and returns the records so their refcounts drop; the
            # last consumer out frees the store.
            for record in release():
                self._subplans.release(record)
        del self._matchers[name]
        del self._callbacks[name]
        # Sinks filtered to this query die with it — a later query reusing
        # the name must not inherit them.
        self._sinks = [(q, s) for q, s in self._sinks if q != name]

    def names(self) -> List[str]:
        """Registered query names, in registration order."""
        return list(self._callbacks)

    def matcher(self, name: str) -> Matcher:
        """The query's engine; direct reads observe exactly the session's
        stream position."""
        return self._matchers[name]

    def __len__(self) -> int:
        return len(self._callbacks)

    def __contains__(self, name: str) -> bool:
        return name in self._callbacks

    # ------------------------------------------------------------------ #
    # Sinks
    # ------------------------------------------------------------------ #
    def add_sink(self, sink: MatchCallback, *,
                 query: Optional[str] = None):
        """Attach a match consumer; returns it (handy for inline creation).

        ``sink`` is any ``(query_name, match)`` callable — a plain function,
        :class:`~repro.sinks.ListSink`, :class:`~repro.sinks.JSONLSink`, …
        With ``query=``, the sink only sees that query's matches.
        """
        self._sinks.append((query, sink))
        return sink

    def remove_sink(self, sink: MatchCallback) -> None:
        """Detach a sink added with :meth:`add_sink` (``ValueError`` if
        it is not attached)."""
        before = len(self._sinks)
        self._sinks = [(q, s) for q, s in self._sinks if s is not sink]
        if len(self._sinks) == before:
            raise ValueError("sink is not attached")

    def _deliver(self, name: str, match: Match) -> None:
        callback = self._callbacks.get(name)
        if callback is not None:
            callback(name, match)
        for query_filter, sink in self._sinks:
            if query_filter is None or query_filter == name:
                sink(name, match)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def _on_expired(self, group_key: Tuple, edge: StreamEdge) -> None:
        """Hand an edge a group's window dropped to the ``_expire`` hook
        of the members that ingested it — found through the same route
        lookup that delivered it, so only its (typically tiny) target
        list is visited, not all Q matchers.  Runs as the window slides,
        before the displacing arrival is inserted."""
        if not self._retaining:
            return
        members = self._members
        for _, name in self._index.targets(edge):
            member = members.get(name)
            if member is None or member.group_key != group_key:
                continue
            # Timestamp-paired delivery: expire exactly the bearer this
            # matcher ingested — never a coexisting same-id bearer it
            # didn't (StreamEdge equality is by id, so a mispaired
            # _expire would alias), nor one a mid-stream registrant
            # never saw (nor any for a stateless member: its registry
            # stays empty).
            matcher = member.matcher
            if matcher._live_edge_ids.get(edge.edge_id) == edge.timestamp:
                del matcher._live_edge_ids[edge.edge_id]
                matcher._expire(edge, matcher.default_guard)

    def _arrive(self, edge: StreamEdge,
                forced=None) -> List[Tuple[str, Match]]:
        """One arrival through admit → route → match → emit.

        Admission judges the arrival against the stream and slides the
        shared windows (see :meth:`repro.ingest.Admission.admit`;
        ``forced`` is its shard-worker argument); privately-buffering
        matchers keep their per-matcher duplicate peek, folded into the
        same all-or-nothing rejection.  The route index then names the
        matchers that can consume the edge, and only those run.
        """
        offenders: list = []
        for entry in self._private_entries:
            # would_reject is optional: a protocol matcher from a factory
            # that doesn't implement it keeps its own duplicate handling.
            check = getattr(self._matchers[entry[1]], "would_reject", None)
            if check is not None and check(edge):
                offenders.append(entry)
        live = self._admission.admit(edge, forced, offenders)
        if live is not None:
            # Dropped like the per-matcher skip path, and counted where
            # the member's policy asks for it.
            for key in live:
                for _, name in self._admission.groups[key].count_entries:
                    self._matchers[name].stats.edges_skipped += 1
        results: List[Tuple[str, Match]] = []
        members = self._members
        shared_targets = 0
        for _, name in self._index.targets(edge):
            member = members.get(name)
            if member is None:
                # Privately-buffering matcher: full lock-step push.  A
                # sink callback may deregister queries mid-push — the
                # target list is a snapshot, so re-check liveness.
                matcher = self._matchers.get(name)
                if matcher is None:
                    continue
                for match in matcher.push(edge):
                    results.append((name, match))
                    self._deliver(name, match)
                continue
            shared_targets += 1
            if live is not None and member.group_key in live:
                continue    # duplicate: dropped for this whole group
            matcher = member.matcher
            if not matcher.stateless:
                matcher._live_edge_ids[edge.edge_id] = edge.timestamp
            self.routed_pushes += 1
            for match in matcher._insert(edge, matcher.default_guard):
                results.append((name, match))
                self._deliver(name, match)
        self.skipped_matchers += len(members) - shared_targets
        return results

    def _pump(self, edges: Iterable[StreamEdge], consume) -> None:
        """The one ingest driver: every arrival's ``(name, match)`` list
        goes to ``consume``."""
        for edge in edges:
            consume(self._arrive(edge))

    def push(self, edge: StreamEdge) -> List[Tuple[str, Match]]:
        """Deliver one arrival to every query that can consume it.

        A duplicate-id rejection (any built-in engine with the ``raise``
        policy) is checked side-effect-free *before* any engine ingests
        the edge — a rejecting push touches no window and no clock, so a
        corrected feed may retry any later timestamp.  (A factory-built
        matcher that raises its own errors from ``push`` is outside this
        guarantee unless it implements ``would_reject``.)
        """
        return self.push_many((edge,))

    def push_many(self,
                  edges: Iterable[StreamEdge]) -> List[Tuple[str, Match]]:
        """Batch ingestion from any edge iterable (list, generator,
        :class:`~repro.graph.stream.GraphStream`, CSV reader…)."""
        results: List[Tuple[str, Match]] = []
        self._pump(edges, results.extend)
        return results

    def ingest(self, edges: Iterable[StreamEdge]) -> int:
        """Batch ingestion for sink-driven sessions: like
        :meth:`push_many` but returns only the number of matches
        delivered, so an unbounded stream never materialises its whole
        result list."""
        delivered = 0

        def consume(results: List[Tuple[str, Match]]) -> None:
            nonlocal delivered
            delivered += len(results)

        self._pump(edges, consume)
        return delivered

    def ingest_csv(self, source, *, collect: bool = True,
                   **reader_options) -> Union[List[Tuple[str, Match]], int]:
        """Replay a CSV edge trace (see :mod:`repro.io.csv_stream`).

        Returns the ``(name, match)`` list by default; pass
        ``collect=False`` on long traces with sinks attached to get only
        a match count and avoid materialising every result.
        """
        from .io.csv_stream import read_stream
        edges = read_stream(source, **reader_options)
        if collect:
            return self.push_many(edges)
        return self.ingest(edges)

    def advance_time(self, timestamp: float) -> None:
        """Slide all windows forward without an arrival."""
        self._admission.advance(timestamp)
        for _, name in self._private_entries:
            self._matchers[name].advance_time(timestamp)

    @property
    def current_time(self) -> float:
        """The stream clock: the latest accepted timestamp."""
        return self._admission.clock

    @property
    def edges_pushed(self) -> int:
        """Arrivals accepted by the session (all routing modes)."""
        return self._admission.edges_pushed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def result_counts(self) -> Dict[str, int]:
        """Per-query current-window match counts."""
        held, _ = self._stateless_answers()
        return {name: len(held[name]) if name in held
                else matcher.result_count()
                for name, matcher in self._matchers.items()}

    def current_matches(self) -> Dict[str, List[Match]]:
        """Per-query full answer sets over the current window."""
        held, _ = self._stateless_answers()
        return {name: matcher._as_matches(held[name]) if name in held
                else matcher.current_matches()
                for name, matcher in self._matchers.items()}

    def _stateless_answers(self) -> Tuple[Dict[str, List[StreamEdge]], int]:
        """``(answers, pinned)`` for the stateless members of the shared
        windows: each one's current matches (the in-window edges it
        ingested that match its query edge, oldest first) and how many
        distinct buffer cells hold at least one of them.

        One pass per shared buffer: the route index names the few members
        an edge can reach, so reading a tenant of Q one-edge queries costs
        ``O(|W|·targets)`` — asking each engine to scan the window for
        itself (what :meth:`Matcher.result_count` does on its own) would
        be ``O(Q·|W|)``."""
        members = self._members
        answers: Dict[str, List[StreamEdge]] = {
            name: [] for name, member in members.items()
            if member.matcher.stateless}
        pinned = 0
        if not answers:
            return answers, pinned
        targets = self._index.targets
        for key, group in self._admission.groups.items():
            for edge in group.window:
                answered = False
                for _, name in targets(edge):
                    held = answers.get(name)
                    if held is not None:
                        member = members[name]
                        if member.group_key == key \
                                and member.matcher._is_answer(edge):
                            held.append(edge)
                            answered = True
                pinned += answered
        return answers, pinned

    def space_cells(self) -> int:
        """Physical cells holding partial-match state, each counted once:
        every shared sub-plan store, each engine's exclusive (unshared)
        stores, and — for stateless members, whose one expansion list
        *is* the window — every window-buffer cell that is a current
        match of at least one of them (a shared buffer's cell once,
        however many members match it).  A matcher's own
        :meth:`~Matcher.space_cells` stays the per-query *logical*
        footprint of what the engine stores (shared stores included, so
        summing it over their consumers would double-count; 0 for a
        stateless plan)."""
        cells = self._subplans.space_cells() + self._stateless_answers()[1]
        members = self._members
        for name, matcher in self._matchers.items():
            exclusive = getattr(matcher, "exclusive_space_cells", None)
            cells += (exclusive() if exclusive is not None
                      else matcher.space_cells())
            if name not in members and getattr(matcher, "stateless", False):
                cells += matcher.result_count()     # its private buffer
        return cells

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-query engine counters (see :class:`EngineStats`)."""
        return {name: matcher.stats.as_dict()
                for name, matcher in self._matchers.items()}

    def shared_window_cells(self) -> int:
        """Edges held across the session's shared window buffers —
        ``O(|W|)`` per distinct window policy, however many queries share
        them (0 under ``routing="fanout"``)."""
        return sum(len(group.window)
                   for group in self._admission.groups.values())

    def window_cells(self) -> int:
        """Total window buffer cells across the session: the shared
        buffers plus every privately-buffering matcher's window.  Under
        fanout this is the ``O(Q·|W|)`` figure shared routing collapses."""
        cells = self.shared_window_cells()
        for _, name in self._private_entries:
            window = getattr(self._matchers[name], "window", None)
            try:
                cells += len(window)
            except TypeError:
                pass    # protocol matcher without a sized window
        return cells

    def session_stats(self) -> Dict[str, object]:
        """Session-level ingestion counters (per-matcher engine counters
        stay in :meth:`stats`): the routing mode, accepted arrivals,
        shared-routing work/savings, and window memory."""
        return {
            "routing": self._routing,
            "queries": len(self._matchers),
            "shared_groups": len(self._admission.groups),
            "edges_pushed": self.edges_pushed,
            "routed_pushes": self.routed_pushes,
            "skipped_matchers": self.skipped_matchers,
            "stateless_queries": sum(
                1 for matcher in self._matchers.values()
                if getattr(matcher, "stateless", False)),
            "predicate_entries": len(self._index.router),
            "predicate_trie_nodes": self._index.router.node_count(),
            "shared_window_cells": self.shared_window_cells(),
            "window_cells": self.window_cells(),
            "subplan_sharing": self.config.subplan_sharing,
            "shared_subplans": self._subplans.record_count(),
            "subplan_consumers": self._subplans.consumer_count(),
            "subplan_store_cells": self._subplans.space_cells(),
            "subplan_reuses": self._subplans.reuse_count(),
        }

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self, target) -> None:
        """Serialise the session (engines, windows, clock) to ``target``.

        Runtime wiring is *not* captured: sinks, callbacks, a callable
        default-window factory, and config guards often close over
        files, lambdas or locks — re-attach them after :meth:`restore`.
        """
        from .persistence import save_session
        save_session(self, target)

    @classmethod
    def restore(cls, source) -> "Session":
        """Load a session saved with :meth:`checkpoint`."""
        from .persistence import load_session
        return load_session(source)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_sinks"] = []
        state["_callbacks"] = {name: None for name in self._callbacks}
        if callable(state.get("default_window")):
            state["default_window"] = None
        return _strip_config_guard(state)

    def __repr__(self) -> str:
        return (f"Session({len(self._matchers)} queries, "
                f"routing={self._routing}, t={self.current_time})")


class ThreadSafeSession:
    """A mutual-exclusion wrapper making one :class:`Session` usable from
    several threads.

    A :class:`Session` is single-threaded by design — shared windows,
    routing caches and engine stores are mutated on every push.  Real
    deployments still need concurrent *access* patterns that are
    individually serial: a worker thread ingesting while another thread
    checkpoints, scrapes stats, or registers a query.  This wrapper holds
    one reentrant lock for the session: streaming and registration run
    inside :meth:`locked`, and :meth:`checkpoint` plus the reads the
    service scrapes (:meth:`names`, :attr:`edges_pushed`,
    :meth:`session_stats`) take it themselves, so interleaved callers
    each observe a consistent session at operation granularity (it does
    not parallelise matching — that is what ``Session(sharding=...)`` is
    for).

    :meth:`checkpoint` is the reason this exists: it snapshots the
    session *and* its stream position under the same lock acquisition,
    which is the atomic capture the service layer's crash-recovery
    barrier needs — a checkpoint taken mid-``push_many`` from another
    thread lands exactly between two arrivals, never inside one.

    Use :meth:`locked` for compound read-modify-write sequences::

        safe = ThreadSafeSession(Session(window=30.0))
        with safe.locked() as session:
            if "exfil" not in session:
                session.register("exfil", EXFIL_DSL)
    """

    def __init__(self, session: Session) -> None:
        self._session = session
        self._lock = threading.RLock()

    # -- introspection ------------------------------------------------- #
    def names(self) -> List[str]:
        """Locked :meth:`Session.names`."""
        with self._lock:
            return self._session.names()

    def session_stats(self) -> Dict[str, object]:
        """Locked :meth:`Session.session_stats`."""
        with self._lock:
            return self._session.session_stats()

    @property
    def edges_pushed(self) -> int:
        """Locked read of the session's accepted-arrival count."""
        with self._lock:
            return self._session.edges_pushed

    # -- checkpointing ------------------------------------------------- #
    def checkpoint(self, target, *, meta: Optional[dict] = None) -> dict:
        """Atomically snapshot the session to ``target``.

        Returns the metadata written with the envelope: the caller's
        ``meta`` (if any) extended with ``edges_pushed`` and
        ``current_time`` captured under the same lock as the pickle — the
        consistent stream position a recovering producer replays from.
        """
        from .persistence import save_session
        with self._lock:
            written = dict(meta or {})
            written.setdefault("edges_pushed", self._session.edges_pushed)
            written.setdefault("current_time", self._session.current_time)
            save_session(self._session, target, meta=written)
            return written

    # -- escape hatch -------------------------------------------------- #
    def locked(self):
        """A context manager yielding the raw session with the lock held."""
        return _LockedSession(self._lock, self._session)

    @property
    def session(self) -> Session:
        """The wrapped session (access it via :meth:`locked` when other
        threads are active)."""
        return self._session

    def __repr__(self) -> str:
        return f"ThreadSafeSession({self._session!r})"


class _LockedSession:
    """Context manager for :meth:`ThreadSafeSession.locked`."""

    __slots__ = ("_lock", "_session")

    def __init__(self, lock, session: Session) -> None:
        self._lock = lock
        self._session = session

    def __enter__(self) -> Session:
        self._lock.acquire()
        return self._session

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


def __getattr__(name: str):
    # Lazy re-export: sharding.py imports this module at its top, so the
    # error type has to be pulled in on first access rather than at import.
    if name == "ShardDeadError":
        from .concurrency.sharding import ShardDeadError

        return ShardDeadError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
