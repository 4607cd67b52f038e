"""The session facade: ``Session``, ``ThreadSafeSession``.

``Session``
    The facade a deployment talks to: register named queries (from
    :class:`~repro.core.query.QueryGraph` objects, DSL text, or ``.tq``
    files), fan arrivals out to all of them in lock-step, attach match
    sinks (callbacks, collectors, JSONL writers — :mod:`repro.sinks`),
    ingest batches from any edge iterable or a CSV trace, and
    checkpoint/restore the whole thing via :mod:`repro.persistence`.

The engine-level protocol the registered engines speak (``Matcher``,
``MatcherBase``, ``EngineConfig``, the mode tuples) lives in
:mod:`repro.matcher`, below the engines, and sub-plan sharing in
:mod:`repro.subplans`; every name that used to be importable from here
still is.

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

import contextlib
import threading
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from .baselines.incmat import IncMatMatcher
from .baselines.naive import NaiveSnapshotMatcher
from .baselines.sjtree import SJTreeMatcher
from .core.engine import TimingMatcher
from .core.matches import Match
from .core.query import QueryGraph
from .graph.edge import StreamEdge
from .graph.shared_window import SharedWindowView, window_policy_key
from .ingest import Admission, Candidates, RouteIndex
from .io.csv_stream import read_stream
from .io.dsl import parse_query
from .matcher import (
    DECOMPOSITION_STRATEGIES, DUPLICATE_POLICIES, INDEXING_MODES,
    JOIN_ORDER_STRATEGIES, STORAGE_KINDS, SUBPLAN_SHARING_MODES,
    EngineConfig, EngineStats, Matcher, MatcherBase, as_window,
)
from .stats import COUNTER, GAUGE, INFO, Table, snapshot
from .subplans import SharedSubplanStore, _SubplanProvider, _SubplanRegistry

__all__ = [
    "BACKENDS", "DECOMPOSITION_STRATEGIES", "DUPLICATE_POLICIES",
    "INDEXING_MODES", "JOIN_ORDER_STRATEGIES", "STORAGE_KINDS",
    "SUBPLAN_SHARING_MODES",
    "EngineConfig", "EngineStats", "MatchCallback", "Matcher",
    "MatcherBase", "Session", "SharedSubplanStore", "ThreadSafeSession",
    "as_window",
]

MatchCallback = Callable[[str, Match], None]

_ENGINES = {"timing": TimingMatcher, "sjtree": SJTreeMatcher,
            "incmat": IncMatMatcher, "naive": NaiveSnapshotMatcher}

#: Built-in backend names accepted by :meth:`Session.register`.
BACKENDS = tuple(_ENGINES)


class _QueryRecord:
    """Everything a session keeps about one registered query — and the
    payload its route index hands back for an arrival, as ``(ordinal,
    record)``, so a target list sorts by a C-level integer comparison,
    reads in registration order and needs no lookup by name.

    ``query``, ``group_key`` (the window group the engine reads: what
    the registered window spec reduces to), ``backend`` (a
    :data:`BACKENDS` name), ``config`` and ``options`` are the
    registration *recipe*, written once at ``register``: what
    ``_install`` builds the engine from and what a checkpoint stores in
    its place.  ``matcher`` is cleared at deregistration, so a target
    list snapshotted earlier skips the query.  ``slot`` is the query's
    one edge id when the member is *decided* — its engine is a stateless
    :class:`~repro.core.engine.TimingMatcher` and its routing signature
    is exact or predicate, never generic: the route index then runs its
    whole label test, so the session matches it without an engine call
    (see :meth:`Session._ingest`).  ``None`` for every other member.
    """

    def __init__(self, name: str, ordinal: int, matcher,
                 callback: Optional[MatchCallback], key: Tuple, *,
                 query: Optional[QueryGraph] = None, backend: str = "timing",
                 config: Optional[EngineConfig] = None,
                 options: Optional[dict] = None) -> None:
        self.name = name
        self.ordinal = ordinal
        self.matcher = matcher
        self.callback = callback
        self.query = query
        self.backend = backend
        self.config = config
        self.options = options if options is not None else {}
        self.group_key = key
        self.slot = None


class Session:
    """A registry of named continuous queries sharing one input stream.

    Real monitoring deployments register many patterns at once (the paper's
    motivation cites Verizon's ten attack patterns covering 90% of
    incidents).  A ``Session`` delivers each arrival to every registered
    :class:`Matcher` that can consume it, delivers completed matches to
    attached sinks, and supports live registration/deregistration and
    checkpoint/restore.

    The session compiles each query's label-triple signature (see
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
    query's engine.  In-window duplicate ids are judged against the
    group's buffer, so a query registered mid-stream inherits the
    stream's duplicate view (see :class:`~repro.ingest.Admission`).  Every
    member is a window-group member (see :meth:`register`).

    On top of shared windows, ``subplan_sharing="shared"`` (the default)
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
        Default window for registered queries: a duration, an empty
        ``SlidingWindow`` or ``CountSlidingWindow`` (it only names the
        window group; no engine fills it), or a zero-arg factory
        returning one.  Each query may override it at registration.
    config:
        Default :class:`EngineConfig` for ``timing`` backends, and the
        source of the duplicate policy for the baseline backends.
    duplicate_policy:
        Shorthand for ``config.replace(duplicate_policy=...)``.
    """

    def __init__(self, *, window=None, config: Optional[EngineConfig] = None,
                 duplicate_policy: Optional[str] = None) -> None:
        if window is not None and not callable(window):
            as_window(window)   # TypeError but for a duration or a policy
        if isinstance(window, (int, float)) \
                and not 0 < window < float("inf"):
            raise ValueError(
                f"window must be positive and finite, got {window!r}")
        self.default_window = window
        config = config if config is not None else EngineConfig()
        if duplicate_policy is not None:
            config = config.replace(duplicate_policy=duplicate_policy)
        self.config = config.validate()
        # name -> record, one per registered query, in registration order.
        self._queries: Dict[str, _QueryRecord] = {}
        self._sinks: List[Tuple[Optional[str], MatchCallback]] = []
        # The two ingest stages (see repro.ingest).  Route payloads and
        # window-group roster entries are (ordinal, record).
        self._admission = Admission(self._on_expired)
        self._index = RouteIndex()
        # Refcounted shared sub-plan stores (empty under
        # subplan_sharing="private") — see SharedSubplanStore.
        self._subplans = _SubplanRegistry()
        self._next_ordinal = 0
        self.routed_pushes = 0      # counters declared in STATS
        self.skipped_matchers = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query: Union[QueryGraph, str], *,
                 window=None, backend: str = "timing",
                 config: Optional[EngineConfig] = None,
                 callback: Optional[MatchCallback] = None,
                 **engine_options) -> Matcher:
        """Add a named query; returns its engine.

        ``query`` is a :class:`~repro.core.query.QueryGraph` or DSL text
        (see :mod:`repro.io.dsl`; its ``window`` line is used when no
        explicit ``window`` is given).  ``backend`` picks the engine from
        :data:`BACKENDS` (``"timing"`` default); ``engine_options`` are
        passed to its constructor (the Timing engine takes its knobs as
        ``config``, which defaults to the session's).

        Raises ``ValueError``, changing nothing, on a duplicate name, a
        backend outside :data:`BACKENDS` (a callable too), and a window
        but a duration or a fresh, empty ``SlidingWindow`` /
        ``CountSlidingWindow``: a query registered mid-stream starts with
        an empty window, the only sound semantics for a structure that
        never saw the past.
        """
        query, key = self._resolve_registration(name, query, window, backend)
        record = _QueryRecord(
            name, self._next_ordinal, None, callback, key, query=query,
            backend=backend, options=engine_options,
            config=config if config is not None else self.config)
        self._install(record)
        self._next_ordinal += 1
        return record.matcher

    def _install(self, record: _QueryRecord) -> None:
        """Build ``record``'s engine on its group's view from its recipe
        and enroll it — what a restore repeats (:mod:`repro.persistence`)."""
        key = record.group_key
        window = SharedWindowView(self._admission.open(key).window)
        options, provider = dict(record.options), None
        if record.backend != "timing":
            # The session config contributes its duplicate policy, but an
            # explicit per-query option wins.
            options.setdefault("duplicate_policy",
                               record.config.duplicate_policy)
        else:
            options["config"] = record.config
            # Sub-plan sharing needs co-members of one window group (they
            # expire in lock-step, which a shared store's exactly-once
            # expiry relies on) and stores to share: a one-edge query runs
            # the stateless plan and has none.
            if record.config.subplan_sharing == "shared" \
                    and not record.query.is_single_edge:
                provider = options["subplan_provider"] = \
                    _SubplanProvider(self._subplans, key)
        try:
            matcher = _ENGINES[record.backend](record.query, window, **options)
        except BaseException:
            if provider is not None:
                provider.rollback()     # failed build leaks no refcounts
            if not self._admission.groups[key].members:
                del self._admission.groups[key]     # nor an opened group
            raise
        record.matcher = matcher
        entry = (record.ordinal, record)
        self._admission.enroll(key, entry, matcher.duplicate_policy,
                               not matcher.stateless)
        signatures = matcher.routing_signatures()
        self._index.add(record.name, entry, signatures)
        if type(matcher) is TimingMatcher and matcher.stateless \
                and not signatures[2]:
            record.slot = matcher.all_slots[0]
        self._queries[record.name] = record

    def _resolve_registration(self, name: str, query, window, backend):
        """The ``(query, group key)`` to build from — DSL text parsed, the
        window spec from the argument, the DSL ``window`` line or the
        session default (a factory called afresh), reduced to its window
        group's key — or every refusal of :meth:`register`, raised before
        anything changes.  A policy object only names its group, so one
        object may back any number of queries."""
        if name in self._queries:
            raise ValueError(f"query already registered: {name!r}")
        if callable(backend):
            raise ValueError(
                f"backend for query {name!r} must be one of {BACKENDS}, "
                "not a factory: a session member is checkpointed by its "
                "backend's name.  Standalone engines (TimingMatcher."
                "from_config, the repro.baselines classes) still take any "
                "window policy")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend: {backend!r} "
                             f"(expected one of {BACKENDS})")
        if isinstance(query, str):
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
        if not isinstance(window, bool) and isinstance(window, (int, float)):
            return query, ("time", float(window))
        as_window(window)   # TypeError unless a window policy object
        key = window_policy_key(window)
        if key is None:
            raise ValueError(
                f"window for query {name!r} must be a duration, "
                "SlidingWindow(duration) or CountSlidingWindow(capacity), "
                f"not {type(window).__name__}: a session member "
                "reads its window group's shared buffer")
        if len(window):
            raise ValueError(
                f"window policy object for query {name!r} already "
                f"holds {len(window)} edge(s); pass an empty one — a "
                "query starts with an empty window")
        return query, key

    def register_file(self, name: str, path: str, **kwargs) -> Matcher:
        """Register a query from a ``.tq`` DSL file."""
        with open(path, encoding="utf-8") as handle:
            return self.register(name, handle.read(), **kwargs)

    def set_callback(self, name: str,
                     callback: Optional[MatchCallback]) -> None:
        """Attach (or clear) a registered query's callback — e.g. to
        re-wire alerting after :meth:`restore`, which drops callbacks."""
        self._record(name).callback = callback

    def _record(self, name: str) -> _QueryRecord:
        if name not in self._queries:
            raise KeyError(f"unknown query: {name!r}")
        return self._queries[name]

    def deregister(self, name: str) -> None:
        """Remove a query: unhook its routing-index entries and
        window-group membership, release its shared sub-plan refcounts,
        and drop its filtered sinks."""
        record = self._record(name)
        # The last member out frees the group.
        self._admission.withdraw(record.group_key, (record.ordinal, record),
                                 not record.matcher.stateless)
        self._index.remove(name)
        release = getattr(record.matcher, "release_shared_subplans", None)
        if release is not None:
            # Detaches the engine's expiry cascade from shared sub-plan
            # stores and returns the records so their refcounts drop; the
            # last consumer out frees the store.
            for subplan in release():
                self._subplans.release(subplan)
        del self._queries[name]
        record.matcher = None       # target lists held earlier skip it
        # Sinks filtered to this query die with it — a later query reusing
        # the name must not inherit them.
        if any(q == name for q, _ in self._sinks):
            self._sinks = [(q, s) for q, s in self._sinks if q != name]

    def names(self) -> List[str]:
        """Registered query names, in registration order."""
        return list(self._queries)

    def matcher(self, name: str) -> Matcher:
        """The query's engine; direct reads observe exactly the session's
        stream position."""
        return self._record(name).matcher

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, name: str) -> bool:
        return name in self._queries

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

    def _deliver(self, record: _QueryRecord, match: Match) -> None:
        name = record.name
        if record.callback is not None:
            record.callback(name, match)
        for query_filter, sink in self._sinks:
            if query_filter is None or query_filter == name:
                sink(name, match)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def _on_expired(self, group_key: Tuple,
                    edges: List[StreamEdge]) -> None:
        """Hand the prefix a group's window dropped, oldest first, to the
        ``_expire`` hook of the members that ingested each edge.  Runs as
        the window slides, before the displacing arrival is inserted.

        Nothing is routed again: the group held each dropped arrival with
        the target list it was inserted into (see
        :class:`~repro.ingest.WindowGroup`), so only that (typically tiny)
        list is walked, not all Q matchers.  The list predates every later
        registration, so a mid-stream registrant never hears of an edge it
        never saw; a deregistered member's record has no matcher, so a
        name registered again never hears of its predecessor's edges; and
        a stateless member stored nothing."""
        held = self._admission.groups[group_key].held
        until = edges[-1].timestamp
        while held and held[0][0].timestamp <= until:
            edge, targets = held.popleft()
            for _, record in targets:
                matcher = record.matcher
                if matcher is not None and record.group_key == group_key \
                        and not matcher.stateless:
                    matcher._expire(edge)

    def _ingest(self, edges: Iterable[StreamEdge], consume) -> None:
        """The one ingest loop — behind :meth:`push_many` /
        :meth:`ingest`: route → admit → insert per arrival.

        The route index hands back the records of the members that can
        consume the edge — its one label match.  Admission then judges
        the arrival against the stream and slides the shared windows,
        handing their expired prefixes to :meth:`_on_expired` (see
        :meth:`repro.ingest.Admission.admit`) and holding the target list
        for the arrival's own expiry.  Only the targets outside the
        groups the arrival duplicates run.  A decided member
        (``record.slot``; see :class:`_QueryRecord`) on a decided list —
        anything but :class:`~repro.ingest.Candidates` — is matched here:
        its route passed the one label test its stateless plan runs, so
        the session counts the engine's insert and builds the match
        itself.  Every match is delivered to the sinks as it is found;
        ``consume(pairs)`` then receives the ``(name, match)`` pairs of
        each arrival that completed any.
        """
        admission, index, queries = self._admission, self._index, self._queries
        admit = admission.admit
        for edge in edges:
            targets = index.targets(edge)
            live = admit(edge, targets)
            if live is not None:
                # Dropped for the whole group, and counted where the
                # member's policy asks for it.
                for key in live:
                    for _, record in admission.groups[key].entries("count"):
                        record.matcher.stats.edges_skipped += 1
            # Counted at routing time: a sink callback below may
            # deregister queries, but every target here gets its visit.
            self.skipped_matchers += len(queries) - len(targets)
            if not targets:
                continue
            decided = targets.__class__ is not Candidates
            results: List[Tuple[str, Match]] = []
            for _, record in targets:
                matcher = record.matcher
                if matcher is None:
                    # A sink callback deregistered this query earlier in
                    # the arrival — the target list is a snapshot.
                    continue
                if live is not None and record.group_key in live:
                    continue    # duplicate: dropped for this whole group
                self.routed_pushes += 1
                slot = record.slot
                if slot is not None and decided:
                    # The stateless insert_edge, its test passed.
                    stats = matcher.stats
                    stats.edges_seen += 1
                    stats.edges_matched += 1
                    stats.matches_emitted += 1
                    matches = (Match({slot: edge}),)
                else:
                    matches = matcher._insert(edge)
                for match in matches:
                    results.append((record.name, match))
                    self._deliver(record, match)
            if results:
                consume(results)

    def push(self, edge: StreamEdge) -> List[Tuple[str, Match]]:
        """Deliver one arrival to every query that can consume it.

        A duplicate-id rejection (a member with the ``raise`` policy
        whose window group still buffers the id) is judged *before* any
        engine ingests the edge — a rejecting push touches no window and
        no clock, so a corrected feed may retry any later timestamp.
        """
        return self.push_many((edge,))

    def push_many(self,
                  edges: Iterable[StreamEdge]) -> List[Tuple[str, Match]]:
        """Batch ingestion from any edge iterable (list, generator,
        :class:`~repro.graph.stream.GraphStream`, CSV reader…)."""
        results: List[Tuple[str, Match]] = []
        self._ingest(edges, results.extend)
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

        self._ingest(edges, consume)
        return delivered

    def ingest_csv(self, source, *, collect: bool = True,
                   **reader_options) -> Union[List[Tuple[str, Match]], int]:
        """Replay a CSV edge trace (see :mod:`repro.io.csv_stream`).

        Returns the ``(name, match)`` list by default; pass
        ``collect=False`` on long traces with sinks attached to get only
        a match count and avoid materialising every result.
        """
        edges = read_stream(source, **reader_options)
        if collect:
            return self.push_many(edges)
        return self.ingest(edges)

    def advance_time(self, timestamp: float) -> None:
        """Slide all windows forward without an arrival."""
        self._admission.advance(timestamp)

    @property
    def current_time(self) -> float:
        """The stream clock: the latest accepted timestamp."""
        return self._admission.clock

    @property
    def edges_pushed(self) -> int:
        """Arrivals accepted by the session."""
        return self._admission.edges_pushed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def result_counts(self) -> Dict[str, int]:
        """Per-query current-window match counts."""
        held, _ = self._stateless_answers()
        return {name: len(held[record]) if record in held
                else record.matcher.result_count()
                for name, record in self._queries.items()}

    def current_matches(self) -> Dict[str, List[Match]]:
        """Per-query full answer sets over the current window."""
        held, _ = self._stateless_answers()
        return {name: record.matcher._as_matches(held[record])
                if record in held else record.matcher.current_matches()
                for name, record in self._queries.items()}

    def _stateless_answers(
            self) -> Tuple[Dict[_QueryRecord, List[StreamEdge]], int]:
        """``(answers, pinned)`` for the stateless members of the shared
        windows: each one's current matches (the in-window edges it
        ingested that match its query edge, oldest first), by record, and
        how many distinct buffer cells hold at least one of them.

        One pass per shared buffer: the route index names the few members
        an edge can reach, so reading a tenant of Q one-edge queries costs
        ``O(|W|·targets)`` — asking each engine to scan the window for
        itself (what :meth:`Matcher.result_count` does on its own) would
        be ``O(Q·|W|)``."""
        answers: Dict[_QueryRecord, List[StreamEdge]] = {
            record: [] for record in self._queries.values()
            if record.matcher.stateless}
        pinned = 0
        if not answers:
            return answers, pinned
        targets = self._index.targets
        for key, group in self._admission.groups.items():
            for edge in group.window:
                answered = False
                for _, record in targets(edge):
                    matcher = record.matcher
                    if record.group_key == key and matcher.stateless \
                            and matcher._is_answer(edge):
                        answers[record].append(edge)
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
        return self._subplans.space_cells() + self._stateless_answers()[1] \
            + sum(record.matcher.exclusive_space_cells()
                  for record in self._queries.values())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-query engine counters (see :class:`EngineStats`)."""
        return {name: record.matcher.stats.as_dict()
                for name, record in self._queries.items()}

    def shared_window_cells(self) -> int:
        """Edges held across the session's shared window buffers —
        ``O(|W|)`` per distinct window policy, however many queries share
        them."""
        return sum(len(group.window)
                   for group in self._admission.groups.values())

    #: Total window buffer cells: every member reads a shared buffer.
    window_cells = shared_window_cells

    #: What :meth:`session_stats` reports (see :mod:`repro.stats`).
    STATS: Table = {
        "queries": (GAUGE, "Registered queries."),
        "shared_groups": (GAUGE, "Window groups (one shared buffer each)."),
        "edges_pushed": (COUNTER, "Arrivals accepted by the session."),
        "routed_pushes": (COUNTER, "Engine insertions of routed arrivals."),
        "skipped_matchers": (COUNTER, "Matcher visits the route index "
                                      "skipped."),
        "stateless_queries": (GAUGE, "Registered one-edge queries on the "
                                     "stateless plan: no partial-match "
                                     "store, so nothing in "
                                     "subplan_store_cells."),
        "predicate_entries": (GAUGE, "Non-exact routing signatures."),
        "predicate_trie_nodes": (GAUGE, "Predicate-router nodes."),
        "route_resolved_lists": (GAUGE, "Route buckets with a prebuilt "
                                        "target list (at most the "
                                        "registered buckets plus two; 0 "
                                        "while every query is "
                                        "exact-label)."),
        "shared_window_cells": (GAUGE, "Edges held in the window buffers."),
        "window_cells": (GAUGE, "Window cells (= shared_window_cells)."),
        "subplan_sharing": (INFO, "Sub-plan sharing mode."),
        "shared_subplans": (GAUGE, "Shared sub-plan stores."),
        "subplan_consumers": (GAUGE, "Engines reading a shared store."),
        "subplan_store_cells": (GAUGE, "Cells in the shared stores."),
        "subplan_reuses": (GAUGE, "Insertions served from a live shared "
                                  "store."),
    }

    def session_stats(self) -> Dict[str, object]:
        """Session-level ingestion counters (per-matcher engine counters
        stay in :meth:`stats`): accepted arrivals, routing work/savings,
        and window memory — :attr:`STATS` names and explains each.

        Each arrival is routed once: its expiry walks the target list it
        carried and never consults the route index.  Once a predicate or
        generic query is registered, the index answers an arrival
        hitting one route bucket (or none) with that bucket's prebuilt
        list; ``route_resolved_lists`` counts the lists built so far —
        at most the registered buckets plus two, and 0 while every query
        is exact-label (the index then answers from its dict)."""
        cells, subplans = self.shared_window_cells(), self._subplans
        return snapshot(
            self, self.STATS, queries=len(self._queries),
            shared_groups=len(self._admission.groups),
            stateless_queries=sum(record.matcher.stateless
                                  for record in self._queries.values()),
            predicate_entries=len(self._index.router),
            predicate_trie_nodes=self._index.router.node_count(),
            route_resolved_lists=self._index.resolved_count(),
            shared_window_cells=cells, window_cells=cells,
            subplan_sharing=self.config.subplan_sharing,
            shared_subplans=subplans.record_count(),
            subplan_consumers=subplans.consumer_count(),
            subplan_store_cells=subplans.space_cells(),
            subplan_reuses=subplans.reuse_count())

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self, target) -> None:
        """Write the session's data (queries, window buffers, clock) to
        ``target`` — see :mod:`repro.persistence`.

        Runtime wiring is *not* captured: sinks, callbacks and a callable
        default-window factory often close over files and lambdas —
        re-attach them after :meth:`restore`.
        """
        from .persistence import save_session
        save_session(self, target)

    @classmethod
    def restore(cls, source) -> "Session":
        """Rebuild a session saved with :meth:`checkpoint`."""
        from .persistence import load_session
        return load_session(source)

    def __repr__(self) -> str:
        return f"Session({len(self._queries)} queries, t={self.current_time})"


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
    not parallelise matching).

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
        ``current_time`` captured under the same lock as the data — the
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
    @contextlib.contextmanager
    def locked(self) -> Iterator[Session]:
        """A context manager yielding the raw session with the lock held."""
        with self._lock:
            yield self._session

    @property
    def session(self) -> Session:
        """The wrapped session (access it via :meth:`locked` when other
        threads are active)."""
        return self._session

    def __repr__(self) -> str:
        return f"ThreadSafeSession({self._session!r})"
