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
from .graph.shared_window import SharedWindowView
from .ingest import ALWAYS_ROUTED, Admission, RouteIndex, group_key
from .io.csv_stream import read_stream
from .io.dsl import parse_query
from .matcher import (
    DECOMPOSITION_STRATEGIES, DUPLICATE_POLICIES, INDEXING_MODES,
    JOIN_ORDER_STRATEGIES, SHARDING_MODES, STORAGE_KINDS,
    SUBPLAN_SHARING_MODES, TRANSPORT_MODES, EngineConfig, EngineStats,
    Matcher, MatcherBase, as_window,
)
from .subplans import SharedSubplanStore, _SubplanProvider, _SubplanRegistry

__all__ = [
    "BACKENDS", "DECOMPOSITION_STRATEGIES", "DUPLICATE_POLICIES",
    "INDEXING_MODES", "JOIN_ORDER_STRATEGIES", "SHARDING_MODES",
    "STORAGE_KINDS", "SUBPLAN_SHARING_MODES", "TRANSPORT_MODES",
    "EngineConfig", "EngineStats", "MatchCallback", "Matcher",
    "MatcherBase", "Session", "SharedSubplanStore", "ThreadSafeSession",
    "as_window",
]

MatchCallback = Callable[[str, Match], None]

#: Built-in backend names accepted by :meth:`Session.register`.
BACKENDS = ("timing", "sjtree", "incmat", "naive")

_BASELINES = {"sjtree": SJTreeMatcher, "incmat": IncMatMatcher,
              "naive": NaiveSnapshotMatcher}


def _build_matcher(backend, query: QueryGraph, window,
                   config: EngineConfig, options: dict):
    """Instantiate a backend."""
    if callable(backend):
        if options:
            raise ValueError(
                "engine options are not forwarded to factory backends; "
                f"bake them into the factory instead: {sorted(options)}")
        return backend(query, window)
    if backend == "timing":
        return TimingMatcher(query, window, config=config, **options)
    if backend in _BASELINES:
        # The session config contributes its duplicate policy, but an
        # explicit per-query option wins.
        options.setdefault("duplicate_policy", config.duplicate_policy)
        return _BASELINES[backend](query, window, **options)
    raise ValueError(f"unknown backend: {backend!r} "
                     f"(expected one of {BACKENDS} or a factory)")


class _QueryRecord:
    """Everything a session keeps about one registered query — and the
    payload its route index hands back for an arrival, as ``(ordinal,
    record)``, so a target list sorts by a C-level integer comparison,
    reads in registration order and needs no lookup by name.

    ``query``, ``window`` (what the query registered with — one mutable
    policy object cannot back two engines), ``backend``, ``config`` and
    ``options`` are the registration *recipe*, written once at
    ``register``: what ``_install`` builds the engine from and what a
    checkpoint stores in its place.  ``group_key`` names the shared window
    group whose buffer the engine reads, ``None`` for a privately-buffering
    matcher (a factory's engine or a custom window policy).  ``matcher`` is
    cleared at deregistration, so a target list snapshotted earlier skips
    the query; a sharded facade keeps none and names the hosting ``shard``.
    """

    def __init__(self, name: str, ordinal: int, matcher,
                 callback: Optional[MatchCallback], window, *,
                 query: Optional[QueryGraph] = None, backend="timing",
                 config: Optional[EngineConfig] = None,
                 options: Optional[dict] = None) -> None:
        self.name = name
        self.ordinal = ordinal
        self.matcher = matcher
        self.callback = callback
        self.window = window
        self.query = query
        self.backend = backend
        self.config = config
        self.options = options if options is not None else {}
        self.group_key: Optional[Tuple] = None
        self.shard: Optional[int] = None


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
    stream's duplicate view (see :class:`~repro.ingest.Admission`).  A
    factory's engine or a custom window policy cannot join a window
    group: it buffers privately and is an always-routed target of the
    same ingest loop.

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
        Default window for registered queries: a duration, or a zero-arg
        factory returning a fresh, empty window-policy object per query (a
        bare policy object is rejected — engines cannot share one mutable
        window).  Each query may override it at registration.
    config:
        Default :class:`EngineConfig` for ``timing`` backends, and the
        source of the duplicate policy for the built-in backends.  Factory
        backends construct their own engines and must bake such settings
        in themselves.
    duplicate_policy:
        Shorthand for ``config.replace(duplicate_policy=...)``.
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
        # mode — the keyword wins, as in ``__init__``) dispatches to the
        # ShardedSession facade; subclasses are left alone.
        sharding = kwargs.get("sharding")
        if sharding is None:
            sharding = getattr(kwargs.get("config"), "sharding", "none")
        if cls is Session and sharding != "none":
            from .concurrency.sharding import ShardedSession
            return super().__new__(ShardedSession)
        return super().__new__(cls)

    def __init__(self, *, window=None, config: Optional[EngineConfig] = None,
                 duplicate_policy: Optional[str] = None,
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
        if sharding is not None:
            config = config.replace(sharding=sharding)
        if shards is not None:
            config = config.replace(shards=shards)
        if transport is not None:
            config = config.replace(transport=transport)
        self.config = config.validate()
        # name -> record, one per registered query, in registration order.
        self._queries: Dict[str, _QueryRecord] = {}
        self._sinks: List[Tuple[Optional[str], MatchCallback]] = []
        # The two ingest stages (see repro.ingest).  Route payloads and
        # window-group roster entries are (ordinal, record).
        self._admission = Admission(self._on_expired)
        self._index = RouteIndex()
        # How many shared-window members retain edges: while none does (a
        # tenant of one-edge queries), expired edges have nobody to reach.
        self._retaining = 0
        # Refcounted shared sub-plan stores (empty under
        # subplan_sharing="private") — see SharedSubplanStore.
        self._subplans = _SubplanRegistry()
        self._next_ordinal = 0
        #: Engine insertions into window-group members.
        self.routed_pushes = 0
        #: Matcher visits the route index proved unnecessary and skipped.
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

        Raises on duplicate names and on a window-policy object that
        already holds edges.  A query registered mid-stream starts with an
        empty window — it only sees arrivals from now on, which is the
        only sound semantics for a structure that never saw the past.
        """
        query, window = self._resolve_registration(name, query, window)
        record = _QueryRecord(
            name, self._next_ordinal, None, callback, window, query=query,
            backend=backend, options=engine_options,
            config=config if config is not None else self.config)
        self._install(record)
        self._next_ordinal += 1
        return record.matcher

    def _install(self, record: _QueryRecord) -> None:
        """Build ``record``'s engine from its recipe and enroll it — what
        a restore repeats (:mod:`repro.persistence`)."""
        # A built-in backend keeps the window spec it is given, so the
        # spec names its group and the engine is built on the group's
        # view; a factory's engine is judged on the window it built.
        factory = callable(record.backend)
        key = None if factory else group_key(record.window)
        window = record.window if key is None else \
            SharedWindowView(self._admission.open(key).window)
        # Sub-plan sharing needs co-members of one window group (they
        # expire in lock-step, which a shared store's exactly-once expiry
        # relies on) and stores to share: a one-edge query runs the
        # stateless plan and has none.
        provider = _SubplanProvider(self._subplans, key) \
            if key is not None and record.backend == "timing" \
            and record.config.subplan_sharing == "shared" \
            and not record.query.is_single_edge else None
        options = dict(record.options)
        if provider is not None:
            options["subplan_provider"] = provider
        try:
            matcher = _build_matcher(record.backend, record.query, window,
                                     record.config, options)
        except BaseException:
            if provider is not None:
                provider.rollback()     # failed build leaks no refcounts
            if key is not None and not self._admission.groups[key].members:
                del self._admission.groups[key]     # nor an opened group
            raise
        record.matcher = matcher
        if factory and isinstance(matcher, MatcherBase):
            key = group_key(matcher.window)
            if key is not None:
                matcher.window = SharedWindowView(
                    self._admission.open(key).window)
        entry = (record.ordinal, record)
        if key is None:
            # Privately-buffering matcher (a factory's engine off every
            # group, a custom window policy): it sees every arrival.
            self._index.add(record.name, entry, ALWAYS_ROUTED)
            if self.current_time > float("-inf"):
                matcher.advance_time(self.current_time)
        else:
            self._admission.enroll(key, entry, matcher.duplicate_policy)
            record.group_key = key
            self._retaining += not matcher.stateless
            self._index.add(record.name, entry, matcher.routing_signatures())
        self._queries[record.name] = record

    def _resolve_registration(self, name: str, query, window):
        """The ``(query, window)`` a registration will build from: DSL
        text parsed, the window taken from the argument, the DSL
        ``window`` line or the session default (a factory is called for a
        fresh policy object), and validated — shared by both session
        kinds so they accept and reject the same registrations."""
        if name in self._queries:
            raise ValueError(f"query already registered: {name!r}")
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
        if isinstance(window, bool) or not isinstance(window, (int, float)):
            as_window(window)   # TypeError unless a window policy object
            # Same hazard the constructor rejects for the default window:
            # one mutable policy object cannot back two engines.
            for other in self._queries.values():
                if other.window is window:
                    raise ValueError(
                        "window policy object is already used by query "
                        f"{other.name!r}; pass a fresh instance — engines "
                        "cannot share one mutable window")
            if hasattr(window, "__len__") and len(window):
                raise ValueError(
                    f"window policy object for query {name!r} already "
                    f"holds {len(window)} edge(s); pass an empty one — a "
                    "query starts with an empty window")
        return query, window

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
        if record.group_key is not None:
            # The last member out frees the group.
            self._retaining -= not record.matcher.stateless
            self._admission.withdraw(record.group_key,
                                     (record.ordinal, record))
        self._index.remove(name)
        release = getattr(record.matcher, "release_shared_subplans", None)
        if release is not None:
            # Detaches the engine's expiry cascade from shared sub-plan
            # stores and returns the records so their refcounts drop; the
            # last consumer out frees the store.
            for subplan in release():
                self._subplans.release(subplan)
        del self._queries[name]
        record.matcher = None       # target lists snapshotted earlier skip it
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
        ``_expire`` hook of the members that ingested each edge — found
        through the same route lookup that delivered it, so only its
        (typically tiny) target list is visited, not all Q matchers.
        Runs as the window slides, before the displacing arrival is
        inserted."""
        if not self._retaining:
            return
        targets = self._index.targets
        for edge in edges:
            timestamp = edge.timestamp
            for _, record in targets(edge):
                # Watermark-paired delivery: a member ingested a buffered
                # edge exactly when it arrived after the member's view
                # was attached — admission never buffers an in-window
                # duplicate, so one buffer never holds two bearers of an
                # id, and a mid-stream registrant never hears of an edge
                # it never saw.  A stateless member stored nothing.
                matcher = record.matcher
                if record.group_key == group_key and not matcher.stateless \
                        and timestamp > matcher.window.since:
                    matcher._expire(edge)

    def _ingest(self, edges: Iterable[StreamEdge], consume,
                forced: Optional[list] = None) -> None:
        """The one ingest loop — behind :meth:`push_many` / :meth:`ingest`
        and a shard worker's batches: admit → route → insert per arrival.

        Admission judges each arrival against the stream and slides the
        shared windows, handing their expired prefixes to
        :meth:`_on_expired` (see :meth:`repro.ingest.Admission.admit`;
        ``forced[i]`` is arrival ``i``'s shard-worker argument);
        privately-buffering matchers keep their per-matcher duplicate
        peek, folded into the same all-or-nothing rejection.  The route
        index then hands back the records of the matchers that can
        consume the edge, and only those run.  Every match is delivered
        to the sinks as it is found; ``consume(i, pairs)`` then receives
        the ``(name, match)`` pairs of each arrival that completed any,
        ``i`` being the arrival's index in ``edges``.
        """
        admission, index, queries = self._admission, self._index, self._queries
        for i, edge in enumerate(edges):
            offenders: list = []
            for entry in index.always:    # holds every private matcher
                if entry[1].group_key is None:
                    # would_reject is optional: a protocol matcher from a
                    # factory that doesn't implement it keeps its own
                    # duplicate handling.
                    check = getattr(entry[1].matcher, "would_reject", None)
                    if check is not None and check(edge):
                        offenders.append(entry)
            live = admission.admit(
                edge, None if forced is None else forced[i], offenders)
            if live is not None:
                # Dropped like the per-matcher skip path, and counted
                # where the member's policy asks for it.
                for key in live:
                    for _, record in admission.groups[key].entries("count"):
                        record.matcher.stats.edges_skipped += 1
            targets = index.targets(edge)
            # Counted at routing time: a sink callback below may
            # deregister queries, but every target here gets its visit.
            self.skipped_matchers += len(queries) - len(targets)
            results: List[Tuple[str, Match]] = []
            for _, record in targets:
                matcher = record.matcher
                if matcher is None:
                    # A sink callback deregistered this query earlier in
                    # the arrival — the target list is a snapshot.
                    continue
                key = record.group_key
                if key is None:
                    # Privately-buffering matcher: full lock-step push.
                    matches = matcher.push(edge)
                elif live is not None and key in live:
                    continue    # duplicate: dropped for this whole group
                else:
                    self.routed_pushes += 1
                    matches = matcher._insert(edge)
                for match in matches:
                    results.append((record.name, match))
                    self._deliver(record, match)
            if results:
                consume(i, results)

    def _pump(self, edges: Iterable[StreamEdge], consume) -> None:
        """The session-side ingest entry point: each arrival's ``(name,
        match)`` list goes to ``consume``."""
        self._ingest(edges, lambda _, results: consume(results))

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
        edges = read_stream(source, **reader_options)
        if collect:
            return self.push_many(edges)
        return self.ingest(edges)

    def advance_time(self, timestamp: float) -> None:
        """Slide all windows forward without an arrival."""
        self._admission.advance(timestamp)
        for record in self._queries.values():
            if record.group_key is None:
                record.matcher.advance_time(timestamp)

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
            if record.group_key is not None and record.matcher.stateless}
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
        cells = self._subplans.space_cells() + self._stateless_answers()[1]
        for record in self._queries.values():
            matcher = record.matcher
            exclusive = getattr(matcher, "exclusive_space_cells", None)
            cells += (exclusive() if exclusive is not None
                      else matcher.space_cells())
            if record.group_key is None \
                    and getattr(matcher, "stateless", False):
                cells += matcher.result_count()     # its private buffer
        return cells

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

    def window_cells(self) -> int:
        """Total window buffer cells across the session: the shared
        buffers plus every privately-buffering matcher's window."""
        cells = self.shared_window_cells()
        for record in self._queries.values():
            if record.group_key is not None:
                continue
            window = getattr(record.matcher, "window", None)
            try:
                cells += len(window)
            except TypeError:
                pass    # protocol matcher without a sized window
        return cells

    def session_stats(self) -> Dict[str, object]:
        """Session-level ingestion counters (per-matcher engine counters
        stay in :meth:`stats`): accepted arrivals, routing work/savings,
        and window memory."""
        return {
            "queries": len(self._queries),
            "shared_groups": len(self._admission.groups),
            "edges_pushed": self.edges_pushed,
            "routed_pushes": self.routed_pushes,
            "skipped_matchers": self.skipped_matchers,
            "stateless_queries": sum(
                1 for record in self._queries.values()
                if getattr(record.matcher, "stateless", False)),
            "predicate_entries": len(self._index.router),
            "predicate_trie_nodes": self._index.router.node_count(),
            "route_memo_clears": self._index.memo_clears,
            "route_memo_entries": len(self._index.memo),
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
