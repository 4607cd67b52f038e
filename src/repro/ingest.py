"""The two ingest stages every session shares: admission and routing.

A session's ingest path is admit → route → match → merge → emit.  The
first two stages are identical whether the engines run in the calling
process (:class:`~repro.api.Session`) or on worker shards
(:class:`~repro.concurrency.sharding.ShardedSession`), so they live here
once and both sessions hold one instance of each:

:class:`Admission`
    The stream clock plus one :class:`WindowGroup` — a
    :class:`~repro.graph.shared_window.SharedSlidingWindow` and its
    duplicate-policy rosters — per distinct window policy.
    :meth:`Admission.admit` judges an arrival against the *stream* (time
    order, in-window duplicate ids) before any window, clock or counter
    moves, then slides every group's window.

:class:`RouteIndex`
    Label-triple routing: an exact-triple dict, a
    :class:`~repro.core.labeltrie.PredicateRouter` for ``ANY``/``Prefix``
    labels, the always-routed entries, and the one memo of resolved
    target lists.  :meth:`RouteIndex.targets` answers "which payloads must
    see this edge" — ``(ordinal, query record)`` pairs for an unsharded
    session, shard indexes for the sharded facade.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from .core.labeltrie import PredicateRouter
from .graph.edge import StreamEdge
from .graph.shared_window import (
    SharedSlidingWindow, window_policy_from_key, window_policy_key,
)

#: ``(registration ordinal, query record)`` — how rosters name a query, so
#: sorting entries restores registration order without ever comparing two
#: records.  The record is the owning session's; this module reads only
#: its ``name``.
Entry = Tuple[int, object]

#: The :meth:`RouteIndex.add` signature of an entry that must see every
#: arrival (privately-buffering matchers, count-window shards).
ALWAYS_ROUTED = ((), (), True)


def group_key(window) -> Optional[Tuple]:
    """The window group a window spec enrolls under, or ``None`` when it
    cannot share a session buffer.

    One function owns this judgement for the sub-plan eligibility
    pre-check (which sees the raw spec: a duration or a policy object),
    shared-window enrollment (which sees the engine's coerced policy
    object) and the sharded facade — they must agree, because shared
    sub-plan stores rely on their consumers expiring in lock-step within
    one window group.  A number becomes a fresh time window of that
    duration; a policy object is shareable only while empty and of an
    exactly shareable type (see
    :func:`~repro.graph.shared_window.window_policy_key`).
    """
    if isinstance(window, bool):
        return None
    if isinstance(window, (int, float)):
        return ("time", float(window))
    key = window_policy_key(window)
    if key is None or len(window) != 0:
        return None
    return key


class WindowGroup:
    """The queries sharing one window buffer (same window-policy key).

    ``members`` maps each member's entry to its duplicate policy; the
    policies are consulted on the duplicate path only.
    """

    __slots__ = ("window", "members")

    def __init__(self, window: SharedSlidingWindow) -> None:
        self.window = window
        self.members: Dict[Entry, str] = {}

    def entries(self, policy: str) -> List[Entry]:
        """The members enrolled under duplicate policy ``policy``."""
        return [entry for entry, held in self.members.items()
                if held == policy]


class Admission:
    """Stream admission: the clock, the window groups, duplicate judgement.

    Duplicate-id handling is *stream-level*: an arrival whose id has a
    live bearer in a group's buffer is a duplicate for every member of
    that group — one O(1) bearer probe per window policy instead of a
    per-matcher history check.  For queries registered before the bearer
    arrived this is exactly what per-matcher windows would decide; a
    query registered mid-stream inherits the stream's view instead of
    treating a replayed id as fresh merely because it missed the
    original.

    ``on_expired(group_key, edges)`` receives, once per group and slide,
    the whole prefix a group's window drops, oldest first, as it drops it;
    a session whose engines live elsewhere (the sharded facade) passes
    none.
    """

    def __init__(self, on_expired: Optional[
            Callable[[Tuple, List[StreamEdge]], None]] = None) -> None:
        self.groups: Dict[Tuple, WindowGroup] = {}
        #: The latest accepted timestamp.
        self.clock = float("-inf")
        #: Arrivals accepted so far.
        self.edges_pushed = 0
        self._on_expired = on_expired

    def open(self, key: Tuple) -> WindowGroup:
        """The group for ``key``, created — at the current clock, over a
        fresh policy built from the key — when there is none yet."""
        group = self.groups.get(key)
        if group is None:
            window = SharedSlidingWindow(window_policy_from_key(key))
            if self.clock > float("-inf"):
                window.advance(self.clock)
            group = self.groups[key] = WindowGroup(window)
        return group

    def enroll(self, key: Tuple, entry: Entry,
               duplicate_policy: str) -> WindowGroup:
        """Add a query to the group for ``key``, opening it when it is
        the first member."""
        group = self.open(key)
        group.members[entry] = duplicate_policy
        return group

    def withdraw(self, key: Tuple, entry: Entry) -> None:
        """Remove a query from its group; the last member out frees the
        buffer."""
        group = self.groups[key]
        group.members.pop(entry, None)
        if not group.members:
            del self.groups[key]

    def admit(self, edge: StreamEdge, forced=None,
              offenders=()) -> Optional[FrozenSet]:
        """Accept one arrival into the stream, or raise having touched
        nothing.

        Returns the keys of the groups for which the arrival is an
        in-window duplicate (``None`` when there are none): those groups'
        windows only advance — time moves, nothing is buffered — and
        their members must not ingest the edge; every other group buffers
        it.  A live group with ``raise`` members rejects the arrival for
        the whole session; ``offenders`` lets the caller add the entries
        of matchers outside any group that would reject it too, so one
        error names every rejecter.

        ``forced`` is the shard-worker entry point: group keys the
        sharded facade already judged live for this id.  A shard's
        buffers only hold the arrivals routed to it — a strict subset of
        the stream — so its own probe can miss a bearer the full stream
        would have seen; the forced keys close exactly that gap (a
        locally-live bearer is always facade-live too, never the
        reverse).
        """
        timestamp = edge.timestamp
        if timestamp <= self.clock:
            raise ValueError(
                "stream timestamps must strictly increase: "
                f"{timestamp} <= {self.clock}")
        groups = self.groups
        edge_id = edge.edge_id
        live = None
        for key, group in groups.items():
            if group.window.bearer_live_at(edge_id, timestamp) \
                    or (forced is not None and key in forced):
                if live is None:
                    live = set()
                live.add(key)
                offenders = [*offenders, *group.entries("raise")]
        if offenders:
            names = [record.name for _, record in sorted(offenders)]
            raise ValueError(
                f"duplicate in-window edge id: {edge_id!r} "
                f"(rejected by {names}; no query ingested it)")
        self.clock = timestamp
        self.edges_pushed += 1
        on_expired = self._on_expired
        for key, group in groups.items():
            if live is not None and key in live:
                expired = group.window.advance(timestamp)
            else:
                expired = group.window.push(edge)
            if expired and on_expired is not None:
                on_expired(key, expired)
        return frozenset(live) if live is not None else None

    def advance(self, timestamp: float) -> None:
        """Slide every group's window forward without an arrival."""
        if timestamp < self.clock:
            raise ValueError("time moves backwards")
        self.clock = timestamp
        on_expired = self._on_expired
        for key, group in self.groups.items():
            expired = group.window.advance(timestamp)
            if expired and on_expired is not None:
                on_expired(key, expired)


class RouteIndex:
    """Which registered payloads must see an edge, by its label triple.

    ``add`` compiles one query's routing signatures (see
    :meth:`repro.core.query.QueryGraph.label_signatures`): exact triples
    land in a dict, predicate atom triples (``ANY``/``Prefix`` labels) in
    a per-position trie router, and an opaque-labelled (``generic``)
    query — or anything added as :data:`ALWAYS_ROUTED` — is routed every
    arrival.  Several names may share a payload (the queries of one
    shard); ``targets`` returns each payload once, sorted.

    Resolved target lists are memoised per label triple (type-exact, as
    prefix predicates are).  Only triples
    with an index hit get their own entry; every miss shares one
    ``None``-keyed list, so a high-cardinality label stream cannot grow
    the memo past the index itself — and because prefix predicates make
    the set of *hitting* triples unbounded too, the memo self-clears at
    :attr:`CACHE_CAP`.  Any ``add``/``remove`` clears it;
    :attr:`memo_clears` counts these wholesale clears.
    """

    #: Memoised target lists before a wholesale clear.
    CACHE_CAP = 8192

    def __init__(self) -> None:
        self.exact: Dict[Tuple, List[Hashable]] = {}
        self.router = PredicateRouter()
        self.always: List[Hashable] = []
        # name -> (payload, exact triples or None if always-routed,
        # predicate token count); drives removal.
        self.entries: Dict[str, Tuple[Hashable, Optional[tuple], int]] = {}
        self.memo: Dict = {}
        self.memo_clears = 0

    def add(self, name: str, payload: Hashable, signatures) -> None:
        """Route ``payload`` for the query ``name``; ``signatures`` is
        its ``(exact triples, predicate atom triples, generic)``."""
        exact, predicates, generic = signatures
        if generic:
            self.always.append(payload)
            self.entries[name] = (payload, None, 0)
        else:
            exact = tuple(exact)
            for triple in exact:
                self.exact.setdefault(triple, []).append(payload)
            for i, (src_atom, edge_atom, dst_atom, is_loop) \
                    in enumerate(predicates):
                self.router.add((payload, name, i),
                                (src_atom, edge_atom, dst_atom), is_loop)
            self.entries[name] = (payload, exact, len(predicates))
        self.memo.clear()
        self.memo_clears += 1

    def remove(self, name: str) -> None:
        """Unhook every entry of ``name``: emptied dict buckets are
        deleted and the router prunes emptied trie nodes, so
        register/deregister churn cannot leak index state."""
        payload, exact, predicate_count = self.entries.pop(name)
        if exact is None:
            self.always.remove(payload)
        else:
            for triple in exact:
                bucket = self.exact[triple]
                bucket.remove(payload)
                if not bucket:
                    del self.exact[triple]
            for i in range(predicate_count):
                self.router.remove((payload, name, i))
        self.memo.clear()
        self.memo_clears += 1

    def targets(self, edge: StreamEdge) -> List:
        """The payloads that must see ``edge``, each once, sorted: exact
        hits, predicate hits (a candidate set — engines re-verify) and
        the always-routed entries.  The returned list is the memo's own;
        callers must not mutate it."""
        cache = self.memo
        is_loop = edge.src == edge.dst
        src_label, label, dst_label = \
            edge.src_label, edge.label, edge.dst_label
        try:
            # The memo key carries each label's type: prefix predicates
            # tell ``1`` from ``True`` and ``1.0`` (see
            # :func:`~repro.core.query.prefix_text`), which compare — and
            # hash — equal, so a value-only key would hand one's targets
            # to the other.  (Exact triples match by ``==`` in the
            # engines too, so their dict keeps the value-only key.)
            key = (src_label, label, dst_label, is_loop,
                   type(src_label), type(label), type(dst_label))
            cached = cache.get(key)
            if cached is not None:
                return cached
            hits = self.exact.get((src_label, label, dst_label, is_loop))
            router = self.router
            predicate_hits = router.match(
                src_label, label, dst_label, is_loop) \
                if router else None
        except TypeError:
            # Unhashable data label: no index probe possible — everyone
            # must judge it (mirrors matching_edge_ids' linear fallback).
            return sorted({entry[0] for entry in self.entries.values()})
        if not hits and not predicate_hits:
            targets = cache.get(None)
            if targets is None:
                targets = cache[None] = sorted(set(self.always))
            return targets
        found = set(self.always)
        if hits:
            found.update(hits)
        if predicate_hits:
            found.update([token[0] for token in predicate_hits])
        if len(cache) >= self.CACHE_CAP:
            cache.clear()
            self.memo_clears += 1
        targets = cache[key] = sorted(found)
        return targets
