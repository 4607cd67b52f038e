"""The two ingest stages every session shares: admission and routing.

A session's ingest path is route → admit → match → emit.  The first two
stages know nothing of engines, so they live here and a
:class:`~repro.api.Session` holds one instance of each:

:class:`RouteIndex`
    Label-triple routing: an exact-triple dict, a
    :class:`~repro.core.labeltrie.PredicateRouter` for ``ANY``/``Prefix``
    labels, the always-routed entries, and one resolved target list per
    route bucket.  :meth:`RouteIndex.targets` answers "which payloads must
    see this edge" — the session's ``(ordinal, query record)`` pairs —
    once per arrival.  Its answer is exact for every exact or predicate
    entry, except for an arrival no probe can hash: that one gets a
    :class:`Candidates` list.

:class:`Admission`
    The stream clock plus one :class:`WindowGroup` — a
    :class:`~repro.graph.shared_window.SharedSlidingWindow`, its
    duplicate-policy rosters and the target lists its buffered arrivals
    hold for their expiry — per distinct window policy.
    :meth:`Admission.admit` judges an arrival against the *stream* (time
    order, in-window duplicate ids) before any window, clock or counter
    moves, then slides every group's window.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import (
    Callable, Deque, Dict, FrozenSet, Hashable, List, Optional, Tuple,
)

from .core.labeltrie import ALWAYS, PredicateRouter
from .graph.edge import StreamEdge
from .graph.shared_window import SharedSlidingWindow, window_policy_from_key
from .graph.window import check_time

_INF = float("inf")

#: ``(registration ordinal, query record)`` — how rosters name a query, so
#: sorting entries restores registration order without ever comparing two
#: records.  The record is the owning session's; this module reads only
#: its ``name``.
Entry = Tuple[int, object]

#: The target list of an edge nothing routes; shared, never mutated.
_NOWHERE: List = []

#: A router token's payload (tokens are ``(payload, name, index)``).
_payload = itemgetter(0)


class Candidates(list):
    """A target list the route index could not decide: an arrival with
    an unhashable label defeats every probe, so the list names every
    routed payload and each engine must run the label test itself.
    Every other list :meth:`RouteIndex.targets` returns holds an exact
    or predicate entry only when the arrival passes that entry's label
    test."""

    __slots__ = ()


class WindowGroup:
    """The queries sharing one window buffer (same window-policy key).

    ``members`` maps each member's entry to its duplicate policy; the
    policies are consulted on the duplicate path only.  ``stateful``
    counts the members that store edges (every plan but the stateless
    one-edge one).  While it is non-zero, ``held`` keeps ``(edge,
    targets)`` for each buffered arrival that had route targets, oldest
    first: the list the arrival was inserted into is the list its expiry
    walks, so an edge is label-matched once however long it stays.
    """

    __slots__ = ("window", "members", "stateful", "held")

    def __init__(self, window: SharedSlidingWindow) -> None:
        self.window = window
        self.members: Dict[Entry, str] = {}
        self.stateful = 0
        self.held: Deque[Tuple[StreamEdge, List[Entry]]] = deque()

    def entries(self, policy: str) -> List[Entry]:
        """The members enrolled under duplicate policy ``policy``."""
        return [entry for entry, held in self.members.items()
                if held == policy]

    def hold(self, edge: StreamEdge, targets: List[Entry]) -> None:
        """Keep a just-buffered arrival's targets for its expiry — when
        there are any and a member may have stored it."""
        if targets and self.stateful:
            self.held.append((edge, targets))


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
    the whole prefix a group's window drops, oldest first, as it drops it
    — while the group holds arrivals for expiry (``group.held``).  A
    group that holds none has nothing to hand down, so its slides make
    no call.
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

    def enroll(self, group: WindowGroup, entry: Entry,
               duplicate_policy: str, stateful: bool = False) -> None:
        """Add a query to ``group`` (what :meth:`open` returned for its
        key); ``stateful`` when its engine stores edges."""
        group.members[entry] = duplicate_policy
        group.stateful += stateful

    def withdraw(self, key: Tuple, entry: Entry,
                 stateful: bool = False) -> None:
        """Remove a query from its group; the last member out frees the
        buffer and what the group held for expiry."""
        group = self.groups[key]
        if group.members.pop(entry, None) is not None:
            group.stateful -= stateful
        if not group.members:
            del self.groups[key]

    def admit(self, edge: StreamEdge,
              targets: List[Entry] = ()) -> Optional[FrozenSet]:
        """Accept one arrival into the stream, or raise having touched
        nothing.

        Returns the keys of the groups for which the arrival is an
        in-window duplicate (``None`` when there are none): those groups'
        windows only advance — time moves, nothing is buffered — and
        their members must not ingest the edge; every other group buffers
        it and holds it with ``targets``, the arrival's route targets
        (see :meth:`WindowGroup.hold`).  A live group with ``raise``
        members rejects the arrival for the whole session, and the error
        names every such member in registration order.
        """
        timestamp = edge.timestamp
        if not self.clock < timestamp < _INF:
            # Judged once for the stream, before any group moves.
            check_time(timestamp, self.clock, self.clock)
        groups = self.groups
        edge_id = edge.edge_id
        live = rejecters = None
        stamped = type(edge) is StreamEdge
        for group in groups.values():
            bearers = group.window._bearers
            if bearers is None:
                if stamped:
                    continue    # past the clock: no id to collide with
                bearers = group.window.bearers
            if edge_id in bearers:
                # Rare: a group still buffers a bearer of this id.
                live, rejecters = self._duplicates(edge_id, timestamp)
                break
        if rejecters:
            names = [record.name for _, record in sorted(rejecters)]
            raise ValueError(
                f"duplicate in-window edge id: {edge_id!r} "
                f"(rejected by {names}; no query ingested it)")
        self.clock = timestamp
        self.edges_pushed += 1
        on_expired = self._on_expired
        for key, group in groups.items():
            if live is None or key not in live:
                expired = group.window.push(edge)
                if targets and group.stateful:  # WindowGroup.hold, inlined
                    group.held.append((edge, targets))
            else:
                expired = group.window.advance(timestamp)
            if expired and group.held and on_expired is not None:
                on_expired(key, expired)
        return frozenset(live) if live is not None else None

    def _duplicates(self, edge_id: Hashable, timestamp: float):
        """``(live, rejecters)``: the keys of the groups an arrival at
        ``timestamp`` is an in-window duplicate for (``None`` if none),
        and those groups' ``raise`` members."""
        live, rejecters = set(), []
        for key, group in self.groups.items():
            if group.window.bearer_live_at(edge_id, timestamp):
                live.add(key)
                rejecters += group.entries("raise")
        return live or None, rejecters

    def advance(self, timestamp: float) -> None:
        """Slide every group's window forward without an arrival."""
        if not self.clock <= timestamp < _INF:
            check_time(timestamp, self.clock)
        self.clock = timestamp
        on_expired = self._on_expired
        for key, group in self.groups.items():
            expired = group.window.advance(timestamp)
            if expired and group.held and on_expired is not None:
                on_expired(key, expired)


class RouteIndex:
    """Which registered payloads must see an edge, by its label triple.

    ``add`` compiles one query's routing signatures (see
    :meth:`repro.core.query.QueryGraph.label_signatures`): exact triples
    land in a dict, predicate atom triples (``ANY``/``Prefix`` labels) in
    a per-position trie router, and an opaque-labelled (``generic``)
    query is routed every arrival.  A query with several exact triples
    files its payload under each; ``targets`` returns each payload once,
    sorted.

    The exact dict and the router decide an exact or predicate entry's
    label test exactly — the same ``==``, prefix text and loop flag
    :meth:`~repro.core.query.QueryGraph.edge_matches` applies — so a
    one-edge query routed there needs no second test.  Always-routed
    entries and a :class:`Candidates` list are only candidates.

    An exact bucket is copy-on-write and kept sorted: ``add``/``remove``
    build a new list, so a list ``targets`` handed out is never mutated
    and a caller may keep it (a window group holds it for the edge's
    expiry).  While no predicate or always-routed entry exists,
    ``targets`` *is* that bucket — one dict probe, nothing resolved.

    Otherwise ``targets`` enumerates the *route buckets* an arrival hits
    — its exact triple, and every one-position ``eq`` value or prefix
    pattern :meth:`~repro.core.labeltrie.PredicateRouter.buckets` reports
    — and answers a lone hit bucket, or no hit at all, with a prebuilt
    list: the bucket's payloads plus the always-routed ones of the
    arrival's loop flag, sorted, built on the bucket's first hit and kept
    in :attr:`resolved`.  Two or more hit buckets, or a hit on a token
    constraining two or three positions, take the union path (the
    router's ``match``, then a sort) and keep nothing.  So
    :attr:`resolved` is bounded by the registered buckets plus two,
    however many distinct labels stream past.

    A change drops exactly the lists it makes stale: those of the buckets
    the entry sits in, and — for an always-routed token — every list of
    its loop flag (a generic entry: every list).  ``add`` works those
    keys out once and keeps them in :attr:`entries` beside the entry's
    exact triples and router tokens, so ``remove`` undoes an entry by
    replaying that record: a few dict edits, with nothing derived again.
    """

    def __init__(self) -> None:
        self.exact: Dict[Tuple, List[Hashable]] = {}
        self.router = PredicateRouter()
        self.always: List[Hashable] = []
        #: name -> (payload, exact triples or ``None`` if always-routed,
        #: router tokens, drops): what ``remove`` undoes.  ``drops`` are
        #: ``(resolved lists, key)`` pairs — ``key`` a route-bucket key,
        #: or :data:`~repro.core.labeltrie.ALWAYS` for all of them.
        self.entries: Dict[str, Tuple[Hashable, Optional[tuple], tuple,
                                      tuple]] = {}
        #: Per loop flag, route-bucket key -> resolved target list: an
        #: exact triple, a router bucket key, or ``None`` for the
        #: arrivals that hit no bucket.
        self.resolved: Dict[bool, Dict[Hashable, List]] = {
            False: {}, True: {}}
        #: Only exact entries: ``targets`` answers from :attr:`exact`.
        self.exact_only = True
        # Entries with a router token or on the always-routed list.
        self._routed = 0

    def add(self, name: str, payload: Hashable, signatures) -> None:
        """Route ``payload`` for the query ``name``; ``signatures`` is
        its ``(exact triples, predicate atom triples, generic)``."""
        exact, predicates, generic = signatures
        resolved = self.resolved
        if generic:
            self.always.append(payload)
            record = (payload, None, (), ((resolved[False], ALWAYS),
                                          (resolved[True], ALWAYS)))
            self._routed += 1
        else:
            exact, tokens, drops = tuple(exact), (), ()
            for triple in exact:
                bucket = self.exact.get(triple, _NOWHERE)
                self.exact[triple] = sorted([*bucket, payload])
                drops += ((resolved[triple[3]], triple),)
            for i, (src_atom, edge_atom, dst_atom, is_loop) \
                    in enumerate(predicates):
                token = (payload, name, i)
                key = self.router.add(token, (src_atom, edge_atom, dst_atom),
                                      is_loop)
                tokens += (token,)
                if key is not None:
                    drops += ((resolved[is_loop], key),)
            record = (payload, exact, tokens, drops)
            if tokens:
                self._routed += 1
        self.entries[name] = record
        self._changed(record)

    def remove(self, name: str) -> None:
        """Unhook every entry of ``name``, replaying what ``add`` kept:
        emptied dict buckets are deleted and the router prunes emptied
        buckets, so register/deregister churn cannot leak index state."""
        record = payload, exact, tokens, _ = self.entries.pop(name)
        if exact is None:
            self.always.remove(payload)
            self._routed -= 1
        else:
            for triple in exact:
                bucket = self.exact[triple].copy()     # copy-on-write
                bucket.remove(payload)
                if bucket:
                    self.exact[triple] = bucket
                else:
                    del self.exact[triple]
            if tokens:
                self._routed -= 1
                for token in tokens:
                    self.router.remove(token)
        self._changed(record)

    def _changed(self, record) -> None:
        """Drop the resolved lists an added or removed entry's record
        names — or every list, once no entry is routed but by the exact
        dict (:attr:`targets` then reads none)."""
        if not self._routed:
            if not self.exact_only:     # the last routed entry left
                self.exact_only = True
                self.resolved[False].clear()
                self.resolved[True].clear()
            return
        self.exact_only = False
        for lists, key in record[3]:
            if key is ALWAYS:
                lists.clear()
            else:
                lists.pop(key, None)

    def resolved_count(self) -> int:
        """Resolved target lists held (at most the buckets + 2)."""
        return sum(map(len, self.resolved.values()))

    def targets(self, edge: StreamEdge) -> List:
        """The payloads that must see ``edge``, each once, sorted: exact
        hits and predicate hits (both decided: the entry's label test
        passed) and the always-routed entries.  An arrival with an
        unhashable label gets :class:`Candidates`, every payload.  The
        returned list is shared (an exact bucket, or a resolved list);
        callers must not mutate it."""
        if self.exact_only:
            try:
                return self.exact.get(
                    (edge.src_label, edge.label, edge.dst_label,
                     edge.src == edge.dst), _NOWHERE)
            except TypeError:
                return self._everyone()
        is_loop = edge.src == edge.dst
        src_label, label, dst_label = \
            edge.src_label, edge.label, edge.dst_label
        triple = (src_label, label, dst_label, is_loop)
        try:
            # Hashing the triple is the hashability check the router's
            # own probes may skip (a label no dict is probed with).
            payloads = self.exact.get(triple)
            hits = self.router.buckets(src_label, label, dst_label, is_loop)
        except TypeError:
            return self._everyone()
        if not hits:
            key = triple if payloads else None
        elif payloads or len(hits) > 1 or hits[0][0] is None:
            return self._union(is_loop, payloads, hits)
        else:
            key, tokens = hits[0]
        lists = self.resolved[is_loop]
        targets = lists.get(key)
        if targets is None:
            found = set(self.always)
            found.update([token[0] for token in self.router.always(is_loop)])
            if hits:
                found.update([token[0] for token in tokens])
            elif payloads:
                found.update(payloads)
            targets = lists[key] = sorted(found)
        return targets

    def _union(self, is_loop: bool, payloads, hits) -> List:
        """An arrival hitting several buckets, or one counted by the
        router: the ``hits`` ``targets`` probed, resolved afresh, nothing
        kept."""
        found = set(self.always)
        if payloads:
            found.update(payloads)
        found.update(map(_payload, self.router.resolve(hits, is_loop)))
        return sorted(found)

    def _everyone(self) -> Candidates:
        # Unhashable data label: no index probe possible — everyone must
        # judge it (mirrors matching_edge_ids' linear fallback).
        return Candidates(sorted({entry[0]
                                  for entry in self.entries.values()}))
