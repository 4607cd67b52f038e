"""The Timing engine: continuous time-constrained subgraph search.

This is the paper's proposed method ("Timing" in §VII): expansion lists over
a TC decomposition, incremental insertion (Algorithm 1), expiry-driven
deletion (Algorithm 2), MS-tree or independent storage, cost-model-guided
decomposition and joint-number join ordering.

The engine is storage-agnostic (MS-tree vs independent flat tuples — the
``Timing`` vs ``Timing-IND`` comparison) and guard-agnostic (locked vs
traced — see :mod:`repro.core.guard`; a serial call passes no guard and
brackets nothing), so the exact same algorithm code runs in every
experimental configuration.

Two plan kinds, chosen from the query's shape alone:

* **stored** (two or more query edges) — the expansion lists above.  What
  an arrival matched is decided once, at insertion: the engine remembers
  the sub-queries whose *first* edge it matched — where it roots partial
  matches — and expiry pops that record instead of matching labels a
  second time.  Timestamps strictly increase and windows expire oldest
  first, so a partial match dies with its root, its oldest edge: an edge
  stored only below roots, like one that matched nothing, expires as one
  dict miss (Algorithm 3 line 12).
* **stateless** (exactly one query edge) — the limiting case of the
  discardable-edge Lemma 1: no later arrival can ever join a one-edge
  match, so its expansion list would be a filtered copy of the window.
  The engine keeps no store at all: an arrival that matches the query
  edge *is* the match, expiry has nothing to delete, and the current
  answer set is re-derived from the window on request.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..graph.edge import StreamEdge
from ..matcher import EngineConfig, EngineStats, MatcherBase
from .decomposition import (
    Decomposition, greedy_decomposition, random_decomposition,
    validate_decomposition,
)
from .index import (
    LevelIndex, compile_edge_key, compile_flat_key, extension_probe_flags,
    extension_store_refs, union_side_refs,
)
from .join import ExtensionSpec, UnionSpec
from .join_order import jn_join_order, random_join_order
from .matches import Match
from .mstree import GlobalMSTreeStore, subquery_store
from .query import EdgeId, QueryGraph
from .stores import GlobalIndependentStore, IndependentTCStore
from .tc import tc_subqueries

#: ``since`` of a window that held nothing before its matcher joined it.
_NEVER = float("-inf")
#: A match is built as ``_new_match(Match)`` plus its two slots, with no
#: ``Match.__init__`` frame (see :class:`~repro.core.matches.Match`).
_new_match = Match.__new__

__all__ = ["EngineConfig", "EngineStats", "TimingMatcher"]


def timing_reach(query: QueryGraph, ordered: Decomposition) -> Tuple[int, ...]:
    """Per sub-query ``Qⁱ`` of the join order, the deepest global level an
    arrival completing it can extend ``L₀`` to.

    The arrival is the newest edge in the window and completes ``Qⁱ`` at
    its last query edge ``ε``.  A join whose stored side holds a slot
    ``ε'`` with ``ε ≺ ε'`` would need that slot's edge to be newer than
    the arrival, so no stored entry passes it: the join is timing-dead,
    and so is the cascade behind it.  For ``Qⁱ`` (1-based ``i``) the joins
    are ``∆(Qⁱ) ⋈ Ω(L₀ⁱ⁻¹)`` (building level ``i``; none for ``Q¹``) and
    then ``∆(L₀ˡ⁻¹) ⋈ Ω(Qˡ)`` for ``l = i+1 … k``; the entry is one less
    than the level of the first dead join, ``k`` when none is dead.
    """
    k = len(ordered)
    precedes = query.timing.precedes
    reach = []
    for si, seq in enumerate(ordered):
        last = seq[-1]
        prefix = [slot for sub in ordered[:si] for slot in sub]   # Q¹: none
        if any(precedes(last, slot) for slot in prefix):
            reach.append(si)
            continue
        level = si + 1
        while level < k and not any(precedes(last, slot)
                                    for slot in ordered[level]):
            level += 1
        reach.append(level)
    return tuple(reach)


class TimingMatcher(MatcherBase):
    """Continuous matcher for one time-constrained query over one stream.

    Parameters
    ----------
    query:
        The query graph (validated on construction).
    window:
        Sliding-window duration ``|W|``, a
        :class:`~repro.graph.window.SlidingWindow` or a
        :class:`~repro.graph.count_window.CountSlidingWindow` (see
        :func:`repro.matcher.as_window`).
    config:
        An :class:`~repro.matcher.EngineConfig` holding every engine knob
        (see :meth:`from_config` for one-off field overrides).
    decomposition / join_order:
        Explicit plan overrides (e.g. from :mod:`repro.core.estimate`);
        when given they bypass the config's strategy fields.
    subplan_provider:
        Session-internal: a :class:`~repro.subplans._SubplanProvider` offering
        shared expansion-list stores for canonically equal TC-subqueries.
        When given, each planned subquery adopts the provider's
        (refcounted) store instead of a private one; the insert path then
        consults the store's per-arrival delta memo so shared stores are
        written once per arrival session-wide.  Standalone engines never
        see one.

    A one-edge query gets the *stateless* plan (:attr:`stateless`): no
    store, no index, no sub-plan record, ``space_cells() == 0``.

    Usage::

        matcher = TimingMatcher.from_config(query, window=30.0)
        for edge in stream:
            for match in matcher.push(edge):
                ...  # a newly completed time-constrained match
    """

    name = "Timing"

    def __init__(
        self,
        query: QueryGraph,
        window: float,
        *,
        config: Optional[EngineConfig] = None,
        decomposition: Optional[Decomposition] = None,
        join_order: Optional[Decomposition] = None,
        subplan_provider=None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        self.config = config.validate()
        self.use_mstree = config.storage == "mstree"
        self._init_streaming(query, window,
                             duplicate_policy=config.duplicate_policy)
        #: ``True`` for a one-edge query: the engine retains no edges, so a
        #: session never delivers it an expiry (see the module docstring's
        #: plan kinds).
        self.stateless = query.is_single_edge
        #: Match-once registry: id of every live edge some store holds as
        #: a root -> the sub-query indexes whose first query edge it
        #: matched, written at insertion and popped at expiry (edge ids
        #: are the stream's identity, exactly as in the window's bearer
        #: index; labels never key it).  Only roots: a partial match
        #: dies with its oldest edge, its root, so an edge stored only
        #: below roots has nothing of its own to delete.  Kept beside
        #: the window's bearer index rather than inside it: that index
        #: holds every buffered id, matched or not, while
        #: ``insert_edge`` / ``delete_edge`` are also driven bare (a
        #: session's ingest loop, the concurrent executor, the
        #: lock-trace collectors), where this engine's window never
        #: slides.
        self._touched: Dict[object, Tuple[int, ...]] = {}

        # --- storage ----------------------------------------------------- #
        self._shared_subplans: Dict[int, object] = {}
        self._tc_stores: list = []
        self._global = None
        #: ``(store, level, refs)`` of every join-key index this engine
        #: registered on a *shared* sub-plan store — released (refcounted)
        #: by :meth:`release_shared_subplans` so a departed query's
        #: shapes stop being maintained on stores that outlive it.
        self._shared_index_refs: List[Tuple[object, int, tuple]] = []
        if self.stateless and decomposition is None and join_order is None:
            # The one plan there is, set directly: nothing to plan, store,
            # share or index.
            (eid,) = query.edge_ids()
            #: TC-subqueries in join order; each entry is a timing sequence.
            self.join_order: Decomposition = [(eid,)]
            self.k = 1
            #: Flattened slot order of complete matches (global list level k).
            self.all_slots: Tuple[EdgeId, ...] = (eid,)
            # The step of each query edge: edge id -> (subquery index,
            # 0-based position in that subquery's timing sequence, whether
            # that position is the sequence's last).
            self._steps: Dict[EdgeId, Tuple[int, int, bool]] = \
                {eid: (0, 0, True)}
            return
        self.join_order = self._plan(query, config, decomposition, join_order)
        ordered = self.join_order
        self.k = len(ordered)
        self.all_slots = tuple(eid for seq in ordered for eid in seq)
        self._steps = {
            eid: (si, j, j == len(seq) - 1)
            for si, seq in enumerate(ordered) for j, eid in enumerate(seq)}
        if self.stateless:
            return      # an explicit one-edge plan: still nothing to store
        #: The query's compiled label probe (``QueryGraph._label_probe``):
        #: an arrival -> the query edges it matches, often a shared tuple.
        self._match = query._label_probe()
        # With a session sub-plan provider, each subquery first tries to
        # adopt the shared store of its canonical form; private stores are
        # the fallback (unhashable labels) and the standalone default.
        for si, seq in enumerate(ordered):
            record = None
            if subplan_provider is not None:
                record = subplan_provider.acquire(query, seq, config.storage)
            if record is not None:
                self._shared_subplans[si] = record
                self._tc_stores.append(record.store)
            elif self.use_mstree:
                self._tc_stores.append(subquery_store(len(seq)))
            else:
                self._tc_stores.append(IndependentTCStore(len(seq)))
        # The rest of construction attaches expiry observers and indexes
        # to stores other engines may share — undo those on any failure
        # so a raising build leaks nothing into the session.
        try:
            self._finish_construction(query, config, ordered)
        except BaseException:
            self.release_shared_subplans()
            raise

    def _plan(self, query: QueryGraph, config: EngineConfig,
              decomposition: Optional[Decomposition],
              join_order: Optional[Decomposition]) -> Decomposition:
        """The TC decomposition in join order.  (``config.validate()``
        guarantees the strategy fields.)"""
        rng = random.Random(config.seed)
        if decomposition is None:
            subs = tc_subqueries(query)
            if config.decomposition == "greedy":
                decomposition = greedy_decomposition(query, subs)
            else:
                decomposition = random_decomposition(query, rng, subs)
        validate_decomposition(query, decomposition)
        if join_order is not None:
            # Explicit order (e.g. from repro.core.estimate): must permute
            # the decomposition and stay prefix-connected.
            from .join_order import is_prefix_connected_order
            if sorted(map(sorted, join_order)) != \
                    sorted(map(sorted, decomposition)):
                raise ValueError(
                    "join_order must be a permutation of the decomposition")
            if not is_prefix_connected_order(query, join_order):
                raise ValueError("join_order must be prefix-connected")
            return list(join_order)
        if config.join_order == "jn":
            return jn_join_order(query, decomposition)
        return random_join_order(query, decomposition, rng)

    def _finish_construction(self, query: QueryGraph, config: EngineConfig,
                             ordered: Decomposition) -> None:
        stores = self._tc_stores
        if self.k > 1:
            self._global = (GlobalMSTreeStore(stores) if self.use_mstree
                            else GlobalIndependentStore(stores))

        # --- compiled join specs ------------------------------------------
        # Extension specs for level-(j+1) insertions in subquery si.
        self._ext_specs: Dict[Tuple[int, int], ExtensionSpec] = {}
        for si, seq in enumerate(ordered):
            for j in range(1, len(seq)):
                self._ext_specs[(si, j)] = ExtensionSpec(
                    query, seq[:j], seq[j])
        # Union specs for global level l in [2, k]: prefix vs subquery l.
        self._union_specs: Dict[int, UnionSpec] = {}
        prefix: List[EdgeId] = list(ordered[0])
        for level in range(2, self.k + 1):
            self._union_specs[level] = UnionSpec(
                query, tuple(prefix), ordered[level - 1])
            prefix.extend(ordered[level - 1])
        self._reach = timing_reach(query, ordered)

        # --- join-key indexes (the O(candidates) insert path) ------------- #
        # One index per compiled join shape with at least one equality
        # constraint, registered on the store level the shape reads.  A
        # shape without equality constraints keeps the full scan (a single
        # all-entries bucket would be the scan with extra bookkeeping),
        # counted in ``stats.scan_fallbacks``.
        self._ext_indexes: Dict[Tuple[int, int], LevelIndex] = {}
        self._union_prefix_indexes: Dict[int, LevelIndex] = {}
        self._union_omega_indexes: Dict[int, LevelIndex] = {}
        for (si, j), spec in self._ext_specs.items():
            if spec.equal_refs:
                refs = extension_store_refs(spec)
                self._ext_indexes[(si, j)] = \
                    self._add_store_index(si, j, refs)
        for level, spec in self._union_specs.items():
            if not spec.equal_pairs:
                continue
            a_refs = union_side_refs(spec, "a")
            b_refs = union_side_refs(spec, "b")
            # Prefix side Ω(L₀^{level-1}): global level (level-1), whose
            # level 1 is virtual and lives in the first subquery store.
            if self._reach[level - 1] < level:
                pass    # only ∆(Q^level) probes it, and it cannot pass
            elif level - 1 == 1:
                first = self._tc_stores[0]
                self._union_prefix_indexes[level - 1] = \
                    self._add_store_index(0, first.length, a_refs)
            else:
                self._union_prefix_indexes[level - 1] = \
                    self._global.add_index(level - 1, a_refs)
            # Ω(Q^level) side: subquery (level-1)'s complete matches.
            omega = self._tc_stores[level - 1]
            self._union_omega_indexes[level] = self._add_store_index(
                level - 1, omega.length, b_refs)
        # The probing side's key of every indexed join shape, as a
        # generated function (see :func:`~repro.core.index.compile_flat_key`).
        self._ext_probe_keys = {
            at: compile_edge_key(extension_probe_flags(self._ext_specs[at]))
            for at in self._ext_indexes}
        self._union_a_keys = {}
        self._union_b_keys = {}
        for level in self._union_omega_indexes:
            spec = self._union_specs[level]
            self._union_a_keys[level] = compile_flat_key(
                union_side_refs(spec, "a"))
            self._union_b_keys[level] = compile_flat_key(
                union_side_refs(spec, "b"))

    def _add_store_index(self, si: int, level: int, refs: tuple):
        """Register a join-key index on subquery store ``si``, remembering
        the claim when the store is shared so deregistration can release
        it (see :meth:`release_shared_subplans`)."""
        index = self._tc_stores[si].add_index(level, refs)
        if si in self._shared_subplans:
            self._shared_index_refs.append(
                (self._tc_stores[si], level, refs))
        return index

    @classmethod
    def from_config(cls, query: QueryGraph, window,
                    config: Optional[EngineConfig] = None,
                    **overrides) -> "TimingMatcher":
        """Build an engine from an :class:`~repro.matcher.EngineConfig`.

        ``overrides`` are config-field replacements, so one-off variations
        read naturally::

            TimingMatcher.from_config(q, 30.0, storage="independent")
        """
        config = config if config is not None else EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        return cls(query, window, config=config)

    # ------------------------------------------------------------------ #
    # Public streaming API — push/push_many/advance_time come from
    # MatcherBase; the hooks are Algorithms 1 and 2 themselves (aliases,
    # defined below them).
    # ------------------------------------------------------------------ #
    def current_matches(self) -> List[Match]:
        """All matches of the query in the current window (``Ω(Q)``)."""
        if self.stateless:
            return self._as_matches(self._window_matches())
        store = self._global if self._global is not None else self._tc_stores[0]
        level = self.k if self._global is not None else self._tc_stores[0].length
        return [self._to_match(flat) for _, flat in store.read(level)]

    def result_count(self) -> int:
        """Number of current matches (selectivity metric, Fig. 25)."""
        if self.stateless:
            return len(self._window_matches())
        store = self._global if self._global is not None else self._tc_stores[0]
        level = self.k if self._global is not None else self._tc_stores[0].length
        return store.count(level)

    def _window_matches(self) -> List[StreamEdge]:
        """The stateless plan's answer set, re-derived: the in-window
        edges this engine was offered that match its one query edge.  A
        private window holds exactly the arrivals the engine ingested; a
        session's shared buffer also holds arrivals from before the engine
        joined it, which ``window.since`` excludes (a query registered
        mid-stream starts empty)."""
        is_answer = self._is_answer
        return [edge for edge in self.window if is_answer(edge)]

    def _as_matches(self, edges: List[StreamEdge]) -> List[Match]:
        """Stateless plan: answer edges as matches of the one query edge."""
        slot = self.all_slots[0]
        matches = []
        for edge in edges:
            match = _new_match(Match)
            match.edge_map = {slot: edge}
            match._key = None
            matches.append(match)
        return matches

    def _is_answer(self, edge: StreamEdge) -> bool:
        """Stateless plan: whether in-window ``edge`` is a current match.
        A :class:`~repro.api.Session` asks this of the few members its
        route index names per window edge, so a tenant of Q one-edge
        queries is read in one window pass instead of Q."""
        return edge.timestamp > getattr(self.window, "since", _NEVER) \
            and self.query.edge_matches(self.all_slots[0], edge)

    def space_cells(self) -> int:
        """Logical cells held in partial-match storage (see bench.metrics).

        This is the per-query *logical* footprint — shared sub-plan stores
        are included, exactly as if this engine kept them privately, so
        the paper's space experiments read the same whatever the sharing
        mode.  The physical, de-duplicated figure is the session's
        :meth:`~repro.api.Session.space_cells`, built from
        :meth:`exclusive_space_cells` plus each shared store once.
        """
        cells = sum(store.space_cells() for store in self._tc_stores)
        if self._global is not None:
            cells += self._global.space_cells()
        return cells

    def exclusive_space_cells(self) -> int:
        """Cells in storage only this engine holds: the private subquery
        stores and the global expansion list, excluding shared sub-plan
        stores (those are accounted once at the session level)."""
        cells = sum(store.space_cells()
                    for si, store in enumerate(self._tc_stores)
                    if si not in self._shared_subplans)
        if self._global is not None:
            cells += self._global.space_cells()
        return cells

    def release_shared_subplans(self) -> List[object]:
        """Detach this engine from its shared sub-plan stores.

        Unhooks the global MS-tree's expiry cascade from the shared stores
        (they live on for the other consumers; a dangling observer would
        cascade into this dead tree forever), releases the join-key
        indexes this engine registered on them (refcounted — the
        query-specific union shapes would otherwise be maintained on every
        insert and expiry for the store's whole lifetime), and hands the
        records back to the caller — the :class:`~repro.api.Session` — so
        their refcounts drop.  Idempotent: the engine forgets the records.
        """
        if not self._shared_subplans:
            return []       # nothing shared (a stateless plan never is)
        for store, level, refs in self._shared_index_refs:
            store.remove_index(level, refs)
        self._shared_index_refs = []
        records = list(self._shared_subplans.values())
        if records and self.use_mstree and self._global is not None:
            for record in records:
                record.store.remove_leaf_observer(
                    self._global._sub_leaf_removed)
        self._shared_subplans = {}
        return records

    # ------------------------------------------------------------------ #
    # Insertion — Algorithm 1
    # ------------------------------------------------------------------ #
    def insert_edge(self, edge: StreamEdge, guard=None) -> List[Match]:
        """Handle ``Ins(σ)``: extend expansion lists, report new matches.

        ``guard`` brackets every expansion-list item access with §V's
        acquire/release (see :mod:`repro.core.guard`); ``None`` — every
        serial caller — means no guard: no item is named, nothing is
        called."""
        stats = self.stats
        stats.edges_seen += 1
        if self.stateless:
            slot = self.all_slots[0]
            if not self.query.edge_matches(slot, edge):
                return []
            stats.edges_matched += 1
            stats.matches_emitted += 1
            match = _new_match(Match)
            match.edge_map = {slot: edge}
            match._key = None
            return [match]
        matched = self._match(edge)
        if not matched:
            return []
        steps = self._steps
        results: List[Match] = []
        produced_anything = False
        roots: Tuple[int, ...] = ()
        for eid in matched:
            si, j, is_last = steps[eid]
            if j == 0:
                roots += (si,)
            delta = self._insert_into_subquery(si, j, edge, guard)
            if delta:
                produced_anything = True
                if is_last:
                    results.extend(self._propagate(si, delta, guard))
        if roots:
            # Decided once, here: expiry pops this instead of re-matching
            # (sorted: a guarded delete locks in canonical order).
            self._touched[edge.edge_id] = \
                roots if len(roots) == 1 else tuple(sorted(roots))
        stats.edges_matched += 1
        if not produced_anything:
            stats.edges_discarded += 1
        stats.matches_emitted += len(results)
        return results

    def _insert_into_subquery(self, si: int, j: int, edge: StreamEdge,
                              guard) -> List[Tuple[object, Tuple[StreamEdge, ...]]]:
        """Lines 1–10 of Algorithm 1 for one matched query edge.

        When subquery ``si`` is backed by a shared sub-plan store with a
        second consumer, the arrival's *first* consumer (session-wide)
        computes the delta and memoises it on the record; every later
        consumer replays the memo — an O(1) hit that keeps the shared
        store written exactly once per arrival however many queries
        contain the sub-plan.  A record with one consumer and no memo
        left is neither probed nor written: nobody else would read it.
        """
        record = self._shared_subplans.get(si)
        if record is not None:
            if record.consumers < 2 and record._delta_key is None:
                record = None
            else:
                cached = record.lookup(edge, j)
                if cached is not None:
                    self.stats.subplan_reuses += 1
                    return cached
        store = self._tc_stores[si]
        if j == 0:
            if guard is not None:
                guard.acquire(("L", si, 1), "X")
            handle = store.insert(1, getattr(store, "root", None), (), edge)
            if guard is not None:
                guard.release(("L", si, 1), cost=1)
            self.stats.partial_matches_created += 1
            delta = [(handle, (edge,))]
            if record is not None:
                record.remember(edge, j, delta)
            return delta
        index = self._ext_indexes.get((si, j))
        if guard is not None:
            guard.acquire(("L", si, j), "S")
        if index is not None:
            candidates = index.probe(self._ext_probe_keys[(si, j)](edge))
            self.stats.index_probes += 1
        else:
            candidates = store.read(j)
            self.stats.scan_fallbacks += 1
        if guard is not None:
            guard.release(("L", si, j), cost=len(candidates))
        self.stats.join_operations += 1
        check = self._ext_specs[(si, j)].check
        joined = []
        for handle, flat in candidates:
            if check(flat, edge):
                joined.append((handle, flat))
        delta = []
        if joined:
            if guard is not None:
                guard.acquire(("L", si, j + 1), "X")
            for handle, flat in joined:
                new_handle = store.insert(j + 1, handle, flat, edge)
                delta.append((new_handle, flat + (edge,)))
            if guard is not None:
                guard.release(("L", si, j + 1), cost=len(delta))
            self.stats.partial_matches_created += len(delta)
        if record is not None:
            # An empty delta is memoised too: the other consumers skip
            # even the candidate probe.
            record.remember(edge, j, delta)
        return delta

    def _propagate(self, si: int, delta, guard) -> List[Match]:
        """Lines 11–24 of Algorithm 1: fold a completed TC-subquery match
        into the global expansion list and cascade to deeper levels."""
        if self.k == 1:
            return [self._to_match(flat) for _, flat in delta]
        level = si + 1  # 1-based global level of subquery si
        # Joins past ``reach`` are timing-dead for this arrival: they are
        # neither probed nor locked (see timing_reach).
        reach = self._reach[si]
        if si == 0:
            current = list(delta)
        elif reach == level - 1:
            return []
        else:
            current = self._join_into_global(si, delta, guard)
        while level < reach and current:
            next_si = level  # 0-based index of the next subquery
            current = self._join_with_next_subquery(
                current, level, next_si, guard)
            level += 1
        if level == self.k:
            return [self._to_match(flat) for _, flat in current]
        return []

    def _join_into_global(self, prefix_level: int, delta, guard):
        """``∆(Qⁱ) ⋈ᵀ Ω(L₀^{i-1})`` (Algorithm 1 lines 15–17)."""
        spec = self._union_specs[prefix_level + 1]
        index = self._union_prefix_indexes.get(prefix_level)
        if guard is not None:
            item = (("L0", prefix_level) if prefix_level >= 2
                    else ("L", 0, self._tc_stores[0].length))
            guard.acquire(item, "S")
        if index is not None:
            b_key = self._union_b_keys[prefix_level + 1]
            check = spec.check
            touched = 0
            pairs = []
            for lh, lflat in delta:
                candidates = index.probe(b_key(lflat))
                touched += len(candidates)
                for gh, gflat in candidates:
                    if check(gflat, lflat):
                        pairs.append((gh, gflat, lh, lflat))
            self.stats.index_probes += 1
        else:
            prefix_entries = self._global.read(prefix_level)
            touched = len(prefix_entries)
            pairs = [(gh, gflat, lh, lflat)
                     for gh, gflat in prefix_entries
                     for lh, lflat in delta
                     if spec.check(gflat, lflat)]
            self.stats.scan_fallbacks += 1
        if guard is not None:
            guard.release(item, cost=touched)
        self.stats.join_operations += 1
        if not pairs:
            return []
        if guard is not None:
            guard.acquire(("L0", prefix_level + 1), "X")
        created = []
        for gh, gflat, lh, lflat in pairs:
            handle = self._global.insert(prefix_level + 1, gh, gflat, lh, lflat)
            created.append((handle, gflat + lflat))
        if guard is not None:
            guard.release(("L0", prefix_level + 1), cost=len(created))
        self.stats.partial_matches_created += len(created)
        return created

    def _join_with_next_subquery(self, current, level: int, next_si: int,
                                 guard):
        """``∆(L₀ⁱ) ⋈ᵀ Ω(Qⁱ⁺¹)`` (Algorithm 1 lines 18–22)."""
        store = self._tc_stores[next_si]
        spec = self._union_specs[level + 1]
        index = self._union_omega_indexes.get(level + 1)
        if guard is not None:
            guard.acquire(("L", next_si, store.length), "S")
        if index is not None:
            a_key = self._union_a_keys[level + 1]
            check = spec.check
            touched = 0
            pairs = []
            for gh, gflat in current:
                candidates = index.probe(a_key(gflat))
                touched += len(candidates)
                for lh, lflat in candidates:
                    if check(gflat, lflat):
                        pairs.append((gh, gflat, lh, lflat))
            self.stats.index_probes += 1
        else:
            omega = store.read(store.length)
            touched = len(omega)
            pairs = [(gh, gflat, lh, lflat)
                     for gh, gflat in current
                     for lh, lflat in omega
                     if spec.check(gflat, lflat)]
            self.stats.scan_fallbacks += 1
        if guard is not None:
            guard.release(("L", next_si, store.length), cost=touched)
        self.stats.join_operations += 1
        if not pairs:
            return []
        if guard is not None:
            guard.acquire(("L0", level + 1), "X")
        created = []
        for gh, gflat, lh, lflat in pairs:
            handle = self._global.insert(level + 1, gh, gflat, lh, lflat)
            created.append((handle, gflat + lflat))
        if guard is not None:
            guard.release(("L0", level + 1), cost=len(created))
        self.stats.partial_matches_created += len(created)
        return created

    def _to_match(self, flat: Tuple[StreamEdge, ...]) -> Match:
        match = _new_match(Match)
        match.edge_map = dict(zip(self.all_slots, flat))
        match._key = None
        return match

    def is_discardable(self, edge: StreamEdge) -> bool:
        """Lemma 1's discardability test, as a side-effect-free probe.

        ``True`` means pushing ``edge`` right now would store nothing: for
        every query edge it matches, the prerequisite subquery has no
        partial match the edge can extend, so no future arrival can ever
        complete a match through it.  (Edges matching no query edge at all
        are trivially discardable.)  Where the join has a key only the
        arriving edge's join-key bucket is inspected; a join without one
        pays the paper's ``O(|Lᵢ₋₁|)`` scan (Theorem 3).  Side-effect-free
        including the stats counters.

        Overrides the label-level default of
        :meth:`repro.matcher.MatcherBase.is_discardable` with this stronger
        state-dependent test.  A multi-query :class:`~repro.api.Session`
        applies the label-level case wholesale: its shared-routing index
        never even visits an engine for an arrival that is trivially
        discardable for it.
        """
        if self.stateless:
            return not self.query.edge_matches(self.all_slots[0], edge)
        for eid in self._match(edge):
            si, j, _ = self._steps[eid]
            if j == 0:
                return False  # σ alone is a match of Preq(ε₁)
            spec = self._ext_specs[(si, j)]
            index = self._ext_indexes.get((si, j))
            if index is not None:
                candidates = index.probe(self._ext_probe_keys[(si, j)](edge))
            else:
                candidates = self._tc_stores[si].read(j)
            if any(spec.check(flat, edge) for _, flat in candidates):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Deletion — Algorithm 2
    # ------------------------------------------------------------------ #
    def delete_edge(self, edge: StreamEdge, guard=None) -> int:
        """Handle ``Del(σ)``: drop every partial match containing ``σ``.

        Returns the number of partial matches removed.  Precondition
        (FIFO): ``σ`` is the oldest live edge this engine stores, which
        every window delivers — so every live partial match containing
        ``σ`` has ``σ`` as its root, and only the sub-queries whose first
        query edge ``σ`` matched can hold one (Algorithm 2 line 1).  Any
        other edge is skipped without touching a store (Algorithm 3 line
        12) — and without matching labels again: what ``σ`` matched was
        recorded by :meth:`insert_edge`, so ``Del(σ)`` must follow (the
        end of) ``Ins(σ)``, as it does in every serial caller and in
        :class:`~repro.concurrency.executor.ConcurrentStreamExecutor`.
        The stateless plan stored nothing.
        """
        self.stats.expired_edges += 1
        touched = self._touched.pop(edge.edge_id, None)
        if touched is None:
            return 0
        # Deletion locks every item it may touch up-front, in canonical
        # order.  This is slightly more conservative than the paper's
        # level-by-level scan but deadlock-free by construction (inserts
        # hold one lock at a time; deletes acquire in a global total order)
        # and the MS-tree cross-tree cascade then always runs under the L₀
        # locks it mutates.  Without a guard there is nothing to lock.
        items = ()
        if guard is not None:
            items = [("L", si, level)
                     for si in touched
                     for level in range(1, self._tc_stores[si].length + 1)]
            if self._global is not None:
                items += [("L0", level) for level in range(2, self.k + 1)]
        for item in items:
            guard.acquire(item, "X")
        removed = 0
        try:
            for si in touched:
                removed += self._tc_stores[si].delete_edge(edge)
            # The MS-tree's M₀ died through the cascade above; only the
            # independent global store registers entries by edge.
            if self._global is not None and not self.use_mstree:
                removed += self._global.delete_edge(edge)
        finally:
            for item in reversed(items):
                guard.release(item, cost=0)
        self.stats.expired_partials += removed
        return removed

    # The MatcherBase hooks, unguarded: every arrival reaches Algorithms
    # 1 and 2 with no forwarding frame.
    _insert = insert_edge
    _expire = delete_edge

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def store_profile(self) -> Dict[str, int]:
        """Per-item entry counts — handy when debugging space behaviour.
        The stateless plan has no items and reports ``{"stateless": 1}``."""
        if self.stateless:
            return {"stateless": 1}
        profile: Dict[str, int] = {}
        for si, store in enumerate(self._tc_stores):
            for level in range(1, store.length + 1):
                profile[f"L{si + 1}^{level}"] = store.count(level)
        if self._global is not None:
            for level in range(2, self.k + 1):
                profile[f"L0^{level}"] = self._global.count(level)
        return profile

    def __repr__(self) -> str:
        kind = ("stateless" if self.stateless
                else "MS-tree" if self.use_mstree else "independent")
        extent = self.window.duration or self.window.capacity
        return (f"TimingMatcher(k={self.k}, storage={kind}, |W|={extent})")
