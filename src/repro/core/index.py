"""Join-key hash indexes over expansion-list levels.

Theorem 3 prices every matched query edge at ``O(|Lᵢ₋₁|)``: each arrival
scans the whole previous expansion-list item and filters it with the
compiled compatibility check.  But the equality constraints of those checks
(shared query vertices — :attr:`ExtensionSpec.equal_refs
<repro.core.join.ExtensionSpec.equal_refs>` /
:attr:`UnionSpec.equal_pairs <repro.core.join.UnionSpec.equal_pairs>`) are
known *statically per join shape*, so the stored side can be bucketed by its
join-key values once at insertion time and the arrival side probes exactly
one bucket — the delta-join trick of incremental view maintenance.  The scan
becomes ``O(candidates)``; the residual check (timing, injectivity,
edge-disjointness) runs only on candidates and keeps the reported match
multiset identical to the scan (matches completed by the same arrival may
surface in a different order).

Three layers cooperate:

* :class:`LevelIndex` — one hash index over one expansion-list item for one
  join shape: ``key → bucket of live (handle, flat-edges) entries``;
* :class:`StoreIndexes` — the per-store collection, called by the storage
  backends on every insert and expiry-driven removal (including the
  MS-tree's cross-tree dependency cascade);
* the key-derivation helpers (:func:`extension_store_refs`,
  :func:`extension_probe_flags`, :func:`union_side_refs`) — turn a compiled
  spec's equality constraints into refs for the stored and probing sides —
  and :func:`compile_flat_key` / :func:`compile_edge_key`, which turn refs
  into a generated key function once per shape (:func:`key_from_flat` /
  :func:`key_from_edge` are the interpreted reference the tests compare
  them with; nothing on a hot path calls those).

The engine owns registration (it knows the compiled shapes); the stores own
maintenance (they know entry lifetimes).  A shape with *no* equality
constraint gets no index — a single all-entries bucket would just be the
scan with extra bookkeeping — and the engine counts it as a scan fallback
in ``stats``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, List, Sequence, Tuple

from ..graph.edge import StreamEdge

# A positional reference to one endpoint of one stored slot: (pos, is_src).
# Identical layout to repro.core.join's _EndpointRef.
EndpointRef = Tuple[int, bool]


def key_from_flat(refs: Sequence[EndpointRef],
                  flat: Sequence[StreamEdge]) -> Tuple[Hashable, ...]:
    """Join-key of a stored flat edge tuple under ``refs``."""
    return tuple(flat[pos].src if is_src else flat[pos].dst
                 for pos, is_src in refs)


def key_from_edge(flags: Sequence[bool],
                  edge: StreamEdge) -> Tuple[Hashable, ...]:
    """Join-key of a single arriving edge under is-src ``flags``."""
    return tuple(edge.src if is_src else edge.dst for is_src in flags)


@lru_cache(maxsize=1024)    # shapes repeat across queries; an eval is ~50 µs
def compile_flat_key(refs: Tuple[EndpointRef, ...]):
    """:func:`key_from_flat` for one fixed ``refs``, as a generated
    ``lambda f: (f[0].src, f[1].dst,)`` — a join shape is fixed when its
    index is built, so nothing walks the refs per arrival.  The source is
    built from positions and endpoint names only."""
    return eval("lambda f: (" + "".join(
        f"f[{pos:d}].{'src' if is_src else 'dst'}, "
        for pos, is_src in refs) + ")")


@lru_cache(maxsize=16)      # at most two endpoints: a handful of shapes
def compile_edge_key(flags: Tuple[bool, ...]):
    """:func:`key_from_edge` for one fixed ``flags``, generated likewise."""
    return eval("lambda e: (" + "".join(
        f"e.{'src' if is_src else 'dst'}, " for is_src in flags) + ")")


def extension_store_refs(spec) -> Tuple[EndpointRef, ...]:
    """Stored-prefix key refs of an :class:`~repro.core.join.ExtensionSpec`."""
    return tuple(ref for _, ref in spec.equal_refs)


def extension_probe_flags(spec) -> Tuple[bool, ...]:
    """Arriving-edge is-src flags of an ``ExtensionSpec`` (probe side)."""
    return tuple(is_src for is_src, _ in spec.equal_refs)


def union_side_refs(spec, side: str) -> Tuple[EndpointRef, ...]:
    """One side's key refs of a :class:`~repro.core.join.UnionSpec`.

    ``side`` is ``"a"`` (the global-prefix slot group) or ``"b"`` (the
    TC-subquery slot group).  Both sides' refs list the same shared query
    vertices in the same order, so a key built from one side's refs probes
    an index built from the other side's.
    """
    if side == "a":
        return tuple(ref_a for ref_a, _ in spec.equal_pairs)
    if side == "b":
        return tuple(ref_b for _, ref_b in spec.equal_pairs)
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


class LevelIndex:
    """Hash index over one expansion-list item for one join shape.

    Buckets map a join-key tuple to the live entries bearing it, as an
    insertion-ordered ``handle → flat`` dict (handles are store entry
    handles: MS-tree nodes, one-edge ``(edge,)`` tuples or ``(level, key)``
    tuples; all hashable).
    ``newest_first`` mirrors the owning store's read order so the indexed
    engine emits matches in the same order as the scanning one.
    """

    __slots__ = ("refs", "newest_first", "_buckets", "_key")

    def __init__(self, refs: Sequence[EndpointRef], *,
                 newest_first: bool = False) -> None:
        self.refs: Tuple[EndpointRef, ...] = tuple(refs)
        self.newest_first = newest_first
        self._buckets: Dict[Tuple[Hashable, ...],
                            Dict[object, Tuple[StreamEdge, ...]]] = {}
        self._key = compile_flat_key(self.refs)

    def add(self, handle, flat: Tuple[StreamEdge, ...]) -> None:
        """Index a newly stored entry under its join-key."""
        key = self._key(flat)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {handle: flat}
        else:
            bucket[handle] = flat

    def discard(self, handle, flat: Tuple[StreamEdge, ...]) -> None:
        """Drop a removed entry from its bucket (no-op if absent)."""
        key = self._key(flat)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.pop(handle, None)
        if not bucket:
            del self._buckets[key]

    def probe(self, key: Tuple[Hashable, ...]
              ) -> List[Tuple[object, Tuple[StreamEdge, ...]]]:
        """Live ``(handle, flat)`` entries whose join-key equals ``key``."""
        bucket = self._buckets.get(key)
        if not bucket:
            return []
        entries = list(bucket.items())
        if self.newest_first:
            entries.reverse()
        return entries

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def bucket_count(self) -> int:
        """Number of distinct live join-key values."""
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LevelIndex(refs={self.refs!r}, "
                f"{self.bucket_count} buckets, {len(self)} entries)")


class StoreIndexes:
    """The per-store :class:`LevelIndex` collection.

    Stores call :meth:`on_insert` / :meth:`on_remove` for every entry
    lifecycle event (or walk :meth:`at`'s list themselves); the engine
    calls :meth:`register` once per compiled join shape at construction.
    Registration is idempotent per ``(level, refs)`` so shapes sharing a
    key (e.g. the insert path and the discardability probe) share one
    physical index — with a refcount, so that an engine departing a
    *shared* sub-plan store can :meth:`unregister` its query-specific
    shapes without tearing down an index a co-consumer still probes.
    """

    __slots__ = ("_by_level", "_registry", "_refcounts", "newest_first")

    def __init__(self, length: int, *, newest_first: bool = False) -> None:
        self._by_level: List[List[LevelIndex]] = [[] for _ in range(length)]
        self._registry: Dict[Tuple[int, Tuple[EndpointRef, ...]],
                             LevelIndex] = {}
        self._refcounts: Dict[Tuple[int, Tuple[EndpointRef, ...]], int] = {}
        self.newest_first = newest_first

    def register(self, level: int,
                 refs: Sequence[EndpointRef]) -> LevelIndex:
        """Claim (creating on first use) the index for ``(level, refs)``;
        idempotent per shape, refcounted for :meth:`unregister`."""
        refs = tuple(refs)
        if not refs:
            raise ValueError(
                "refusing to register a keyless index: an all-entries "
                "bucket is just the scan with extra bookkeeping")
        key = (level, refs)
        index = self._registry.get(key)
        if index is None:
            index = LevelIndex(refs, newest_first=self.newest_first)
            self._registry[key] = index
            self._by_level[level - 1].append(index)
        self._refcounts[key] = self._refcounts.get(key, 0) + 1
        return index

    def unregister(self, level: int, refs: Sequence[EndpointRef]) -> None:
        """Release one :meth:`register` call's claim on ``(level, refs)``.

        The physical index is dropped — and its maintenance cost with
        it — only when the last registrant releases; a departing engine
        therefore never breaks a co-consumer probing the same shape.
        """
        key = (level, tuple(refs))
        count = self._refcounts.get(key)
        if count is None:
            raise KeyError(f"index was never registered: {key!r}")
        if count > 1:
            self._refcounts[key] = count - 1
            return
        del self._refcounts[key]
        index = self._registry.pop(key)
        self._by_level[level - 1].remove(index)

    def at(self, level: int) -> List[LevelIndex]:
        """The indexes on the 1-based ``level``: the live list, which
        :meth:`register` / :meth:`unregister` mutate in place, so a store
        may keep it and walk it on every insert and removal."""
        return self._by_level[level - 1]

    def on_insert(self, level: int, handle,
                  flat: Tuple[StreamEdge, ...]) -> None:
        """Store hook: mirror a new entry into the level's indexes."""
        for index in self._by_level[level - 1]:
            index.add(handle, flat)

    def on_remove(self, level: int, handle,
                  flat: Tuple[StreamEdge, ...]) -> None:
        """Store hook: drop a removed entry from the level's indexes."""
        for index in self._by_level[level - 1]:
            index.discard(handle, flat)

    def index_count(self) -> int:
        """Number of physical indexes currently registered."""
        return len(self._registry)
