"""Cross-query sub-plan sharing: refcounted expansion-list stores.

Timing engines registered on the same shared window group of a
:class:`~repro.api.Session` whose plans contain the same canonical
TC-subquery maintain *identical* expansion lists.  This module holds the
three pieces that let them keep one copy: the shared record
(:class:`SharedSubplanStore`), the session's refcounted cache of records
(:class:`_SubplanRegistry`) and the construction-time handle an engine
acquires them through (:class:`_SubplanProvider`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core.decomposition import SubplanSignature, subplan_signature
from .core.mstree import subquery_store
from .core.query import QueryGraph
from .core.stores import IndependentTCStore
from .graph.edge import StreamEdge


class SharedSubplanStore:
    """One canonical TC-subquery's expansion-list store, session-shared.

    Two registered queries containing the same sub-plan — identical
    :func:`~repro.core.decomposition.subplan_signature`, same window group,
    same storage kind — maintain *identical* expansion lists, so a
    :class:`~repro.api.Session` hands both engines this one record instead
    of letting each keep a private copy.  The record owns the physical
    store (an :class:`~repro.core.mstree.MSTreeTCStore`, a
    :class:`~repro.core.mstree.OneEdgeTCStore` or an
    :class:`~repro.core.stores.IndependentTCStore`) and a per-arrival delta
    memo: the first consuming engine to process an arrival performs the
    insertion and remembers the per-position deltas; every later consumer
    replays them as an O(1) cache hit, so the store is written exactly once
    per arrival regardless of fan-in.  The memo is kept only while a second
    consumer exists to read it: a lone consumer neither probes nor writes
    it (consumers change between arrivals — a joiner adopts only an empty
    store — or, when a sink callback deregisters one mid-arrival, the memo
    already written for that arrival is still read before
    :meth:`remember` drops it).  Expiry is exactly-once by idempotence
    (``delete_edge`` pops the registry on first delivery).

    ``consumers`` is the refcount maintained by
    :meth:`Session.register <repro.api.Session.register>` /
    :meth:`Session.deregister <repro.api.Session.deregister>`; the session
    frees the record when the last consumer leaves.  Join-key indexes are
    shared automatically: canonically equal sub-plans compile identical
    key refs, and index registration is idempotent per ``(level, refs)``.
    """

    __slots__ = ("key", "signature", "length", "storage", "store",
                 "consumers", "reuses", "_delta_key", "_deltas")

    def __init__(self, key: Tuple, signature: SubplanSignature,
                 storage: str) -> None:
        self.key = key
        self.signature = signature
        self.length = len(signature)
        self.storage = storage
        if storage == "mstree":
            self.store = subquery_store(self.length)
        else:
            self.store = IndependentTCStore(self.length)
        #: Number of registered engines currently consuming this store.
        self.consumers = 0
        #: Per-position insertions served from the delta memo instead of
        #: being recomputed (the work sharing saves, in join units).
        self.reuses = 0
        #: The arrival the memo holds deltas of, ``None`` when it holds
        #: none.
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
        """Memoise a computed delta for the current arrival — or, with no
        second consumer left to read it, drop the memo.  Stream
        timestamps strictly increase, so ``(edge_id, timestamp)`` uniquely
        names the arrival and a stale memo can never be mistaken for a
        later one."""
        if self.consumers < 2:
            self._delta_key = None
            self._deltas = {}
            return
        key = (edge.edge_id, edge.timestamp)
        if self._delta_key != key:
            self._delta_key = key
            self._deltas = {}
        self._deltas[position] = delta

    def space_cells(self) -> int:
        """The shared store's physical partial-match cells."""
        return self.store.space_cells()

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
                signature: SubplanSignature) -> SharedSubplanStore:
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
    """Construction-time handle a :class:`~repro.api.Session` passes to a
    Timing engine: the engine calls :meth:`acquire` once per planned
    TC-subquery and adopts the returned record's store.  Tracks
    acquisitions so a failed construction can roll its refcounts back."""

    __slots__ = ("_registry", "_group_key", "acquired")

    def __init__(self, registry: _SubplanRegistry, group_key: Tuple) -> None:
        self._registry = registry
        self._group_key = group_key
        self.acquired: List[SharedSubplanStore] = []

    def acquire(self, query: QueryGraph, sequence,
                storage: str) -> Optional[SharedSubplanStore]:
        """The shared record for one planned TC-subquery, or ``None``
        when its signature is uncacheable (unhashable labels)."""
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
