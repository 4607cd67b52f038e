"""Independent (uncompressed) partial-match storage — the ``Timing-IND``
ablation of §VII-C.

Every partial match is stored as a full, flat tuple of data edges, with no
prefix sharing.  Functionally identical to the MS-tree stores (same engine
interface, same results); the differences the paper measures are

* **space** — a level-``i`` entry costs ``i`` cells instead of one node;
* **maintenance** — inserting copies the whole prefix (O(i) vs O(1)).

Both stores register each entry once, under its *oldest* edge — for a
subquery entry its first edge, for a global entry the earliest of its
sub-matches' first edges — and a FIFO window expires that edge before any
other of the entry's, so deletion pops one registry bucket and is linear
in the number of expired partial matches.  That is the MS-tree's
root-subtree deletion on flat tuples: the comparison isolates the storage
representation, not the expiry algorithm.  ``delete_edge`` is idempotent
(the registry entry is popped on first delivery), which is what lets a
*shared* sub-plan store (see :class:`~repro.api.SharedSubplanStore`) be
expired exactly once however many engines consume it: the first consumer's
``_expire`` does the work, the others' are O(1) no-ops.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from ..graph.edge import StreamEdge
from .index import StoreIndexes

#: Logical cells charged per stored tuple beyond its edges (key + length +
#: registry slot).
IND_ENTRY_OVERHEAD = 3

#: Sentinel handle for "insert at level 1" (no parent entry).
ROOT = object()

_Entry = Tuple[int, int]  # (level, key)

_timestamp = attrgetter("timestamp")


class _FlatLevels:
    """Shared guts: per-level dict of key → flat edge tuple + a registry
    of entries by their oldest edge."""

    def __init__(self, length: int) -> None:
        self.length = length
        self._levels: List[Dict[int, Tuple[StreamEdge, ...]]] = [
            {} for _ in range(length)]
        self._by_oldest: Dict[StreamEdge, List[_Entry]] = {}
        # Join-key indexes registered by the engine (empty when the engine
        # runs in scan mode); maintained on store/delete below.
        self.indexes = StoreIndexes(length)
        # itertools.count is effectively atomic under the GIL; a plain
        # ``+= 1`` would race when two transactions hold X locks on
        # *different* levels of the same store.
        self._next_key = itertools.count()

    def store(self, level: int, edges: Tuple[StreamEdge, ...],
              oldest: StreamEdge) -> _Entry:
        key = next(self._next_key)
        self._levels[level - 1][key] = edges
        entry = (level, key)
        bucket = self._by_oldest.get(oldest)
        if bucket is None:
            self._by_oldest[oldest] = [entry]
        else:
            bucket.append(entry)
        self.indexes.on_insert(level, entry, edges)
        return entry

    def read(self, level: int) -> List[Tuple[_Entry, Tuple[StreamEdge, ...]]]:
        return [((level, key), edges)
                for key, edges in self._levels[level - 1].items()]

    def delete_edge(self, edge: StreamEdge) -> int:
        """Remove every entry containing ``edge``.

        Precondition (FIFO): ``edge`` is the oldest live edge, which every
        window delivers.  An entry holding ``edge`` anywhere but as its
        oldest edge died when that older edge expired, so the entries
        registered under ``edge`` are all that is left to remove.
        """
        entries = self._by_oldest.pop(edge, None)
        if entries is None:
            return 0
        levels, on_remove = self._levels, self.indexes.on_remove
        for entry in entries:
            level, key = entry
            on_remove(level, entry, levels[level - 1].pop(key))
        return len(entries)

    def count(self, level: int) -> int:
        return len(self._levels[level - 1])

    def entry_count(self) -> int:
        return sum(len(level) for level in self._levels)

    def space_cells(self) -> int:
        return sum(len(edges) + IND_ENTRY_OVERHEAD
                   for level in self._levels for edges in level.values())


class IndependentTCStore:
    """Expansion-list storage for one TC-subquery, flat tuples per entry."""

    def __init__(self, length: int) -> None:
        self.length = length
        self._flat = _FlatLevels(length)

    @property
    def root(self):
        return ROOT

    def insert(self, level: int, parent, prefix: Tuple[StreamEdge, ...],
               edge: StreamEdge):
        """Store ``prefix + (edge,)`` as an independent flat tuple.

        ``parent`` (the handle of the prefix entry) is ignored — independent
        storage has no structural sharing; copying the prefix is exactly the
        O(i) maintenance overhead the MS-tree comparison measures.
        """
        flat = prefix + (edge,)
        return self._flat.store(level, flat, flat[0])

    def add_index(self, level: int, refs):
        """Register (or share) a join-key index over ``level`` (see
        :mod:`repro.core.index`); returns the :class:`LevelIndex`."""
        return self._flat.indexes.register(level, refs)

    def remove_index(self, level: int, refs) -> None:
        """Release one :meth:`add_index` claim (refcounted) — called when
        an engine departs a shared sub-plan store so its query-specific
        join shapes stop being maintained here."""
        self._flat.indexes.unregister(level, refs)

    def read(self, level: int):
        return self._flat.read(level)

    def flat(self, handle) -> Tuple[StreamEdge, ...]:
        level, key = handle
        return self._flat._levels[level - 1][key]

    def delete_edge(self, edge: StreamEdge) -> int:
        """Remove every partial match containing ``edge``, the oldest live
        edge (FIFO — see :meth:`_FlatLevels.delete_edge`)."""
        return self._flat.delete_edge(edge)

    def count(self, level: int) -> int:
        return self._flat.count(level)

    def entry_count(self) -> int:
        return self._flat.entry_count()

    def is_empty(self) -> bool:
        """Whether the store holds no partial matches at all — the
        joinability test for shared sub-plan stores (a fresh consumer may
        only adopt a store whose content equals its own empty start)."""
        return self._flat.entry_count() == 0

    def space_cells(self) -> int:
        return self._flat.space_cells()


class GlobalIndependentStore:
    """``L₀`` storage with flat concatenated tuples (Timing-IND).

    Level 1 is virtual exactly as in the MS-tree global store: ``Ω(L₀¹)``
    delegates to the first subquery store.  Unlike the MS-tree variant,
    expired edges must be deleted here explicitly (the engine calls
    :meth:`delete_edge` for every expired edge that was a sub-match's
    first) because there are no dependency links.
    """

    def __init__(self, sub_stores: Sequence[IndependentTCStore]) -> None:
        if len(sub_stores) < 2:
            raise ValueError("global store needs ≥ 2 subqueries")
        self.sub_stores = list(sub_stores)
        self.k = len(sub_stores)
        self._flat = _FlatLevels(self.k)

    def read(self, level: int):
        first = self.sub_stores[0]
        if level == 1:
            return first.read(first.length)
        return self._flat.read(level)

    def insert(self, level: int, parent, prefix: Tuple[StreamEdge, ...],
               sub_handle, sub_flat: Tuple[StreamEdge, ...]):
        """Store the concatenation ``prefix + sub_flat`` as a flat tuple.

        ``parent`` and ``sub_handle`` are ignored (no pointer compression) —
        see :class:`IndependentTCStore.insert` for the rationale.
        """
        if level < 2 or level > self.k:
            raise ValueError(f"global insert level out of range: {level}")
        flat = prefix + sub_flat
        # The earliest of the sub-matches' first edges: the entry's oldest.
        return self._flat.store(level, flat, min(flat, key=_timestamp))

    def add_index(self, level: int, refs):
        """Register a join-key index over global level ``level`` (≥ 2 —
        level 1 is virtual; the engine indexes the first subquery store's
        last level instead)."""
        if level < 2 or level > self.k:
            raise ValueError(f"global index level out of range: {level}")
        return self._flat.indexes.register(level, refs)

    def delete_edge(self, edge: StreamEdge) -> int:
        """Remove every global entry containing ``edge``, the oldest live
        edge (FIFO — see :meth:`_FlatLevels.delete_edge`)."""
        return self._flat.delete_edge(edge)

    def count(self, level: int) -> int:
        if level == 1:
            first = self.sub_stores[0]
            return first.count(first.length)
        return self._flat.count(level)

    def entry_count(self) -> int:
        return self._flat.entry_count()

    def space_cells(self) -> int:
        return self._flat.space_cells()
