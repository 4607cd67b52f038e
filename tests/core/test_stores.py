"""Independent (Timing-IND) stores: same behaviour, different cost profile."""

import pytest

from repro.core.mstree import MSTreeTCStore
from repro.core.stores import (
    IND_ENTRY_OVERHEAD, GlobalIndependentStore, IndependentTCStore,
)

from ..conftest import make_edge


def sigma(ts):
    return make_edge(f"x{ts}", f"y{ts}", ts)


class TestIndependentTCStore:
    def test_insert_and_read(self):
        store = IndependentTCStore(2)
        s1, s3 = sigma(1), sigma(3)
        h1 = store.insert(1, store.root, (), s1)
        store.insert(2, h1, (s1,), s3)
        assert [flat for _, flat in store.read(1)] == [(s1,)]
        assert [flat for _, flat in store.read(2)] == [(s1, s3)]
        assert store.entry_count() == 2

    def test_flat_lookup(self):
        store = IndependentTCStore(1)
        s1 = sigma(1)
        handle = store.insert(1, store.root, (), s1)
        assert store.flat(handle) == (s1,)

    def test_delete_edge_removes_all_containing_tuples(self):
        store = IndependentTCStore(2)
        s1, s3, s4 = sigma(1), sigma(3), sigma(4)
        h1 = store.insert(1, store.root, (), s1)
        store.insert(2, h1, (s1,), s3)
        h2 = store.insert(1, store.root, (), s4)
        assert store.delete_edge(s1) == 2
        assert store.count(1) == 1
        assert store.count(2) == 0
        assert store.flat(h2) == (s4,)

    def test_delete_cleans_registry_of_other_edges(self):
        store = IndependentTCStore(2)
        s1, s3 = sigma(1), sigma(3)
        h1 = store.insert(1, store.root, (), s1)
        store.insert(2, h1, (s1,), s3)
        store.delete_edge(s1)
        # s3's registry entry must be gone too: deleting s3 removes nothing.
        assert store.delete_edge(s3) == 0

    def test_space_cells_grow_with_tuple_length(self):
        """The Timing vs Timing-IND space gap: an i-length entry costs
        i + overhead cells, against a constant per MS-tree node."""
        store = IndependentTCStore(3)
        s1, s3, s4 = sigma(1), sigma(3), sigma(4)
        h1 = store.insert(1, store.root, (), s1)
        h2 = store.insert(2, h1, (s1,), s3)
        store.insert(3, h2, (s1, s3), s4)
        assert store.space_cells() == (1 + 2 + 3) + 3 * IND_ENTRY_OVERHEAD

    def test_ind_costs_more_space_than_mstree_on_shared_prefixes(self):
        ind = IndependentTCStore(3)
        ms = MSTreeTCStore(3)
        s1, s3 = sigma(1), sigma(3)
        extensions = [sigma(4 + i) for i in range(10)]
        hi = ind.insert(1, ind.root, (), s1)
        hm = ms.insert(1, ms.root, (), s1)
        hi2 = ind.insert(2, hi, (s1,), s3)
        hm2 = ms.insert(2, hm, (s1,), s3)
        for ext in extensions:
            ind.insert(3, hi2, (s1, s3), ext)
            ms.insert(3, hm2, (s1, s3), ext)
        assert ms.space_cells() < ind.space_cells()


class TestGlobalIndependentStore:
    def _setup(self):
        q1 = IndependentTCStore(2)
        q2 = IndependentTCStore(1)
        store = GlobalIndependentStore([q1, q2])
        s1, s3, s5 = sigma(1), sigma(3), sigma(5)
        h1 = q1.insert(1, q1.root, (), s1)
        leaf1 = q1.insert(2, h1, (s1,), s3)
        leaf2 = q2.insert(1, q2.root, (), s5)
        return store, q1, q2, leaf1, leaf2, (s1, s3, s5)

    def test_needs_two_subqueries(self):
        with pytest.raises(ValueError):
            GlobalIndependentStore([IndependentTCStore(1)])

    def test_level1_delegates(self):
        store, _, _, leaf1, _, (s1, s3, _) = self._setup()
        assert store.read(1) == [(leaf1, (s1, s3))]
        assert store.count(1) == 1

    def test_insert_and_level_bounds(self):
        store, _, _, leaf1, leaf2, (s1, s3, s5) = self._setup()
        store.insert(2, leaf1, (s1, s3), leaf2, (s5,))
        assert [flat for _, flat in store.read(2)] == [(s1, s3, s5)]
        with pytest.raises(ValueError):
            store.insert(1, leaf1, (s1, s3), leaf2, (s5,))

    def test_delete_edge_direct(self):
        """Unlike the MS-tree global store, expired edges are deleted here
        directly (flattened tuples contain the edges).  FIFO expiry: the
        entry goes with its oldest edge, σ1; its inner σ3 and σ5 expire
        later and find nothing."""
        store, _, _, leaf1, leaf2, (s1, s3, s5) = self._setup()
        store.insert(2, leaf1, (s1, s3), leaf2, (s5,))
        assert store.delete_edge(s1) == 1
        assert store.count(2) == 0
        assert store.delete_edge(s3) == store.delete_edge(s5) == 0

    def test_entry_registered_under_earliest_sub_match_start(self):
        """A later sub-query's match may be older than the first's: the
        entry's oldest edge is the earliest of its sub-matches' first
        edges, wherever that sits in the flat tuple."""
        q1, q2 = IndependentTCStore(2), IndependentTCStore(1)
        store = GlobalIndependentStore([q1, q2])
        s2, s4, s6 = sigma(2), sigma(4), sigma(6)
        leaf2 = q2.insert(1, q2.root, (), s2)
        h4 = q1.insert(1, q1.root, (), s4)
        leaf1 = q1.insert(2, h4, (s4,), s6)
        store.insert(2, leaf1, (s4, s6), leaf2, (s2,))
        assert store.delete_edge(s2) == 1       # σ2 is the oldest live
        assert store.count(2) == 0
