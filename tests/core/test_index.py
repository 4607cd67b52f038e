"""Unit tests for the join-key index subsystem (:mod:`repro.core.index`)."""

import pytest

from repro import QueryGraph, TimingMatcher
from repro.core.index import (
    LevelIndex, StoreIndexes, extension_probe_flags, extension_store_refs,
    key_from_edge, key_from_flat, union_side_refs,
)
from repro.core.join import ExtensionSpec, UnionSpec
from repro.core.mstree import MSTreeTCStore
from repro.core.stores import IndependentTCStore

from ..conftest import all_scan, make_edge


class TestLevelIndex:
    def test_add_probe_discard(self):
        index = LevelIndex([(0, True)])       # key = slot 0's src
        e1 = make_edge("x1", "y1", 1)
        e2 = make_edge("x1", "y2", 2)
        e3 = make_edge("x2", "y1", 3)
        index.add("h1", (e1,))
        index.add("h2", (e2,))
        index.add("h3", (e3,))
        assert len(index) == 3
        assert index.bucket_count == 2
        assert {h for h, _ in index.probe(("x1",))} == {"h1", "h2"}
        assert index.probe(("zz",)) == []
        index.discard("h1", (e1,))
        assert {h for h, _ in index.probe(("x1",))} == {"h2"}
        index.discard("h2", (e2,))
        assert index.probe(("x1",)) == []
        assert index.bucket_count == 1        # empty buckets are dropped

    def test_discard_is_idempotent(self):
        index = LevelIndex([(0, False)])
        edge = make_edge("x1", "y1", 1)
        index.add("h", (edge,))
        index.discard("h", (edge,))
        index.discard("h", (edge,))           # no KeyError
        assert len(index) == 0

    def test_newest_first_probe_order(self):
        index = LevelIndex([(0, True)], newest_first=True)
        edges = [make_edge("x", f"y{i}", i + 1) for i in range(3)]
        for i, edge in enumerate(edges):
            index.add(f"h{i}", (edge,))
        assert [h for h, _ in index.probe(("x",))] == ["h2", "h1", "h0"]


class TestStoreIndexes:
    def test_registration_is_shared_per_shape(self):
        indexes = StoreIndexes(3)
        a = indexes.register(2, [(0, True)])
        b = indexes.register(2, [(0, True)])
        c = indexes.register(2, [(0, False)])
        assert a is b and a is not c
        assert indexes.index_count() == 2

    def test_keyless_registration_rejected(self):
        indexes = StoreIndexes(2)
        with pytest.raises(ValueError):
            indexes.register(1, [])

    def test_lifecycle_fanout(self):
        indexes = StoreIndexes(2)
        by_src = indexes.register(1, [(0, True)])
        by_dst = indexes.register(1, [(0, False)])
        edge = make_edge("u", "v", 1)
        indexes.on_insert(1, "h", (edge,))
        assert len(by_src) == len(by_dst) == 1
        indexes.on_remove(1, "h", (edge,))
        assert len(by_src) == len(by_dst) == 0


class TestKeyDerivation:
    @pytest.fixture()
    def query(self):
        q = QueryGraph()
        q.add_vertex("a", "A")
        q.add_vertex("b", "B")
        q.add_vertex("c", "A")
        q.add_edge(1, "a", "b")
        q.add_edge(2, "b", "c")
        q.add_timing_chain(1, 2)
        return q

    def test_extension_refs_match_probe_flags(self, query):
        spec = ExtensionSpec(query, (1,), 2)
        refs = extension_store_refs(spec)
        flags = extension_probe_flags(spec)
        # Shared vertex b: dst of slot 0, src of the new edge.
        assert refs == ((0, False),)
        assert flags == (True,)
        stored = make_edge("u", "shared", 1)
        arriving = make_edge("shared", "w", 2)
        assert (key_from_flat(refs, (stored,))
                == key_from_edge(flags, arriving) == ("shared",))

    def test_union_sides_agree_on_shared_vertices(self, query):
        spec = UnionSpec(query, (1,), (2,))
        a_refs = union_side_refs(spec, "a")
        b_refs = union_side_refs(spec, "b")
        assert len(a_refs) == len(b_refs) == len(spec.equal_pairs)
        left = (make_edge("u", "shared", 1),)
        right = (make_edge("shared", "w", 2),)
        assert key_from_flat(a_refs, left) == key_from_flat(b_refs, right)
        with pytest.raises(ValueError):
            union_side_refs(spec, "c")


class TestStoreMaintenance:
    """Indexes registered on real stores stay consistent through expiry."""

    @pytest.mark.parametrize("store_cls",
                             [IndependentTCStore, MSTreeTCStore])
    def test_insert_and_delete_edge_maintain_index(self, store_cls):
        store = store_cls(2)
        index = store.add_index(1, [(0, True)])
        s1 = make_edge("u", "v", 1)
        s2 = make_edge("u", "w", 2)
        h1 = store.insert(1, store.root, (), s1)
        store.insert(1, store.root, (), s2)
        store.insert(2, h1, (s1,), s2)
        assert {flat for _, flat in index.probe(("u",))} == {(s1,), (s2,)}
        store.delete_edge(s1)
        # s1's level-1 entry and the level-2 entry containing it die; the
        # index only tracks level 1, where s2's entry survives.
        assert {flat for _, flat in index.probe(("u",))} == {(s2,)}
        store.delete_edge(s2)
        assert index.probe(("u",)) == []
        assert len(index) == 0

    def test_mstree_cascade_reaches_deeper_levels(self):
        store = MSTreeTCStore(2)
        deep = store.add_index(2, [(1, False)])
        s1 = make_edge("u", "v", 1)
        s2 = make_edge("v", "w", 2)
        h1 = store.insert(1, store.root, (), s1)
        store.insert(2, h1, (s1,), s2)
        assert [flat for _, flat in deep.probe(("w",))] == [(s1, s2)]
        # Deleting the *root* edge removes the level-2 descendant through
        # the subtree cascade, which must clean the level-2 index too.
        store.delete_edge(s1)
        assert deep.probe(("w",)) == []
        assert len(deep) == 0


class TestEngineJoinIndexes:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_every_engine_indexes_its_keyed_joins(self, storage):
        """Join-key indexes are not a mode: every engine registers one
        per join with an equality key, and the all-scan reference is an
        engine with its index maps emptied."""
        q = QueryGraph()
        q.add_vertex("a", "A")
        q.add_vertex("b", "B")
        q.add_vertex("c", "A")
        q.add_edge(1, "a", "b")
        q.add_edge(2, "b", "c")
        hashed = TimingMatcher.from_config(q, 10.0, storage=storage)
        assert (hashed._ext_indexes or hashed._union_prefix_indexes
                or hashed._union_omega_indexes)
        scan = all_scan(TimingMatcher.from_config(q, 10.0, storage=storage))
        assert not scan._ext_indexes
        assert not scan._union_prefix_indexes
        assert not scan._union_omega_indexes

    def test_stats_expose_strategy_split(self):
        q = QueryGraph()
        q.add_vertex("a", "A")
        q.add_vertex("b", "B")
        q.add_vertex("c", "A")
        q.add_edge(1, "a", "b")
        q.add_edge(2, "b", "c")
        q.add_timing_chain(1, 2)
        engine = TimingMatcher.from_config(q, 10.0)
        engine.push(make_edge("u", "v", 1.0,
                              label_of=lambda x: {"u": "A", "v": "B"}[x]))
        engine.push(make_edge("v", "w", 2.0,
                              label_of=lambda x: {"v": "B", "w": "A"}[x]))
        stats = engine.stats.as_dict()
        assert "index_probes" in stats and "scan_fallbacks" in stats
        assert stats["index_probes"] > 0
