"""MS-tree structure and stores (paper §IV, Figs. 10–11)."""

import pytest

from repro.core.mstree import (
    MS_NODE_CELLS, GlobalMSTreeStore, MSTree, MSTreeTCStore,
)

from ..conftest import make_edge


def sigma(ts, src="x", dst="y"):
    return make_edge(f"{src}{ts}", f"{dst}{ts}", ts)


class TestMSTree:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            MSTree(0)

    def test_insert_builds_paths(self):
        tree = MSTree(3)
        n1 = tree.insert(tree.root, "a")
        n2 = tree.insert(n1, "b")
        n3 = tree.insert(n2, "c")
        assert tree.path_payloads(n3) == ("a", "b", "c")
        assert tree.path_payloads(n1) == ("a",)
        assert [tree.count(d) for d in (1, 2, 3)] == [1, 1, 1]

    def test_insert_beyond_depth_rejected(self):
        tree = MSTree(1)
        leaf = tree.insert(tree.root, "a")
        with pytest.raises(ValueError):
            tree.insert(leaf, "b")

    def test_insert_under_removed_node_rejected(self):
        tree = MSTree(2)
        n1 = tree.insert(tree.root, "a")
        tree.remove_subtree(n1)
        with pytest.raises(ValueError):
            tree.insert(n1, "b")

    def test_level_list_linkage(self):
        tree = MSTree(2)
        nodes = [tree.insert(tree.root, i) for i in range(4)]
        assert {n.payload for n in tree.level_nodes(1)} == {0, 1, 2, 3}
        tree.remove_subtree(nodes[1])
        assert {n.payload for n in tree.level_nodes(1)} == {0, 2, 3}
        assert tree.count(1) == 3

    def test_remove_subtree_removes_descendants(self):
        """Paper example: deleting σ1 removes σ3, σ4, σ9 (Fig. 10)."""
        tree = MSTree(3)
        n1 = tree.insert(tree.root, "σ1")
        n2 = tree.insert(n1, "σ3")
        tree.insert(n2, "σ4")
        tree.insert(n2, "σ9")
        removed = tree.remove_subtree(n1)
        assert removed == 4
        assert tree.node_count == 0

    def test_remove_is_idempotent(self):
        tree = MSTree(1)
        node = tree.insert(tree.root, "a")
        assert tree.remove_subtree(node) == 1
        assert tree.remove_subtree(node) == 0

    def test_on_remove_callback_fires_per_node(self):
        removed = []
        tree = MSTree(2, on_remove=lambda n: removed.append(n.payload))
        n1 = tree.insert(tree.root, "a")
        tree.insert(n1, "b")
        tree.remove_subtree(n1)
        assert sorted(removed) == ["a", "b"]


class TestMSTreeTCStore:
    def test_fig10_shape(self):
        """Reproduce Fig. 10: the expansion list for {6,5,4} holds σ1 at
        level 1, σ1σ3 at level 2, and σ1σ3σ4 + σ1σ3σ9 sharing their prefix."""
        store = MSTreeTCStore(3)
        s1, s3, s4, s9 = sigma(1), sigma(3), sigma(4), sigma(9)
        n1 = store.insert(1, store.root, (), s1)
        n2 = store.insert(2, n1, (s1,), s3)
        store.insert(3, n2, (s1, s3), s4)
        store.insert(3, n2, (s1, s3), s9)
        assert store.tree.node_count == 4       # prefix compression
        flats = {flat for _, flat in store.read(3)}
        assert flats == {(s1, s3, s4), (s1, s3, s9)}
        assert [store.count(i) for i in (1, 2, 3)] == [1, 1, 2]

    def test_delete_edge_cascades(self):
        store = MSTreeTCStore(3)
        s1, s3, s4, s9 = sigma(1), sigma(3), sigma(4), sigma(9)
        n1 = store.insert(1, store.root, (), s1)
        n2 = store.insert(2, n1, (s1,), s3)
        store.insert(3, n2, (s1, s3), s4)
        store.insert(3, n2, (s1, s3), s9)
        assert store.delete_edge(s1) == 4
        assert store.tree.node_count == 0
        assert store.delete_edge(s1) == 0   # registry cleaned

    def test_delete_inner_edge_keeps_prefix(self):
        """FIFO expiry: σ3 extends two roots, both older, so it expires
        after them.  Each root takes its own subtree and keeps the other
        root's prefix; σ3 itself is then stored nowhere, one dict miss."""
        store = MSTreeTCStore(2)
        s1, s2, s3 = sigma(1), sigma(2), sigma(3)
        n1 = store.insert(1, store.root, (), s1)
        n2 = store.insert(1, store.root, (), s2)
        store.insert(2, n1, (s1,), s3)
        store.insert(2, n2, (s2,), s3)
        assert store.delete_edge(s1) == 2
        assert {flat for _, flat in store.read(2)} == {(s2, s3)}
        assert [store.count(i) for i in (1, 2)] == [1, 1]
        assert store.delete_edge(s2) == 2
        assert store.delete_edge(s3) == 0
        assert store.tree.node_count == 0

    def test_only_roots_are_registered(self):
        """A partial match dies with its root, so the registry names
        depth-1 nodes only: a deeper edge's delete finds nothing."""
        store = MSTreeTCStore(3)
        s1, s3, s4 = sigma(1), sigma(3), sigma(4)
        n1 = store.insert(1, store.root, (), s1)
        n2 = store.insert(2, n1, (s1,), s3)
        store.insert(3, n2, (s1, s3), s4)
        assert store._roots == {s1: n1}

    def test_flat_cache_matches_backtracking(self):
        store = MSTreeTCStore(2)
        s1, s3 = sigma(1), sigma(3)
        n1 = store.insert(1, store.root, (), s1)
        n2 = store.insert(2, n1, (s1,), s3)
        assert store.flat(n2) == (s1, s3)
        assert store.flat(n2) is store.flat(n2)   # cached

    def test_space_cells_constant_per_node(self):
        store = MSTreeTCStore(2)
        s1 = sigma(1)
        n1 = store.insert(1, store.root, (), s1)
        store.insert(2, n1, (s1,), sigma(3))
        assert store.space_cells() == 2 * MS_NODE_CELLS


class TestGlobalMSTreeStore:
    def _setup(self):
        """Two subqueries of length 2 and 1; one match each."""
        q1 = MSTreeTCStore(2)
        q2 = MSTreeTCStore(1)
        store = GlobalMSTreeStore([q1, q2])
        s1, s3, s5 = sigma(1), sigma(3), sigma(5)
        n1 = q1.insert(1, q1.root, (), s1)
        leaf1 = q1.insert(2, n1, (s1,), s3)
        leaf2 = q2.insert(1, q2.root, (), s5)
        return store, q1, q2, leaf1, leaf2, (s1, s3, s5)

    def test_needs_two_subqueries(self):
        with pytest.raises(ValueError):
            GlobalMSTreeStore([MSTreeTCStore(1)])

    def test_level1_is_virtual(self):
        store, q1, _, leaf1, _, (s1, s3, _) = self._setup()
        entries = store.read(1)
        assert entries == [(leaf1, (s1, s3))]
        assert store.count(1) == 1

    def test_insert_level2_flattens(self):
        store, _, _, leaf1, leaf2, (s1, s3, s5) = self._setup()
        node = store.insert(2, leaf1, (s1, s3), leaf2, (s5,))
        assert store.read(2) == [(node, (s1, s3, s5))]
        # One anchor + one depth-2 node.
        assert store.tree.node_count == 2

    def test_anchor_reused_across_inserts(self):
        store, _, q2, leaf1, leaf2, (s1, s3, s5) = self._setup()
        s6 = sigma(6)
        leaf3 = q2.insert(1, q2.root, (), s6)
        store.insert(2, leaf1, (s1, s3), leaf2, (s5,))
        store.insert(2, leaf1, (s1, s3), leaf3, (s6,))
        assert store.count(2) == 2
        assert store.tree.count(1) == 1   # single anchor

    def test_subquery_leaf_death_cascades_into_global(self):
        """Algorithm 2 line 7: expired Qⁱ matches kill the L₀ entries built
        on them — here via the dependency links."""
        store, q1, _, leaf1, leaf2, (s1, s3, s5) = self._setup()
        store.insert(2, leaf1, (s1, s3), leaf2, (s5,))
        q1.delete_edge(s1)            # kills the Q¹ match
        assert store.count(2) == 0
        assert store.tree.node_count == 0

    def test_second_subquery_death_cascades_too(self):
        store, _, q2, leaf1, leaf2, (s1, s3, s5) = self._setup()
        store.insert(2, leaf1, (s1, s3), leaf2, (s5,))
        q2.delete_edge(s5)
        assert store.count(2) == 0
        # The anchor survives (its Q¹ match is alive) but holds no children.
        assert store.tree.count(1) == 1

    def test_insert_level_bounds(self):
        store, _, _, leaf1, leaf2, (s1, s3, s5) = self._setup()
        with pytest.raises(ValueError):
            store.insert(1, leaf1, (s1, s3), leaf2, (s5,))
        with pytest.raises(ValueError):
            store.insert(3, leaf1, (s1, s3), leaf2, (s5,))
