"""The one-edge TC-subquery store: an MS-tree's depth-1 level, no tree.

A one-edge sub-query keeps its matches in :class:`OneEdgeTCStore` — an
insertion-ordered ``edge → (edge,)`` dict — instead of a depth-1
:class:`MSTreeTCStore`.  The differential below holds the two to the same
observable behaviour under random insert/expire; the drain test runs the
``engine_join`` query shape (three one-edge sub-queries, two of which one
arrival can match at once) to empty and checks that nothing is left behind
in the engine's registries, the global tree's cross-store bookkeeping or
any join-key index.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import TimingMatcher
from repro.core.mstree import MSTreeTCStore, OneEdgeTCStore, subquery_store
from repro.graph.edge import StreamEdge

from ..conftest import FORK_PLAN, fork_query, fork_stream

#: One join-key shape over the stored edge: its source vertex.
SRC_REFS = ((0, True),)


def make_edge(serial: int, n_vertices: int) -> StreamEdge:
    return StreamEdge(f"u{serial % n_vertices}", f"v{serial}", src_label="A",
                      dst_label="B", timestamp=float(serial))


def observed(store):
    """A store and the flat matches its leaf observer was told about."""
    calls = []
    store.add_leaf_observer(lambda handle: calls.append(store.flat(handle)))
    index = store.add_index(1, SRC_REFS)
    return calls, index


def test_factory_picks_the_store_by_length():
    assert isinstance(subquery_store(1), OneEdgeTCStore)
    assert isinstance(subquery_store(2), MSTreeTCStore)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_ops=st.integers(min_value=1, max_value=80),
       n_vertices=st.integers(min_value=1, max_value=5))
def test_lean_store_equals_a_depth_one_mstree(seed, n_ops, n_vertices):
    rng = random.Random(seed)
    lean, tree = OneEdgeTCStore(), MSTreeTCStore(1)
    lean_calls, lean_index = observed(lean)
    tree_calls, tree_index = observed(tree)
    inserted = []
    for serial in range(n_ops):
        if rng.random() < 0.6 or not inserted:
            edge = make_edge(serial, n_vertices)
            handle = lean.insert(1, lean.root, (), edge)
            tree.insert(1, tree.root, (), edge)
            assert handle == lean.flat(handle) == (edge,)
            inserted.append(edge)
        else:
            # Expire the oldest edge, a random stored one, or one already
            # gone (a miss in both).
            victim = rng.choice([inserted[0], rng.choice(inserted)])
            assert lean.delete_edge(victim) == tree.delete_edge(victim)
            if rng.random() < 0.5:
                inserted.remove(victim)
        assert [flat for _, flat in lean.read(1)] \
            == [flat for _, flat in tree.read(1)]
        assert lean.count(1) == tree.count(1) == lean.entry_count()
        assert lean.space_cells() == tree.space_cells()
        assert lean.is_empty() == tree.is_empty()
        assert lean_calls == tree_calls
        for vertex in range(n_vertices):
            key = (f"u{vertex}",)
            assert [flat for _, flat in lean_index.probe(key)] \
                == [flat for _, flat in tree_index.probe(key)]
        assert lean_index.bucket_count == tree_index.bucket_count


def test_fork_query_drains_to_nothing():
    """One arrival matches both ``e3`` and ``e4``: the two one-edge stores
    hand the global tree equal ``(edge,)`` handles, filed under one
    dependency key.  Past the window everything is empty again."""
    engine = TimingMatcher(fork_query(), 20.0)
    assert engine.join_order == FORK_PLAN
    stream = fork_stream(0, 600)
    shared_keys = matches = 0
    for edge in stream:
        matches += len(engine.push(edge))
        # A key both one-edge stores filed a dependent under: an L₀³
        # entry through e3 and an L₀⁴ entry through e4.
        shared_keys += any(
            {node.depth for node in bucket} >= {3, 4}
            for key, bucket in engine._global._dependents.items()
            if isinstance(key, tuple))
    assert matches and shared_keys          # the shape is exercised

    engine.advance_time(stream[-1].timestamp + 20.0)
    assert engine._touched == {}
    assert engine._global._dependents == {}
    assert engine._global._anchors == {}
    levels = [(store, store.length) for store in engine._tc_stores] \
        + [(engine._global, engine.k)]
    indexes = [index for store, depth in levels
               for level in range(1, depth + 1)
               for index in store.indexes.at(level)]
    assert indexes and all(len(index) == 0 for index in indexes)
    assert engine.space_cells() == 0
