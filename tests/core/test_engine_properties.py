"""Property-based equivalence: TimingMatcher ≡ naive recomputation oracle.

This is the library's central correctness property (single-threaded
streaming consistency): at every time point, the engine's incremental answer
set must equal what a from-scratch subgraph-isomorphism + timing filter
computes on the snapshot.  Hypothesis drives random queries (structure and
partial orders) and random streams through both implementations.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EngineConfig, QueryGraph, StreamEdge, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher


def build_random_query(rng: random.Random, n_edges: int) -> QueryGraph:
    """Random connected query with a random (consistent) partial order."""
    labels = "AB"
    q = QueryGraph()
    vids = []

    def new_vertex():
        vid = f"v{len(vids)}"
        q.add_vertex(vid, rng.choice(labels))
        vids.append(vid)
        return vid

    new_vertex()
    for i in range(n_edges):
        if len(vids) >= 2 and rng.random() < 0.4:
            u, v = rng.sample(vids, 2)
        else:
            u = rng.choice(vids)
            v = new_vertex()
            if rng.random() < 0.5:
                u, v = v, u
        q.add_edge(i, u, v)
    perm = rng.sample(q.edge_ids(), n_edges)
    for a, b in itertools.combinations(perm, 2):
        if rng.random() < 0.4:
            try:
                q.add_timing_constraint(a, b)
            except Exception:
                pass
    return q


def build_random_stream(rng: random.Random, n: int, n_vertices: int):
    edges, t = [], 0.0
    for _ in range(n):
        t += rng.random() + 0.01
        u = f"d{rng.randrange(n_vertices)}"
        v = f"d{rng.randrange(n_vertices)}"
        while v == u:
            v = f"d{rng.randrange(n_vertices)}"
        edges.append(StreamEdge(u, v, src_label="AB"[int(u[1:]) % 2],
                                dst_label="AB"[int(v[1:]) % 2],
                                timestamp=t))
    return edges


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_edges=st.integers(min_value=1, max_value=5),
       window=st.floats(min_value=1.5, max_value=10.0),
       storage=st.sampled_from(["mstree", "independent"]))
def test_engine_equals_oracle_at_every_time_point(seed, n_edges, window,
                                                  storage):
    rng = random.Random(seed)
    query = build_random_query(rng, n_edges)
    if not query.is_weakly_connected():
        return
    engine = TimingMatcher(query, window,
                           config=EngineConfig(storage=storage))
    oracle = NaiveSnapshotMatcher(query, window)
    for edge in build_random_stream(rng, 50, 6):
        new_engine = engine.push(edge)
        new_oracle = oracle.push(edge)
        assert set(new_engine) == set(new_oracle)
        assert set(engine.current_matches()) == set(oracle.current_matches())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_edges=st.integers(min_value=2, max_value=5))
def test_storage_backends_equivalent(seed, n_edges):
    """MS-tree and independent stores must be observationally identical —
    same reported matches *and* same per-item entry counts at every step."""
    rng = random.Random(seed)
    query = build_random_query(rng, n_edges)
    if not query.is_weakly_connected():
        return
    ms = TimingMatcher(query, 5.0, config=EngineConfig(storage="mstree"))
    ind = TimingMatcher(query, 5.0,
                        config=EngineConfig(storage="independent"))
    for edge in build_random_stream(rng, 60, 5):
        assert set(ms.push(edge)) == set(ind.push(edge))
        assert ms.store_profile() == ind.store_profile()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_space_returns_to_zero_when_window_drains(seed):
    """After all edges expire, no partial matches may linger (no leaks)."""
    rng = random.Random(seed)
    query = build_random_query(rng, 3)
    if not query.is_weakly_connected():
        return
    engine = TimingMatcher(query, 4.0)
    for edge in build_random_stream(rng, 40, 5):
        engine.push(edge)
    engine.advance_time(engine.window.current_time + 100.0)
    assert engine.space_cells() == 0
    assert engine.result_count() == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_all_reported_matches_verify(seed):
    from repro import verify_match
    rng = random.Random(seed)
    query = build_random_query(rng, 4)
    if not query.is_weakly_connected():
        return
    engine = TimingMatcher(query, 6.0)
    for edge in build_random_stream(rng, 60, 6):
        for match in engine.push(edge):
            assert verify_match(query, match.edge_map)
            # Every matched data edge must still be inside the window.
            cutoff = edge.timestamp - 6.0
            assert all(e.timestamp > cutoff for e in match.data_edges)
