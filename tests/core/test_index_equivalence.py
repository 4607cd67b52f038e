"""Differential property test: hash-indexed joins ≡ full scans.

The join-key index subsystem (:mod:`repro.core.index`) must be a pure
performance optimisation: for any query, storage layout, decomposition size
and stream (including expiry-heavy ones), the indexed engine and the
paper-faithful scanning engine (one built with its join-index maps emptied,
:func:`tests.conftest.all_scan`) must report identical match multisets,
identical result counts, and identical logical space at every step.
Hypothesis drives randomized scenarios through twin engines in lock-step.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EngineConfig, QueryGraph, StreamEdge, TimingMatcher

from ..conftest import all_scan
from .test_engine_properties import build_random_query, build_random_stream


def _twin_engines(query: QueryGraph, window: float, storage: str):
    config = EngineConfig(storage=storage)
    return (TimingMatcher(query, window, config=config),
            all_scan(TimingMatcher(query, window, config=config)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_edges=st.integers(min_value=1, max_value=5),
       window=st.floats(min_value=1.5, max_value=10.0),
       storage=st.sampled_from(["mstree", "independent"]))
def test_hash_and_scan_engines_identical(seed, n_edges, window, storage):
    """Per-push match multisets, counts, and space cells all agree.

    The small windows make expiry constant, so index maintenance under
    ``delete_edge`` (including the MS-tree cross-tree cascade) is
    exercised, not just insertion.
    """
    rng = random.Random(seed)
    query = build_random_query(rng, n_edges)
    if not query.is_weakly_connected():
        return
    hash_engine, scan_engine = _twin_engines(query, window, storage)
    for edge in build_random_stream(rng, 60, 6):
        new_hash = hash_engine.push(edge)
        new_scan = scan_engine.push(edge)
        # Multiset equality: simultaneous completions may be reported in a
        # different order, but never with different multiplicities.
        assert Counter(map(repr, new_hash)) == Counter(map(repr, new_scan))
        assert hash_engine.result_count() == scan_engine.result_count()
        assert hash_engine.space_cells() == scan_engine.space_cells()
        assert hash_engine.store_profile() == scan_engine.store_profile()
    assert (hash_engine.stats.matches_emitted
            == scan_engine.stats.matches_emitted)
    # The strategy split: scan never probes, hash never scans a shape that
    # has at least one equality constraint.
    assert scan_engine.stats.index_probes == 0
    assert (scan_engine.stats.scan_fallbacks
            == scan_engine.stats.join_operations)
    assert (hash_engine.stats.index_probes
            + hash_engine.stats.scan_fallbacks
            == hash_engine.stats.join_operations)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       storage=st.sampled_from(["mstree", "independent"]))
def test_k1_chain_equivalence(seed, storage):
    """k=1 (single timing sequence) exercises only the extension-spec
    indexes — no global list exists to mask a bug in them."""
    rng = random.Random(seed)
    query = QueryGraph()
    for vid, label in (("a", "A"), ("b", "B"), ("c", "A"), ("d", "B")):
        query.add_vertex(vid, label)
    query.add_edge(1, "a", "b")
    query.add_edge(2, "b", "c")
    query.add_edge(3, "c", "d")
    query.add_timing_chain(1, 2, 3)
    hash_engine, scan_engine = _twin_engines(query, 6.0, storage)
    assert hash_engine.k == scan_engine.k == 1
    for edge in build_random_stream(rng, 80, 5):
        new_hash = hash_engine.push(edge)
        new_scan = scan_engine.push(edge)
        assert Counter(map(repr, new_hash)) == Counter(map(repr, new_scan))
        assert hash_engine.space_cells() == scan_engine.space_cells()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       storage=st.sampled_from(["mstree", "independent"]))
def test_discardability_probe_agrees_across_strategies(seed, storage):
    """Lemma 1's probe must give the same verdict through an index bucket
    as through a full scan, on every prefix of a random stream."""
    rng = random.Random(seed)
    query = build_random_query(rng, 4)
    if not query.is_weakly_connected():
        return
    hash_engine, scan_engine = _twin_engines(query, 5.0, storage)
    for edge in build_random_stream(rng, 50, 5):
        assert (hash_engine.is_discardable(edge)
                == scan_engine.is_discardable(edge))
        hash_engine.push(edge)
        scan_engine.push(edge)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       storage=st.sampled_from(["mstree", "independent"]))
def test_indexes_drain_with_window(seed, storage):
    """After every edge expires, no index may retain an entry (leak check
    for the removal paths, cascade included)."""
    rng = random.Random(seed)
    query = build_random_query(rng, 4)
    if not query.is_weakly_connected():
        return
    engine = TimingMatcher(query, 4.0, config=EngineConfig(storage=storage))
    for edge in build_random_stream(rng, 60, 5):
        engine.push(edge)
    engine.advance_time(engine.window.current_time + 1000.0)
    assert engine.space_cells() == 0
    for index in engine._ext_indexes.values():
        assert len(index) == 0 and index.bucket_count == 0
    for index in engine._union_prefix_indexes.values():
        assert len(index) == 0 and index.bucket_count == 0
    for index in engine._union_omega_indexes.values():
        assert len(index) == 0 and index.bucket_count == 0


def test_duplicate_timestamp_free_stream_with_advances():
    """Deterministic scenario mixing pushes and bare time advances; the
    engines must agree after every operation."""
    rng = random.Random(7)
    query = build_random_query(rng, 3)
    if not query.is_weakly_connected():
        query = build_random_query(random.Random(8), 3)
    hash_engine, scan_engine = _twin_engines(query, 3.0, "mstree")
    t = 0.0
    for step in range(120):
        t += rng.random() + 0.01
        if step % 7 == 3:
            hash_engine.advance_time(t)
            scan_engine.advance_time(t)
            continue
        u = f"d{rng.randrange(5)}"
        v = f"d{(rng.randrange(4) + int(u[1:]) + 1) % 5}"
        edge = StreamEdge(u, v, src_label="AB"[int(u[1:]) % 2],
                          dst_label="AB"[int(v[1:]) % 2], timestamp=t)
        assert (Counter(map(repr, hash_engine.push(edge)))
                == Counter(map(repr, scan_engine.push(edge))))
        assert hash_engine.store_profile() == scan_engine.store_profile()
