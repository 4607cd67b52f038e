"""Static subgraph-isomorphism substrate: correctness of the skeleton."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import QueryGraph, SnapshotGraph, verify_match
from repro.isomorphism import ALGORITHMS, StaticMatcher

from ..conftest import fig3_stream, fig5_query, make_edge
from ..core.test_engine_properties import (
    build_random_query, build_random_stream,
)


def canon(assignments):
    return {frozenset((k, v.edge_id) for k, v in m.items())
            for m in assignments}


@pytest.fixture
def snapshot_t8():
    """Snapshot of the running-example stream at t=8 (Fig. 4a)."""
    s = SnapshotGraph()
    for edge in fig3_stream():
        if edge.timestamp <= 8:
            s.add_edge(edge)
    return s


class TestSkeleton:
    def test_finds_paper_match_with_timing(self, snapshot_t8):
        q = fig5_query()
        matches = StaticMatcher().find_all(q, snapshot_t8)
        assert len(matches) == 1
        assert verify_match(q, matches[0])
        assert matches[0][6].timestamp == 1

    def test_timing_filter_off_finds_structural_matches(self, snapshot_t8):
        q = fig5_query()
        structural = StaticMatcher().find_all(q, snapshot_t8,
                                              enforce_timing=False)
        timed = StaticMatcher().find_all(q, snapshot_t8)
        assert len(structural) >= len(timed)
        for match in structural:
            assert verify_match(q, match) or True  # structure-only may fail timing

    def test_anchored_search_restricts_to_edge(self, snapshot_t8):
        q = fig5_query()
        sigma8 = make_edge("a1", "b3", 8)
        anchored = list(StaticMatcher().find(q, snapshot_t8,
                                             anchor=(1, sigma8)))
        assert len(anchored) == 1
        assert anchored[0][1] == sigma8

    def test_anchor_label_mismatch_yields_nothing(self, snapshot_t8):
        q = fig5_query()
        wrong = make_edge("c4", "e7", 3)
        assert list(StaticMatcher().find(q, snapshot_t8,
                                         anchor=(1, wrong))) == []

    def test_anchor_absent_edge_yields_nothing(self, snapshot_t8):
        q = fig5_query()
        ghost = make_edge("a9", "b9", 99)
        assert list(StaticMatcher().find(q, snapshot_t8,
                                         anchor=(1, ghost))) == []

    def test_vertex_injectivity_enforced(self):
        # Query: A→B, A→B with distinct query vertices — the two data edges
        # must use four distinct vertices.
        q = QueryGraph()
        q.add_vertex("a1", "A")
        q.add_vertex("b1", "B")
        q.add_vertex("a2", "A")
        q.add_vertex("b2", "B")
        q.add_edge("e1", "a1", "b1")
        q.add_edge("e2", "a2", "b2")
        # Disconnected query — exercise the disconnected-jump path too.
        def upper(v):
            return v[0].upper()
        s = SnapshotGraph()
        s.add_edge(make_edge("a1", "b1", 1, label_of=upper))
        s.add_edge(make_edge("a2", "b2", 2, label_of=upper))
        matches = StaticMatcher().find_all(q, s)
        # Two assignments (e1/e2 swapped), both with 4 distinct vertices.
        assert len(matches) == 2

    def test_multigraph_parallel_edges(self):
        q = QueryGraph()
        q.add_vertex("u", "A")
        q.add_vertex("v", "B")
        q.add_edge("e1", "u", "v")
        q.add_edge("e2", "u", "v")
        q.add_timing_constraint("e1", "e2")
        def upper(v):
            return v[0].upper()
        s = SnapshotGraph()
        first = make_edge("a1", "b1", 1, label_of=upper)
        second = make_edge("a1", "b1", 2, label_of=upper)
        s.add_edge(first)
        s.add_edge(second)
        matches = StaticMatcher().find_all(q, s)
        # Only e1→first, e2→second survives the timing constraint.
        assert len(matches) == 1
        assert matches[0]["e1"] == first


class TestAlgorithmVariants:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_all_algorithms_agree(self, name, snapshot_t8):
        q = fig5_query()
        assert canon(ALGORITHMS[name]().find_all(q, snapshot_t8)) == \
            canon(StaticMatcher().find_all(q, snapshot_t8))

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_orders_cover_all_edges_connectedly(self, name, snapshot_t8):
        q = fig5_query()
        order = ALGORITHMS[name]().order(q, snapshot_t8)
        assert sorted(map(str, order)) == sorted(map(str, q.edge_ids()))
        seen = [order[0]]
        for eid in order[1:]:
            assert any(q.edges_adjacent(eid, done) for done in seen)
            seen.append(eid)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_seeded_order_starts_at_seed(self, name, snapshot_t8):
        q = fig5_query()
        order = ALGORITHMS[name]().order(q, snapshot_t8, seed=4)
        assert order[0] == 4

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_anchored_search_restricts_to_edge(self, name, snapshot_t8):
        q = fig5_query()
        sigma8 = make_edge("a1", "b3", 8)
        anchored = list(ALGORITHMS[name]().find(q, snapshot_t8,
                                                anchor=(1, sigma8)))
        assert len(anchored) == 1
        assert anchored[0][1] == sigma8

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_anchor_label_mismatch_yields_nothing(self, name, snapshot_t8):
        q = fig5_query()
        assert list(ALGORITHMS[name]().find(
            q, snapshot_t8, anchor=(1, make_edge("c4", "e7", 3)))) == []

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_parallel_edges_assigned_injectively(self, name):
        q = QueryGraph()
        q.add_vertex("u", "A")
        q.add_vertex("v", "B")
        q.add_edge("e1", "u", "v")
        q.add_edge("e2", "u", "v")
        def upper(v):
            return v[0].upper()
        s = SnapshotGraph()
        s.add_edge(make_edge("a1", "b1", 1, label_of=upper))
        s.add_edge(make_edge("a1", "b1", 2, label_of=upper))
        matches = ALGORITHMS[name]().find_all(q, s, enforce_timing=False)
        assert len(matches) == 2               # both injective assignments
        for m in matches:
            assert m["e1"] != m["e2"]

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_self_loop(self, name):
        q = QueryGraph()
        q.add_vertex("u", "A")
        q.add_edge("loop", "u", "u")
        def upper(v):
            return v[0].upper()
        s = SnapshotGraph()
        s.add_edge(make_edge("a1", "a1", 1, label_of=upper))
        s.add_edge(make_edge("a1", "b1", 2, label_of=upper))
        matches = ALGORITHMS[name]().find_all(q, s)
        assert len(matches) == 1

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_edges=st.integers(min_value=1, max_value=5),
           timing=st.booleans())
    def test_random_queries_agree_with_skeleton(self, name, seed, n_edges,
                                                timing):
        """Each variant only reorders the skeleton's search, so on random
        queries and snapshots it finds exactly the skeleton's matches."""
        rng = random.Random(seed)
        query = build_random_query(rng, n_edges)
        if not query.is_weakly_connected():
            return
        snapshot = SnapshotGraph()
        for edge in build_random_stream(rng, 40, 5):
            if edge not in snapshot:
                snapshot.add_edge(edge)
        assert canon(ALGORITHMS[name]().find_all(
            query, snapshot, enforce_timing=timing)) == canon(
            StaticMatcher().find_all(query, snapshot, enforce_timing=timing))

    def test_boostiso_prunes_a_vertex_short_of_neighbours(self):
        """A ``B`` vertex must offer an ``A`` and a ``C`` neighbour; a
        parallel query edge or a self-loop asks for no second one."""
        from repro.isomorphism import BoostISO
        q = QueryGraph()
        for vertex, label in (("u", "A"), ("v", "B"), ("w", "C")):
            q.add_vertex(vertex, label)
        q.add_edge("e1", "u", "v")
        q.add_edge("e2", "u", "v")
        q.add_edge("e3", "v", "w")
        q.add_edge("loop", "v", "v")
        def upper(v):
            return v[0].upper()
        s = SnapshotGraph()
        lonely = make_edge("a1", "b1", 1, label_of=upper)
        s.add_edge(lonely)
        s.add_edge(make_edge("a2", "b2", 2, label_of=upper))
        s.add_edge(make_edge("b2", "c2", 3, label_of=upper))
        assert not BoostISO().prune(q, s, "e1", lonely)
        assert BoostISO().prune(q, s, "e1",
                                make_edge("a2", "b2", 2, label_of=upper))

    def test_quicksi_ranks_infrequent_first(self, snapshot_t8):
        q = fig5_query()
        from repro.isomorphism import QuickSI
        matcher = QuickSI()
        freq = {eid: matcher.term_frequency(q, snapshot_t8, eid)
                for eid in q.edge_ids()}
        order = matcher.order(q, snapshot_t8)
        # First edge must be among the minimum-frequency edges.
        assert freq[order[0]] == min(freq.values())
