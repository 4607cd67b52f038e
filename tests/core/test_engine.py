"""TimingMatcher: Algorithm 1/2 behaviour on the paper's running example
plus engine-level unit behaviour (discardability, stats, space, variants)."""

import pytest

from repro import EngineConfig, Match, TimingMatcher, verify_match

from ..conftest import fig3_stream, fig5_query, make_edge, path_query


@pytest.fixture
def q():
    return fig5_query()


class TestRunningExample:
    def test_match_found_at_t8(self, q):
        """The paper's match g (σ1,σ3,σ4,σ5,σ7,σ8) is reported exactly when
        σ8 arrives, and no earlier."""
        matcher = TimingMatcher(q, window=9.0)
        reported = {}
        for edge in fig3_stream():
            reported[edge.timestamp] = matcher.push(edge)
        assert all(not v for t, v in reported.items() if t != 8)
        assert len(reported[8]) == 1
        match = reported[8][0]
        assert verify_match(q, match.edge_map)
        assert {eid: e.timestamp for eid, e in match.edge_map.items()} == {
            6: 1, 5: 3, 4: 4, 2: 5, 3: 7, 1: 8}

    def test_match_expires_at_t10(self, q):
        """σ1 leaves the window at t=10 (|W| = 9) and g disappears."""
        matcher = TimingMatcher(q, window=9.0)
        for edge in fig3_stream():
            matcher.push(edge)
            if edge.timestamp == 9:
                assert matcher.result_count() == 1
        assert matcher.result_count() == 0

    def test_discardable_edge_sigma6_filtered(self, q):
        """§III-A's example: σ6 (a2→b3 at t=6) matches only edge 1, whose
        prerequisite 3 has no match yet — σ6 must be discarded, storing
        nothing."""
        matcher = TimingMatcher(q, window=9.0)
        for edge in fig3_stream():
            if edge.timestamp == 6:
                before = matcher.space_cells()
                matcher.push(edge)
                assert matcher.space_cells() == before
                assert matcher.stats.edges_discarded >= 1
                break
            matcher.push(edge)

    def test_expansion_list_content_matches_fig7(self, q):
        """After σ9 (t=9), the {6,5,4} list holds: Ω({6}) = {σ1},
        Ω({6,5}) = {σ1σ3}, Ω({6,5,4}) = {σ1σ3σ4, σ1σ3σ9} (Fig. 7)."""
        matcher = TimingMatcher(q, window=9.0)
        for edge in fig3_stream():
            if edge.timestamp > 9:
                break
            matcher.push(edge)
        profile = matcher.store_profile()
        assert profile["L1^1"] == 1
        assert profile["L1^2"] == 1
        assert profile["L1^3"] == 2


class TestEngineConfiguration:
    def test_decomposition_used(self, q):
        matcher = TimingMatcher(q, window=9.0)
        assert matcher.k == 3
        assert set(map(frozenset, matcher.join_order)) == {
            frozenset({6, 5, 4}), frozenset({3, 1}), frozenset({2})}

    def test_explicit_decomposition_respected(self, q):
        decomposition = [(6, 5), (4,), (3, 1), (2,)]
        matcher = TimingMatcher(q, window=9.0, decomposition=decomposition)
        assert matcher.k == 4

    def test_invalid_decomposition_rejected(self, q):
        with pytest.raises(ValueError):
            TimingMatcher(q, window=9.0, decomposition=[(6, 5, 4), (3, 1)])

    def test_unknown_strategies_rejected(self, q):
        with pytest.raises(ValueError):
            TimingMatcher(q, window=9.0,
                          config=EngineConfig(decomposition="best"))
        with pytest.raises(ValueError):
            TimingMatcher(q, window=9.0,
                          config=EngineConfig(join_order="best"))

    def test_all_variants_agree_on_results(self, q):
        """MS-tree/IND × greedy/random × jn/random all report the same
        matches (they differ in cost, never in semantics)."""
        stream = fig3_stream()
        reference = None
        for storage in ("mstree", "independent"):
            for dstrat in ("greedy", "random"):
                for jstrat in ("jn", "random"):
                    m = TimingMatcher(q, window=9.0, config=EngineConfig(
                        storage=storage, decomposition=dstrat,
                        join_order=jstrat, seed=3))
                    got = []
                    for edge in stream:
                        got.extend(m.push(edge))
                    if reference is None:
                        reference = got
                    assert sorted(map(hash, got)) == sorted(map(hash, reference))

    def test_repr(self, q):
        assert "MS-tree" in repr(TimingMatcher(q, window=9.0))
        assert "independent" in repr(
            TimingMatcher(q, window=9.0,
                          config=EngineConfig(storage="independent")))


class TestSingleTCQuery:
    """k == 1 path: no global list, matches come from the last item."""

    def test_chain_path_query(self):
        q = path_query(2, timing="chain")   # A→B→C with e0 ≺ e1
        m = TimingMatcher(q, window=10.0)
        assert m.k == 1
        e0 = make_edge("a1", "b1", 1.0, label_of=lambda v: {"a1": "A", "b1": "B"}[v])
        e1 = make_edge("b1", "c1", 2.0, label_of=lambda v: {"b1": "B", "c1": "C"}[v])
        assert m.push(e0) == []
        got = m.push(e1)
        assert len(got) == 1
        assert got[0] == Match({"e0": e0, "e1": e1})
        assert m.result_count() == 1

    def test_out_of_order_arrivals_discarded(self):
        q = path_query(2, timing="chain")
        m = TimingMatcher(q, window=10.0)
        # e1-matching edge arrives first: prerequisite missing → discarded.
        e1 = make_edge("b1", "c1", 1.0, label_of=lambda v: {"b1": "B", "c1": "C"}[v])
        e0 = make_edge("a1", "b1", 2.0, label_of=lambda v: {"a1": "A", "b1": "B"}[v])
        assert m.push(e1) == []
        assert m.push(e0) == []
        assert m.result_count() == 0
        assert m.space_cells() > 0    # the e0 match is a valid level-1 entry


class TestAdvanceTime:
    def test_advance_time_expires_without_arrival(self, q):
        matcher = TimingMatcher(q, window=9.0)
        for edge in fig3_stream():
            if edge.timestamp > 9:
                break
            matcher.push(edge)
        assert matcher.result_count() == 1
        matcher.advance_time(30.0)
        assert matcher.result_count() == 0
        assert matcher.space_cells() == 0


class TestStats:
    def test_counters_track_processing(self, q):
        matcher = TimingMatcher(q, window=9.0)
        for edge in fig3_stream():
            matcher.push(edge)
        stats = matcher.stats
        assert stats.edges_seen == 10
        assert stats.matches_emitted == 1
        assert stats.expired_edges == 1      # σ1 at t=10
        assert stats.join_operations > 0
        d = stats.as_dict()
        assert d["edges_seen"] == 10


class TestDeleteSafety:
    def test_deleting_unmatched_edge_is_noop(self, q):
        matcher = TimingMatcher(q, window=9.0)
        zz = make_edge("z1", "z2", 1.0)
        assert matcher.delete_edge(zz) == 0

    def test_current_matches_are_valid(self, q):
        matcher = TimingMatcher(q, window=9.0)
        for edge in fig3_stream():
            matcher.push(edge)
            for match in matcher.current_matches():
                assert verify_match(q, match.edge_map)
