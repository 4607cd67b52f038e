"""Protocol conformance: all four engines behind one ``Matcher`` interface.

One parametrized scenario (insert → match → timing-violating arrivals →
expiry) runs across Timing (both storages), SJ-tree, IncMat and the naive
oracle, exercising them *only* through the :class:`repro.api.Matcher`
protocol and asserting identical match sets at every step.  This is the
contract that lets ``Session``, the bench harness and the cross-engine
tests treat engines interchangeably.
"""

import pytest

from repro import EngineConfig, Matcher, StreamEdge, TimingMatcher
from repro.api import MatcherBase
from repro.baselines.incmat import IncMatMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.baselines.sjtree import SJTreeMatcher
from repro.isomorphism import QuickSI

from .conftest import path_query

FACTORIES = {
    "timing": lambda q, w, **kw: TimingMatcher.from_config(q, w, **kw),
    "timing-ind": lambda q, w, **kw: TimingMatcher.from_config(
        q, w, storage="independent", **kw),
    "sjtree": lambda q, w, **kw: SJTreeMatcher(q, w, **kw),
    "incmat": lambda q, w, **kw: IncMatMatcher(q, w, QuickSI(), **kw),
    "naive": lambda q, w, **kw: NaiveSnapshotMatcher(q, w, **kw),
}


def edge(src, dst, ts, src_label, dst_label, edge_id=None):
    return StreamEdge(src, dst, src_label=src_label, dst_label=dst_label,
                      timestamp=ts, edge_id=edge_id)


def scenario_stream():
    """Arrivals for the two-hop chain query e0(A→B) ≺ e1(B→C)."""
    return [
        edge("a1", "b1", 1.0, "A", "B"),   # e0 candidate
        edge("b1", "c1", 2.0, "B", "C"),   # completes (a1, b1, c1)
        edge("a2", "b1", 3.0, "A", "B"),   # second e0 candidate
        edge("b1", "c2", 4.0, "B", "C"),   # completes via a1 and a2
        edge("c1", "a1", 5.0, "C", "A"),   # structural noise
        edge("b3", "c4", 6.0, "B", "C"),   # e1 arriving before e0 …
        edge("a3", "b3", 7.0, "A", "B"),   # … violates the timing order
    ]


#: Matches completed per arrival timestamp (the paper's online semantics).
EXPECTED_NEW = {1.0: 0, 2.0: 1, 3.0: 0, 4.0: 2, 5.0: 0, 6.0: 0, 7.0: 0}


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestProtocolConformance:
    def test_isinstance_of_protocol(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0)
        assert isinstance(matcher, Matcher)
        assert isinstance(matcher, MatcherBase)

    def test_scenario_matches_oracle_at_every_step(self, name):
        query = path_query(2)
        matcher = FACTORIES[name](query, 6.0)
        oracle = NaiveSnapshotMatcher(path_query(2), 6.0)
        for arrival in scenario_stream():
            got = matcher.push(arrival)
            expected = oracle.push(arrival)
            assert len(got) == EXPECTED_NEW[arrival.timestamp], arrival
            assert set(got) == set(expected), arrival
            assert set(matcher.current_matches()) == \
                set(oracle.current_matches()), arrival
            assert matcher.result_count() == oracle.result_count()

    def test_expiry_drains_matches(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0)
        matcher.push_many(scenario_stream())
        # At t=7 with |W|=6 the t=1 edge is already gone, taking its two
        # matches with it; the (a2, b1, c2) match is still in-window.
        assert matcher.result_count() == 1
        # Slide far enough that every match-supporting edge expires.
        matcher.advance_time(10.5)
        assert matcher.current_matches() == []
        assert matcher.result_count() == 0

    def test_push_many_equals_individual_pushes(self, name):
        one_by_one = FACTORIES[name](path_query(2), 6.0)
        batched = FACTORIES[name](path_query(2), 6.0)
        singles = []
        for arrival in scenario_stream():
            singles.extend(one_by_one.push(arrival))
        assert batched.push_many(scenario_stream()) == singles

    def test_stats_counters(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0)
        matcher.push_many(scenario_stream())
        stats = matcher.stats.as_dict()
        assert stats["edges_seen"] == 7
        assert stats["matches_emitted"] == 3
        assert stats["edges_skipped"] == 0
        matcher.advance_time(10.5)
        assert matcher.stats.expired_edges >= 1

    def test_space_cells_is_nonnegative_int(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0)
        matcher.push_many(scenario_stream())
        cells = matcher.space_cells()
        assert isinstance(cells, int) and cells >= 0


class TestFacadeReExports:
    def test_every_moved_name_is_still_importable_from_the_facade(self):
        """The protocol lives in ``repro.matcher`` and sub-plan sharing in
        ``repro.subplans``; ``repro.api`` keeps handing out the very same
        objects under every name it exported before the split."""
        import repro.api
        import repro.matcher
        import repro.subplans
        for name in ("EngineConfig", "EngineStats", "Matcher", "MatcherBase",
                     "as_window", "DUPLICATE_POLICIES", "STORAGE_KINDS",
                     "DECOMPOSITION_STRATEGIES", "JOIN_ORDER_STRATEGIES",
                     "INDEXING_MODES", "SUBPLAN_SHARING_MODES",
                     "SHARDING_MODES", "TRANSPORT_MODES"):
            assert getattr(repro.api, name) is getattr(repro.matcher, name)
        assert repro.api.SharedSubplanStore \
            is repro.subplans.SharedSubplanStore
        for name in ("Session", "ThreadSafeSession", "BACKENDS"):
            assert name in repro.api.__all__

    def test_streaming_surface_takes_no_guard(self):
        """The S/X guards of the paper's section V go to ``insert_edge`` /
        ``delete_edge``; the serial streaming surface has no such knob."""
        import inspect
        for method in ("push", "push_many", "advance_time", "_insert",
                       "_expire"):
            assert "guard" not in inspect.signature(
                getattr(TimingMatcher, method)).parameters, method
        for method in ("insert_edge", "delete_edge"):
            assert "guard" in inspect.signature(
                getattr(TimingMatcher, method)).parameters, method


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestDuplicatePolicy:
    def duplicate_pair(self):
        first = edge("a1", "b1", 1.0, "A", "B", edge_id="dup")
        clone = edge("a9", "b9", 2.0, "A", "B", edge_id="dup")
        return first, clone

    def test_raise_is_the_default(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0)
        first, clone = self.duplicate_pair()
        matcher.push(first)
        with pytest.raises(ValueError, match="duplicate in-window edge id"):
            matcher.push(clone)

    def test_skip_drops_silently(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0,
                                  duplicate_policy="skip")
        first, clone = self.duplicate_pair()
        matcher.push(first)
        assert matcher.push(clone) == []
        assert matcher.stats.edges_skipped == 0
        assert matcher.stats.edges_seen == 1

    def test_count_surfaces_in_stats(self, name):
        matcher = FACTORIES[name](path_query(2), 6.0,
                                  duplicate_policy="count")
        first, clone = self.duplicate_pair()
        matcher.push(first)
        assert matcher.push(clone) == []
        assert matcher.stats.edges_skipped == 1

    def test_recycled_id_is_fine_after_expiry(self, name):
        matcher = FACTORIES[name](path_query(2), 2.0)
        first, clone = self.duplicate_pair()
        matcher.push(first)
        matcher.advance_time(4.0)       # first expires
        matcher.push(StreamEdge("a9", "b9", src_label="A", dst_label="B",
                                timestamp=5.0, edge_id="dup"))  # no raise

    def test_arrival_expires_old_bearer_before_duplicate_check(self, name):
        """An id whose previous bearer is past the window by the arrival's
        own timestamp is not a duplicate — expiry runs first."""
        matcher = FACTORIES[name](path_query(2), 6.0)
        first, _ = self.duplicate_pair()
        matcher.push(first)
        late = edge("a5", "b5", 100.0, "A", "B", edge_id="dup")
        assert matcher.push(late) == []            # no spurious ValueError
        assert matcher.stats.edges_skipped == 0

    def test_dropped_duplicate_still_advances_time(self, name):
        """A skipped duplicate arrival must still slide the window: old
        matches cannot linger past their expiry."""
        matcher = FACTORIES[name](path_query(2), 6.0,
                                  duplicate_policy="skip")
        matcher.push(edge("a1", "b1", 1.0, "A", "B", edge_id="keep"))
        matcher.push(edge("b1", "c1", 2.0, "B", "C"))
        assert matcher.result_count() == 1
        # Same id as the still-live t=2 edge, far in the future: dropped
        # as a duplicate?  No — by t=100 the bearer has expired, so this
        # is a fresh arrival; and either way the t=1 match must be gone.
        matcher.push(edge("b9", "c9", 100.0, "B", "C",
                          edge_id=("b1", "c1", 2.0)))
        assert matcher.result_count() == 0
        assert matcher.window.current_time == 100.0

    def test_raise_is_side_effect_free(self, name):
        """A rejected push must not poison the engine: no expiry, no
        clock advance — the caller may recover and continue."""
        matcher = FACTORIES[name](path_query(2), 10.0)
        matcher.push(edge("a1", "b1", 1.0, "A", "B"))
        matcher.push(edge("b1", "c1", 2.0, "B", "C"))
        before = matcher.result_count()
        skewed = edge("a9", "b9", 11.0, "A", "B",
                      edge_id=("b1", "c1", 2.0))   # in-window dup at t=11
        with pytest.raises(ValueError, match="duplicate"):
            matcher.push(skewed)
        assert matcher.result_count() == before
        matcher.push(edge("b1", "c2", 9.0, "B", "C"))   # stream continues
        assert matcher.result_count() == before + 1

    def test_unknown_policy_rejected(self, name):
        with pytest.raises(ValueError, match="duplicate policy"):
            FACTORIES[name](path_query(2), 6.0, duplicate_policy="bogus")


class TestEngineConfig:
    @pytest.mark.parametrize("kwarg", [
        "use_mstree", "decomposition_strategy", "join_order_strategy",
        "rng", "duplicate_policy", "guard"])
    def test_removed_constructor_kwargs_raise_type_error(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            TimingMatcher(path_query(2), 6.0, **{kwarg: None})

    def test_from_config_field_overrides(self):
        matcher = TimingMatcher.from_config(
            path_query(2), 6.0, EngineConfig(), storage="independent",
            duplicate_policy="skip")
        assert not matcher.use_mstree
        assert matcher.duplicate_policy == "skip"

    def test_validate_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="storage"):
            EngineConfig(storage="hologram").validate()
        with pytest.raises(ValueError, match="duplicate policy"):
            EngineConfig(duplicate_policy="maybe").validate()
        with pytest.raises(ValueError, match="decomposition"):
            EngineConfig(decomposition="psychic").validate()
        with pytest.raises(ValueError, match="join order"):
            EngineConfig(join_order="jnn").validate()
        # A session configured with a typo fails fast, not at register().
        from repro import Session
        with pytest.raises(ValueError, match="join order"):
            Session(window=30.0, config=EngineConfig(join_order="jnn"))
        with pytest.raises(ValueError, match="storage"):
            TimingMatcher.from_config(path_query(2), 6.0,
                                      EngineConfig(storage="hologram"))

    def test_config_is_recorded_on_the_engine(self):
        config = EngineConfig(decomposition="random", seed=7)
        matcher = TimingMatcher.from_config(path_query(3), 6.0, config)
        assert matcher.config == config

