"""Count-based sliding window + engine integration with the oracle."""

import pytest
from hypothesis import given, strategies as st

from repro import StreamEdge, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.graph.count_window import CountSlidingWindow

from ..conftest import fig5_query, random_stream


def edge(ts):
    return StreamEdge(f"u{ts}", f"v{ts}", src_label="A", dst_label="B",
                      timestamp=ts)


class TestCountWindow:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CountSlidingWindow(0)

    @pytest.mark.parametrize("capacity", [
        2.5, float("nan"), float("inf"), "3", True, 0, -2],
        ids=repr)
    def test_capacity_must_be_a_positive_integer(self, capacity):
        """2.5, inf and nan used to be accepted and never evict, so the
        window grew without bound; "3" failed at the first push."""
        with pytest.raises(ValueError, match="positive integer"):
            CountSlidingWindow(capacity)

    def test_a_whole_float_capacity_is_its_integer(self):
        w = CountSlidingWindow(3.0)
        assert w.capacity == 3 and type(w.capacity) is int
        for ts in range(1, 6):
            w.push(edge(float(ts)))
        assert len(w) == 3

    def test_eviction_is_fifo_at_capacity(self):
        w = CountSlidingWindow(2)
        assert w.push(edge(1)) == []
        assert w.push(edge(2)) == []
        assert [e.timestamp for e in w.push(edge(3))] == [1]
        assert [e.timestamp for e in w.edges()] == [2, 3]
        assert w.oldest().timestamp == 2
        assert w.newest().timestamp == 3

    def test_monotone_timestamps_enforced(self):
        w = CountSlidingWindow(3)
        w.push(edge(5))
        with pytest.raises(ValueError):
            w.push(edge(5))

    def test_advance_never_expires(self):
        w = CountSlidingWindow(2)
        w.push(edge(1))
        assert w.advance(1e9) == []
        assert len(w) == 1
        with pytest.raises(ValueError):
            w.advance(0.5)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=50))
    def test_size_never_exceeds_capacity(self, capacity, n):
        w = CountSlidingWindow(capacity)
        expired = 0
        for ts in range(1, n + 1):
            expired += len(w.push(edge(float(ts))))
        assert len(w) == min(capacity, n)
        assert expired == max(0, n - capacity)


class TestEngineWithCountWindow:
    def test_engine_accepts_window_object(self):
        matcher = TimingMatcher(fig5_query(), CountSlidingWindow(9))
        assert "|W|=9" in repr(matcher)

    def test_count_window_engine_matches_oracle(self):
        """The engine is window-policy-agnostic: with the same count window
        on both sides, Timing equals the naive oracle at every step."""
        query = fig5_query()
        engine = TimingMatcher(query, CountSlidingWindow(25))
        oracle = NaiveSnapshotMatcher(query, CountSlidingWindow(25))
        for e in random_stream(13, 120, 8, labels="abcdef"):
            assert set(engine.push(e)) == set(oracle.push(e))
        assert set(engine.current_matches()) == set(oracle.current_matches())

    def test_small_capacity_limits_matches(self):
        """A capacity smaller than the query size can never hold a match."""
        query = fig5_query()
        engine = TimingMatcher(query, CountSlidingWindow(4))
        total = 0
        for e in random_stream(13, 150, 8, labels="abcdef"):
            total += len(engine.push(e))
        assert total == 0
