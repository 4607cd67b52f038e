"""Sliding-window semantics (Definition 2): span (t − |W|, t], FIFO expiry."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro import (
    CountSlidingWindow, QueryGraph, SlidingWindow, StreamEdge, TimingMatcher,
    as_window,
)


def edge(ts: float) -> StreamEdge:
    return StreamEdge(f"u{ts}", f"v{ts}", src_label="A", dst_label="B",
                      timestamp=ts)


class TestBasics:
    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)
        with pytest.raises(ValueError):
            SlidingWindow(-1.5)

    @pytest.mark.parametrize("duration", [
        float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_refused(self, duration):
        """``nan <= 0`` is false, so a NaN window used to be accepted and
        then expired nothing, ever; an infinite one the same."""
        with pytest.raises(ValueError, match="positive and finite"):
            SlidingWindow(duration)

    def test_a_bool_is_not_a_duration(self):
        """``True == 1``, but ``as_window`` refuses a bool and so does the
        window itself."""
        with pytest.raises(ValueError, match="positive and finite"):
            SlidingWindow(True)

    @pytest.mark.parametrize("duration", [10**400, 2**1024, -10**400])
    def test_an_int_no_float_holds_is_refused(self, duration):
        """``0 < 10**400 < inf`` is true for a Python int, but the slide's
        ``t - duration`` has no float: the window must refuse it at
        construction, not raise ``OverflowError`` at the first push."""
        query = QueryGraph()
        query.add_vertex("u", "A")
        query.add_vertex("v", "B")
        query.add_edge("e", "u", "v")
        with pytest.raises(ValueError, match="positive and finite"):
            SlidingWindow(duration)
        with pytest.raises(ValueError, match="positive and finite"):
            as_window(duration)
        with pytest.raises(ValueError, match="positive and finite"):
            TimingMatcher(query, duration)

    def test_the_longest_window_slides(self):
        """The largest float, and a large int that fits in one, are
        windows like any other."""
        for duration in (sys.float_info.max, 10**300):
            w = SlidingWindow(duration)
            assert w.push(edge(1.0)) == []
            assert w.push(edge(2.0)) == [] and len(w) == 2
            assert w.advance(3.0) == []

    def test_an_empty_expiry_list_is_the_callers_own(self):
        """``push`` returns a fresh list also when nothing expires, so a
        caller that keeps or extends one changes no later answer."""
        for w in (SlidingWindow(10), CountSlidingWindow(5)):
            first = w.push(edge(1.0))
            first.append(edge(99.0))
            assert w.push(edge(2.0)) == [] and w.advance(3.0) == []

    def test_push_and_len(self):
        w = SlidingWindow(10)
        assert len(w) == 0
        w.push(edge(1))
        w.push(edge(2))
        assert len(w) == 2
        assert w.oldest().timestamp == 1
        assert w.newest().timestamp == 2

    def test_timestamps_must_strictly_increase(self):
        w = SlidingWindow(10)
        w.push(edge(5))
        with pytest.raises(ValueError):
            w.push(edge(5))
        with pytest.raises(ValueError):
            w.push(edge(4))

    def test_time_cannot_move_backwards(self):
        w = SlidingWindow(10)
        w.advance(7)
        with pytest.raises(ValueError):
            w.advance(6)


class TestExpiry:
    def test_paper_example_sigma1_expires_at_t10(self):
        """Fig. 4: with |W| = 9, σ1 (t=1) is in the window at t=9 but
        expires at t=10 because the span becomes (1, 10]."""
        w = SlidingWindow(9)
        for ts in range(1, 10):
            assert w.push(edge(ts)) == []
        expired = w.push(edge(10))
        assert [e.timestamp for e in expired] == [1]

    def test_boundary_is_half_open(self):
        # Span is (t − |W|, t]: an edge exactly at t − |W| is out.
        w = SlidingWindow(5)
        w.push(edge(0))
        assert [e.timestamp for e in w.push(edge(5))] == [0]
        assert len(w) == 1

    def test_multiple_expiries_in_order(self):
        w = SlidingWindow(5)
        for ts in (1, 2, 3):
            assert w.push(edge(ts)) == []
        expired = w.push(edge(10))
        assert [e.timestamp for e in expired] == [1, 2, 3]

    def test_advance_without_push(self):
        w = SlidingWindow(3)
        w.push(edge(1))
        w.push(edge(2))
        assert [e.timestamp for e in w.advance(4.5)] == [1]
        assert [e.timestamp for e in w.edges()] == [2]


class TestProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=5.0,
                              allow_nan=False), min_size=1, max_size=60),
           st.floats(min_value=0.5, max_value=20.0))
    def test_window_invariant_all_in_span(self, gaps, duration):
        """After any push sequence, every retained edge lies in
        (t − |W|, t] and edges are in timestamp order."""
        w = SlidingWindow(duration)
        t = 0.0
        for gap in gaps:
            t += gap
            w.push(edge(t))
            kept = [e.timestamp for e in w.edges()]
            assert all(t - duration < ts <= t for ts in kept)
            assert kept == sorted(kept)

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0,
                              allow_nan=False), min_size=1, max_size=60),
           st.floats(min_value=0.5, max_value=20.0))
    def test_conservation_pushed_equals_kept_plus_expired(self, gaps, duration):
        w = SlidingWindow(duration)
        t, expired_total = 0.0, 0
        for gap in gaps:
            t += gap
            expired_total += len(w.push(edge(t)))
        assert expired_total + len(w) == len(gaps)
