"""Sliding-window semantics (Definition 2): span (t − |W|, t], FIFO expiry."""

import pytest
from hypothesis import given, strategies as st

from repro import SlidingWindow, StreamEdge


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
