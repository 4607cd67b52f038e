"""Engine edge cases and failure injection.

Covers the inputs a production deployment will eventually throw at the
engine: duplicate identities, out-of-order time, pathological queries
(single edge, all-same-label, star hubs), windows smaller than any match,
and bursty expiry (one arrival expiring hundreds of edges at once).
"""

import pytest

from repro import QueryGraph, StreamEdge, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher

from ..conftest import fig3_stream, fig5_query, make_edge


class TestIdentityAndTime:
    def test_duplicate_in_window_edge_id_rejected(self):
        matcher = TimingMatcher(fig5_query(), window=9.0)
        matcher.push(make_edge("e7", "f8", 1))
        clone = StreamEdge("x", "y", src_label="e", dst_label="f",
                           timestamp=2.0, edge_id=("e7", "f8", 1))
        with pytest.raises(ValueError, match="duplicate in-window edge id"):
            matcher.push(clone)

    def test_same_edge_id_allowed_after_expiry(self):
        matcher = TimingMatcher(fig5_query(), window=2.0)
        matcher.push(StreamEdge("e7", "f8", src_label="e", dst_label="f",
                                timestamp=1.0, edge_id="recycled"))
        matcher.push(make_edge("c4", "e7", 5.0))   # expires the first
        again = StreamEdge("e7", "f8", src_label="e", dst_label="f",
                           timestamp=6.0, edge_id="recycled")
        matcher.push(again)                         # must not raise
        assert matcher.window.current_time == 6.0

    def test_out_of_order_timestamp_rejected(self):
        matcher = TimingMatcher(fig5_query(), window=9.0)
        matcher.push(make_edge("e7", "f8", 5))
        with pytest.raises(ValueError):
            matcher.push(make_edge("c4", "e7", 5))
        with pytest.raises(ValueError):
            matcher.push(make_edge("c4", "e7", 4))


    def test_nan_time_refused_by_advance_time(self):
        """A ``NaN`` cutoff compares false both ways: the window would
        never expire anything again and grow without bound."""
        matcher = TimingMatcher(fig5_query(), window=2.0)
        matcher.push(make_edge("e7", "f8", 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            matcher.advance_time(float("nan"))
        matcher.advance_time(5.0)
        assert len(matcher.window) == 0

    def test_nan_arrival_refused_by_push(self):
        """A ``NaN`` arrival used to be accepted and to match."""
        query = QueryGraph()
        query.add_vertex("u", "e")
        query.add_vertex("v", "f")
        query.add_edge("e1", "u", "v")
        matcher = TimingMatcher(query, window=2.0)
        matcher.push(make_edge("e7", "f8", 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            matcher.push(make_edge("e7", "f9", float("nan")))
        assert matcher.result_count() == 1
        assert [e.timestamp for e in matcher.window] == [1.0]


class TestPathologicalQueries:
    def test_single_edge_query(self):
        q = QueryGraph()
        q.add_vertex("x", "a")
        q.add_vertex("y", "b")
        q.add_edge("only", "x", "y")
        matcher = TimingMatcher(q, window=9.0)
        total = sum(len(matcher.push(e)) for e in fig3_stream())
        assert total == 2                        # σ6 and σ8 (a→b)
        assert matcher.k == 1

    def test_all_same_label_star(self):
        """Star query with indistinguishable labels: the combinatorial case
        the injectivity checks must survive."""
        q = QueryGraph()
        q.add_vertex("hub", "A")
        for i in range(3):
            q.add_vertex(f"leaf{i}", "A")
            q.add_edge(f"e{i}", "hub", f"leaf{i}")
        q.add_timing_chain("e0", "e1", "e2")
        matcher = TimingMatcher(q, window=100.0)
        oracle = NaiveSnapshotMatcher(q, window=100.0)
        t = 0.0
        edges = []
        for src in ("h1", "h2"):
            for dst in ("l1", "l2", "l3", "l4"):
                t += 1.0
                edges.append(StreamEdge(src, dst, src_label="A",
                                        dst_label="A", timestamp=t))
        for edge in edges:
            assert set(matcher.push(edge)) == set(oracle.push(edge))
        # 2 hubs × ordered choices of 3 distinct leaves out of 4 with
        # ascending timestamps = C(4,3) per hub.
        assert matcher.result_count() == 8

    def test_window_smaller_than_any_match(self):
        q = fig5_query()
        matcher = TimingMatcher(q, window=0.5)
        total = sum(len(matcher.push(e)) for e in fig3_stream())
        assert total == 0
        assert matcher.space_cells() <= 10   # at most the newest edge's entry


class TestBurstyExpiry:
    def test_single_arrival_expiring_many_edges(self):
        """A long silence followed by one arrival expires the whole window
        in one push — registries and trees must drain completely."""
        q = fig5_query()
        matcher = TimingMatcher(q, window=50.0)
        t = 0.0
        for i in range(300):
            t += 0.1
            matcher.push(StreamEdge(f"d{i % 7}", f"b{i % 5}",
                                    src_label="d", dst_label="b",
                                    timestamp=t))
        assert matcher.space_cells() > 0
        matcher.push(make_edge("e7", "f8", t + 1000.0))
        # Everything but the new arrival expired.
        assert len(matcher.window) == 1
        profile = matcher.store_profile()
        assert sum(profile.values()) == 1    # the σ-matching level-1 entry

    def test_interleaved_advance_and_push(self):
        q = fig5_query()
        matcher = TimingMatcher(q, window=3.0)
        oracle = NaiveSnapshotMatcher(q, window=3.0)
        stream = fig3_stream()
        for edge in stream:
            # Occasionally advance time between arrivals.
            matcher.advance_time(edge.timestamp - 0.01)
            oracle.advance_time(edge.timestamp - 0.01)
            assert set(matcher.push(edge)) == set(oracle.push(edge))
