"""Unit tests for the shared-window substrate: the returned-list expiry
contract of both window policies and of the :class:`SharedSlidingWindow`
wrapper (id index, duplicate probes), and the per-matcher read-only view.
"""

import pickle

import pytest

from repro import StreamEdge
from repro.graph.count_window import CountSlidingWindow
from repro.graph.shared_window import (
    SharedSlidingWindow, SharedWindowView, window_policy_key,
)
from repro.graph.window import SlidingWindow

from ..conftest import make_edge


def flow(ts, edge_id="flow"):
    return StreamEdge("a1", "b1", src_label="A", dst_label="A",
                      timestamp=ts, edge_id=edge_id)


WINDOW_FACTORIES = {
    "time": lambda: SlidingWindow(5.0),
    "shared-time": lambda: SharedSlidingWindow(SlidingWindow(5.0)),
    "count": lambda: CountSlidingWindow(2),
    "shared-count": lambda: SharedSlidingWindow(CountSlidingWindow(2)),
}


class TestReturnedList:
    """``push``/``advance`` return what they dropped, oldest first — the
    one way an expiry leaves any window class."""

    @pytest.mark.parametrize("kind", ["time", "shared-time"])
    def test_time_expiries_in_order(self, kind):
        window = WINDOW_FACTORIES[kind]()
        for t in (1.0, 2.0, 3.0):
            assert window.push(make_edge("a1", "b1", t)) == []
        dropped = window.advance(7.5)           # expires t=1 and t=2
        assert [e.timestamp for e in dropped] == [1.0, 2.0]
        dropped = window.push(make_edge("a2", "b2", 9.0))   # t=3, via push
        assert [e.timestamp for e in dropped] == [3.0]
        assert window.advance(9.5) == []

    @pytest.mark.parametrize("kind", ["count", "shared-count"])
    def test_count_eviction_is_returned(self, kind):
        window = WINDOW_FACTORIES[kind]()
        dropped = [window.push(make_edge("a1", "b1", t))
                   for t in (1.0, 2.0, 3.0, 4.0)]
        assert [[e.timestamp for e in d] for d in dropped] == \
            [[], [], [1.0], [2.0]]
        assert window.advance(1e9) == []        # never by time alone

    @pytest.mark.parametrize("kind", sorted(WINDOW_FACTORIES))
    def test_membership_follows_the_list(self, kind):
        """``edge in window`` is true exactly until the edge has been
        returned as dropped — by id, so a same-id twin counts."""
        window = WINDOW_FACTORIES[kind]()
        views = [window]
        if isinstance(window, SharedSlidingWindow):
            views.append(SharedWindowView(window))
        first, twin = flow(1.0, "x"), flow(99.0, "x")
        assert all(first not in view for view in views)
        window.push(first)
        assert all(first in view and twin in view for view in views)
        dropped = []
        for t in (10.0, 11.0):
            dropped += window.push(flow(t, f"later{t}"))
        assert dropped == [first]
        assert all(first not in view and twin not in view
                   for view in views)
        assert all(flow(0.0, "later11.0") in view for view in views)


class TestPolicyKey:
    def test_keys_group_by_policy_parameters(self):
        assert window_policy_key(SlidingWindow(5.0)) == \
            window_policy_key(SlidingWindow(5.0)) == ("time", 5.0)
        assert window_policy_key(CountSlidingWindow(7)) == ("count", 7)
        assert window_policy_key(SlidingWindow(5.0)) != \
            window_policy_key(SlidingWindow(6.0))

    def test_unshareable_policies_have_no_key(self):
        class CustomWindow(SlidingWindow):
            pass

        assert window_policy_key(CustomWindow(5.0)) is None
        assert window_policy_key(object()) is None


class TestSharedSlidingWindow:
    def test_rejects_non_policy_and_non_empty_policy(self):
        with pytest.raises(TypeError, match="shareable"):
            SharedSlidingWindow(object())
        window = SlidingWindow(5.0)
        window.push(make_edge("a1", "b1", 1.0))
        with pytest.raises(ValueError, match="empty"):
            SharedSlidingWindow(window)

    def test_bearer_index_tracks_live_ids(self):
        shared = SharedSlidingWindow(SlidingWindow(5.0))
        shared.push(make_edge("a1", "b1", 1.0))
        assert shared.bearer_timestamp("a1->b1@1.0") is None  # auto ids differ
        edge = make_edge("a2", "b2", 2.0)
        shared.push(edge)
        assert shared.bearer_timestamp(edge.edge_id) == 2.0
        shared.advance(7.5)                 # expires both
        assert shared.bearer_timestamp(edge.edge_id) is None
        assert len(shared) == 0

    def test_bearer_live_at_accounts_for_self_triggered_expiry(self):
        shared = SharedSlidingWindow(SlidingWindow(5.0))
        edge = make_edge("a1", "b1", 1.0)
        shared.push(edge)
        assert shared.bearer_live_at(edge.edge_id, 5.9)
        assert not shared.bearer_live_at(edge.edge_id, 6.1)

    def test_count_policy_bearer_never_expires_by_time(self):
        shared = SharedSlidingWindow(CountSlidingWindow(3))
        edge = make_edge("a1", "b1", 1.0)
        shared.push(edge)
        assert shared.bearer_live_at(edge.edge_id, 1e9)

    def test_coexisting_same_id_bearers_pair_by_timestamp(self):
        """The buffer itself refuses nothing (duplicate policy is the
        session's business): driven directly it admits same-id bearers,
        keeps the latest bearer's timestamp, and prunes the index entry
        only when *that* bearer is in the returned list — an older
        bearer's expiry never clobbers the newer entry."""
        shared = SharedSlidingWindow(SlidingWindow(5.0))
        shared.push(flow(1.0))
        shared.push(flow(2.0))
        assert shared.bearer_timestamp("flow") == 2.0
        dropped = shared.advance(6.5)       # expires only the t=1 bearer
        assert [e.timestamp for e in dropped] == [1.0]
        assert shared.bearer_timestamp("flow") == 2.0
        assert shared.bearer_live_at("flow", 6.5)
        assert flow(0.0) in shared          # the t=2 bearer is still held
        dropped = shared.advance(7.5)       # expires the t=2 bearer
        assert [e.timestamp for e in dropped] == [2.0]
        assert shared.bearer_timestamp("flow") is None
        assert flow(0.0) not in shared

    def test_count_eviction_prunes_the_index_timestamp_paired(self):
        shared = SharedSlidingWindow(CountSlidingWindow(2))
        shared.push(flow(1.0))
        shared.push(flow(2.0))              # same id, newer bearer
        dropped = shared.push(flow(3.0, "other"))
        assert [e.timestamp for e in dropped] == [1.0]
        assert shared.bearer_timestamp("flow") == 2.0
        dropped = shared.push(flow(4.0, "another"))
        assert [e.timestamp for e in dropped] == [2.0]
        assert shared.bearer_timestamp("flow") is None
        assert shared.bearer_timestamp("other") == 3.0

    def test_reused_id_after_expiry_is_not_a_duplicate(self):
        """A bearer past the window must not block its id's re-use, even
        before an advance has physically dropped it from the deque."""
        shared = SharedSlidingWindow(SlidingWindow(5.0))
        shared.push(StreamEdge("a1", "b1", src_label="A", dst_label="A",
                               timestamp=1.0, edge_id="flow"))
        assert not shared.bearer_live_at("flow", 20.0)
        shared.push(StreamEdge("a2", "b2", src_label="A", dst_label="A",
                               timestamp=20.0, edge_id="flow"))
        assert shared.bearer_timestamp("flow") == 20.0
        assert len(shared) == 1             # the push advanced the old out


class TestSharedWindowView:
    def test_view_reads_the_shared_buffer(self):
        shared = SharedSlidingWindow(SlidingWindow(5.0))
        view = SharedWindowView(shared)
        assert view.duration == 5.0
        edge = make_edge("a1", "b1", 1.0)
        shared.push(edge)
        assert len(view) == 1 and edge in view
        assert view.edges() == [edge]
        assert view.oldest() is view.newest() is edge
        assert view.current_time == 1.0

    def test_view_refuses_mutation(self):
        view = SharedWindowView(SharedSlidingWindow(SlidingWindow(5.0)))
        with pytest.raises(RuntimeError, match="Session"):
            view.push(make_edge("a1", "b1", 1.0))
        with pytest.raises(RuntimeError, match="Session"):
            view.advance(2.0)

    def test_count_view_exposes_capacity_not_duration(self):
        view = SharedWindowView(SharedSlidingWindow(CountSlidingWindow(4)))
        assert view.capacity == 4
        assert getattr(view, "duration", None) is None

    def test_pickle_round_trip_preserves_buffer_and_index(self):
        shared = SharedSlidingWindow(SlidingWindow(5.0))
        edge = make_edge("a1", "b1", 1.0)
        shared.push(edge)
        view = SharedWindowView(shared)
        restored = pickle.loads(pickle.dumps((shared, view)))
        shared2, view2 = restored
        assert view2.shared is shared2          # identity preserved
        assert len(view2) == 1
        assert shared2.bearer_timestamp(edge.edge_id) == 1.0
