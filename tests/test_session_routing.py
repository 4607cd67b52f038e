"""Shared-stream routing: what it skips and what it leaves behind.

That a session answers exactly what the naive matcher answers, with one
buffer per window group, through a checkpoint taken from inside a sink
and a callback that deregisters a query the same arrival has yet to
reach, is
``tests/test_session_model.py``'s job.  Pinned here: what routing skips
and that deregistration leaves nothing behind.
"""

from repro import ANY, Session

from .conftest import labeled_path_query, labeled_stream


class TestRoutingCounters:
    def test_non_routed_matchers_are_skipped_and_discardable(self):
        session = Session(window=50.0)
        session.register("p1x", labeled_path_query(1, elabels=("x",)))
        session.register("p1y", labeled_path_query(1, elabels=("y",)))
        edges = labeled_stream(29, 120)
        session.push_many(edges)
        stats = session.session_stats()
        assert stats["edges_pushed"] == len(edges)
        assert stats["skipped_matchers"] > 0
        assert stats["routed_pushes"] + stats["skipped_matchers"] == \
            2 * len(edges)
        # Routing skips exactly the label-level-discardable arrivals.
        for edge in edges[:40]:
            routed = {record.name
                      for _, record in session._index.targets(edge)}
            for name in session.names():
                if name not in routed:
                    assert session.matcher(name).is_discardable(edge)


class TestChurn:
    def test_deregister_leaves_no_index_or_subscription_residue(self):
        session = Session(window=6.0)
        session.register("a", labeled_path_query(2, elabels=("x", "y")))
        session.register("w", labeled_path_query(1, elabels=(ANY,)))
        edges = labeled_stream(41, 60)
        session.push_many(edges[:30])
        group_key = ("time", 6.0)
        group_window = session._admission.groups[group_key].window
        session.deregister("a")
        # Only the stateless "w" is left: nothing more is held for expiry.
        assert session._admission.groups[group_key].stateful == 0
        session.deregister("w")
        assert session._index.exact == {}
        assert len(session._index.router) == 0
        assert session._index.always == []
        assert session._queries == {}
        assert session._index.entries == {}
        # Last member out frees the group and its buffer.
        assert group_key not in session._admission.groups
        assert session.shared_window_cells() == 0
        # A fresh registration after total churn keeps streaming.
        session.register("b", labeled_path_query(1, elabels=("x",)))
        session.push_many(edges[30:])
        assert session._admission.groups[group_key].window is not group_window
