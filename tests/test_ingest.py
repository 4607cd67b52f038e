"""The two shared ingest stages: :class:`Admission` and :class:`RouteIndex`.

Both sessions hold one of each (see :mod:`repro.ingest`), so their
contracts are pinned here once: the route index against a brute-force scan
of the registered queries under churn, admission against "a rejected
arrival changes nothing".
"""

import io
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ANY, Prefix, QueryGraph, Session, StreamEdge
from repro.api import _QueryRecord
from repro.ingest import ALWAYS_ROUTED, Admission, RouteIndex

# Small label pools so exact, prefix and wildcard queries collide often.
DATA_LABELS = ["a", "ab", "4", "44", "448", 44, ("a", "b"), ["a"]]
QUERY_LABELS = ["a", "ab", "44", 44, Prefix("4"), Prefix("44"), Prefix("a"),
                ANY, ("a", ANY), ["a"]]

query_specs = st.lists(
    st.tuples(st.sampled_from(QUERY_LABELS), st.sampled_from(QUERY_LABELS),
              st.sampled_from(QUERY_LABELS), st.booleans()),
    min_size=1, max_size=12)
arrivals = st.lists(
    st.tuples(st.sampled_from(DATA_LABELS), st.sampled_from(DATA_LABELS),
              st.sampled_from(DATA_LABELS), st.booleans()),
    min_size=1, max_size=12)


def one_edge_query(src_label, edge_label, dst_label, is_loop) -> QueryGraph:
    query = QueryGraph()
    query.add_vertex("u", src_label)
    if is_loop:
        query.add_edge("e", "u", "u", label=edge_label)
    else:
        query.add_vertex("v", dst_label)
        query.add_edge("e", "u", "v", label=edge_label)
    return query


def arrival(src_label, edge_label, dst_label, is_loop) -> StreamEdge:
    return StreamEdge("x", "x" if is_loop else "y", src_label=src_label,
                      dst_label=src_label if is_loop else dst_label,
                      timestamp=1.0, label=edge_label)


def brute_force_targets(registered, edge):
    """The specification: scan every registered query."""
    try:
        hash((edge.src_label, edge.label, edge.dst_label))
    except TypeError:       # unhashable data label: everyone judges it
        return sorted({payload for payload, _ in registered.values()})
    return sorted({
        payload for payload, query in registered.values()
        if query is None or query.label_signatures()[2]
        or query.matching_edge_ids(edge)})


class TestRouteIndexProperties:
    @given(query_specs, arrivals, st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, None]))
    @settings(max_examples=150, deadline=None)
    def test_targets_equal_brute_force_under_churn(
            self, specs, probe_specs, seed, shards):
        """``shards=None`` gives every query its own ``(ordinal, name)``
        payload (the unsharded session); an integer folds queries onto
        that many shared payloads (the sharded facade)."""
        rng = random.Random(seed)
        index = RouteIndex()
        registered = {}
        probes = [arrival(*spec) for spec in probe_specs]

        def check():
            # Every probe, every time: a memo surviving the last
            # add/remove would serve a pre-churn list here.
            for edge in probes:
                assert index.targets(edge) == \
                    brute_force_targets(registered, edge)

        for ordinal, spec in enumerate(specs):
            if registered and rng.random() < 0.4:
                victim = rng.choice(sorted(registered))
                index.remove(victim)
                del registered[victim]
                check()
            name = f"q{ordinal}"
            payload = (ordinal, name) if shards is None else ordinal % shards
            if rng.random() < 0.15:
                index.add(name, payload, ALWAYS_ROUTED)
                registered[name] = (payload, None)
            else:
                query = one_edge_query(*spec)
                index.add(name, payload, query.label_signatures())
                registered[name] = (payload, query)
            check()
        for name in sorted(registered):
            index.remove(name)
        # Removing everything leaves no residue anywhere.
        assert index.exact == {} and index.always == []
        assert index.entries == {} and index.memo == {}
        assert len(index.router) == 0 and index.router.node_count() == 3
        assert all(index.targets(edge) == [] for edge in probes)

    def test_cache_is_bounded(self):
        index = RouteIndex()
        index.add("p", 0, one_edge_query(
            Prefix("4"), None, ANY, False).label_signatures())
        for i in range(RouteIndex.CACHE_CAP + 50):
            edge = arrival(f"4{i}", None, "z", False)
            assert index.targets(edge) == [0]
        assert len(index.memo) <= RouteIndex.CACHE_CAP


    @pytest.mark.parametrize("first", [True, 1.0])
    def test_memo_tells_equal_labels_of_different_type_apart(self, first):
        """``1 == True == 1.0`` (and they hash alike), but a prefix
        predicate matches only the int's decimal text: a memo keyed on
        label values alone served ``1`` the target list resolved for
        ``True`` — missing the prefix query — and would serve ``True``
        the list resolved for ``1``."""
        def session():
            session = Session(window=100.0)
            session.register("any", one_edge_query(ANY, ANY, ANY, False))
            session.register("pre", one_edge_query(
                ANY, Prefix("1"), ANY, False))
            return session

        def labelled(label, timestamp):
            return StreamEdge("x", "y", src_label="s", dst_label="d",
                              timestamp=timestamp, label=label)

        warm = session()
        assert [n for n, _ in warm.push(labelled(first, 1.0))] == ["any"]
        assert [n for n, _ in warm.push(labelled(1, 2.0))] == ["any", "pre"]
        assert [n for n, _ in warm.push(labelled(first, 3.0))] == ["any"]
        assert [n for n, _ in session().push(labelled(1, 1.0))] \
            == ["any", "pre"]


def edge(edge_id, timestamp):
    return StreamEdge("x", "y", src_label="A", dst_label="B",
                      timestamp=timestamp, edge_id=edge_id)


# Roster entries as a session enrolls them: (ordinal, query record).
Q = (0, _QueryRecord("q", 0, None, None, None))
C = (1, _QueryRecord("c", 1, None, None, None))


def fingerprint(session):
    """Everything a session holds: its checkpoint is the query list and
    the windows, its engines are read through the two state queries."""
    buffer = io.BytesIO()
    session.checkpoint(buffer)
    return (buffer.getvalue(), session.space_cells(),
            {name: Counter(matches)
             for name, matches in session.current_matches().items()})


def admission_with(policy, *, window=5.0):
    admission = Admission()
    admission.enroll(("time", window), Q, policy)
    admission.enroll(("count", 3.0), C, policy)
    admission.admit(edge("first", 1.0))
    admission.admit(edge("second", 2.0))
    return admission


class TestAdmission:
    @pytest.mark.parametrize("rejected, forced, message", [
        (edge("late", 2.0), None, "strictly increase"),
        (edge("first", 3.0), None, "duplicate in-window edge id"),
        (edge("fresh", 3.0), frozenset({("time", 5.0)}),
         "duplicate in-window edge id"),
    ])
    def test_rejected_arrival_changes_nothing(self, rejected, forced,
                                              message):
        admission = admission_with("raise")
        before = pickle.dumps(admission)
        with pytest.raises(ValueError, match=message):
            admission.admit(rejected, forced)
        assert pickle.dumps(admission) == before
        # ...so the corrected feed carries on from the same position.
        assert admission.admit(edge("third", 3.0)) is None
        assert admission.edges_pushed == 3

    @pytest.mark.parametrize("rejected, message", [
        (edge("late", 2.0), "strictly increase"),
        (edge("first", 3.0), "duplicate in-window edge id"),
    ])
    def test_rejected_arrival_changes_no_session_with_stateless_members(
            self, rejected, message):
        """The same contract one level up, over members that hold no
        per-edge state for the session to have touched: one-edge queries
        (stateless plan) beside a stored two-edge one."""
        session = Session(window=5.0)
        session.register("one", one_edge_query("A", ANY, "B", False))
        session.register("any", one_edge_query(ANY, ANY, ANY, False))
        stored = QueryGraph()
        for vertex, label in (("u", "A"), ("v", "B"), ("w", ANY)):
            stored.add_vertex(vertex, label)
        stored.add_edge("e1", "u", "v")
        stored.add_edge("e2", "v", "w")
        session.register("two", stored)
        assert len(session.push_many(
            [edge("first", 1.0), edge("second", 2.0)])) == 4
        before = fingerprint(session)
        with pytest.raises(ValueError, match=message):
            session.push(rejected)
        assert fingerprint(session) == before
        # The stored member's cells plus the two window cells the
        # stateless members' answers pin (each once, though both match).
        assert session.space_cells() \
            == session.matcher("two").space_cells() + 2
        assert [n for n, _ in session.push(edge("third", 3.0))] \
            == ["one", "any"]
        assert session.result_counts() == {"one": 3, "any": 3, "two": 0}

    def test_rejection_names_every_rejecter_in_registration_order(self):
        admission = admission_with("raise")
        with pytest.raises(ValueError) as info:
            admission.admit(edge("first", 3.0), offenders=[
                (7, _QueryRecord("private", 7, None, None, None))])
        assert "['q', 'c', 'private']" in str(info.value)

    @pytest.mark.parametrize("policy", ["skip", "count"])
    def test_drop_policies_advance_time_without_buffering(self, policy):
        admission = admission_with(policy)
        live = admission.admit(edge("first", 3.0))
        assert live == {("time", 5.0), ("count", 3.0)}
        assert admission.clock == 3.0 and admission.edges_pushed == 3
        for group in admission.groups.values():
            assert len(group.window) == 2
            assert group.window.current_time == 3.0
        # Past the time window the bearer is gone, so the id is fresh
        # there; a count window only expires by capacity.
        assert admission.admit(edge("first", 6.5)) == {("count", 3.0)}

    def test_expired_edges_reach_the_subscriber_and_groups_free(self):
        seen = []
        admission = Admission(lambda key, old: seen.append((key, old)))
        admission.enroll(("time", 2.0), Q, "raise")
        first = edge("first", 1.0)
        admission.admit(first)
        admission.admit(edge("second", 3.5))
        assert seen == [(("time", 2.0), [first])]
        admission.advance(10.0)
        assert [[e.edge_id for e in old] for _, old in seen] \
            == [["first"], ["second"]]
        with pytest.raises(ValueError, match="time moves backwards"):
            admission.advance(9.0)
        admission.withdraw(("time", 2.0), Q)
        assert admission.groups == {}
