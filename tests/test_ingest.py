"""The two shared ingest stages: :class:`Admission` and :class:`RouteIndex`.

Both sessions hold one of each (see :mod:`repro.ingest`), so their
contracts are pinned here once: the route index against a brute-force scan
of the registered queries under churn, admission against "a rejected
arrival changes nothing".
"""

import io
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ANY, Prefix, QueryGraph, Session, StreamEdge
from repro.api import _QueryRecord
from repro.ingest import Admission, RouteIndex

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


_ORDINALS = itertools.count()


def register(index, registered, name, spec):
    """Route a one-edge query over ``spec`` — or, for ``None``, a generic
    (always-routed) entry — under a fresh ordinal, as a session would."""
    payload = (next(_ORDINALS), name)
    if spec is None:
        index.add(name, payload, ((), (), True))   # generic
        registered[name] = (payload, None)
    else:
        query = one_edge_query(*spec)
        index.add(name, payload, query.label_signatures())
        registered[name] = (payload, query)
    return payload


class TestRouteIndexProperties:
    @given(query_specs, arrivals, st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_targets_equal_brute_force_under_churn(
            self, specs, probe_specs, seed):
        """Every query routes its own ``(ordinal, name)`` payload, as a
        session's records do."""
        rng = random.Random(seed)
        index = RouteIndex()
        registered = {}
        probes = [arrival(*spec) for spec in probe_specs]

        def check():
            # Every probe, every time: a resolved list surviving the
            # add/remove that changed its bucket would serve a pre-churn
            # list here.
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
            payload = (ordinal, name)
            if rng.random() < 0.15:
                index.add(name, payload, ((), (), True))   # generic
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
        assert index.entries == {} and index.resolved_count() == 0
        assert len(index.router) == 0 and index.router.node_count() == 3
        assert all(index.targets(edge) == [] for edge in probes)

    def test_resolved_lists_are_bounded_by_the_buckets(self):
        """10,000 distinct labels over two prefix buckets, one ``eq``
        bucket, one exact triple and an always-routed entry: the lists
        are keyed by bucket, not by label, so at most the four buckets
        plus one no-hit list per loop flag are ever held."""
        index, registered = RouteIndex(), {}
        for name, spec in {"p4": (Prefix("4"), ANY, ANY, False),
                           "p44": (Prefix("44"), ANY, ANY, False),
                           "eq": (ANY, "e", ANY, True),
                           "x": ("45", "n", "z", False),
                           "all": None}.items():
            register(index, registered, name, spec)
        for i in range(10_000):
            edge = arrival(f"4{i}", "e" if i % 3 else "n", "z", i % 2 == 0)
            assert index.targets(edge) == \
                brute_force_targets(registered, edge)
        assert 0 < index.resolved_count() <= 4 + 2

    @pytest.mark.parametrize("first", [True, 1.0])
    def test_routes_tell_equal_labels_of_different_type_apart(self, first):
        """``1 == True == 1.0`` (and they hash alike), but a prefix
        predicate matches only the int's decimal text: a resolved list
        keyed on the label value (rather than on the bucket its text
        hits) would serve ``1`` the list resolved for ``True`` — missing
        the prefix query — and ``True`` the list resolved for ``1``."""
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


class TestResolvedLists:
    """One prebuilt list per route bucket: kept across churn elsewhere,
    dropped with its own bucket or its loop flag's always-routed set, and
    equal to the brute-force scan whichever path built it."""

    def test_cold_churn_leaves_a_hot_buckets_list_alone(self):
        index, registered = RouteIndex(), {}
        register(index, registered, "hot", (ANY, Prefix("10"), ANY, False))
        register(index, registered, "wild", (ANY, ANY, ANY, False))
        register(index, registered, "cold", (ANY, Prefix("300"), ANY, False))
        register(index, registered, "twin", (ANY, Prefix("300"), ANY, False))
        hot_edge = arrival("ip", 1042, "ip", False)
        cold_edge = arrival("ip", 30017, "ip", False)
        hot = index.targets(hot_edge)
        assert [name for _, name in hot] == ["hot", "wild"]
        for name in ("cold", "twin"):
            # A deregister + register pair, as session_churn1k runs it;
            # the bucket outlives each half, so its list must be rebuilt.
            index.remove(name)
            del registered[name]
            assert index.targets(cold_edge) == \
                brute_force_targets(registered, cold_edge)
            register(index, registered, name,
                     (ANY, Prefix("300"), ANY, False))
            assert index.targets(cold_edge) == \
                brute_force_targets(registered, cold_edge)
            assert index.targets(hot_edge) is hot

    def test_an_always_routed_change_refreshes_its_loop_flags_lists(self):
        index, registered = RouteIndex(), {}
        register(index, registered, "hot", (ANY, Prefix("10"), ANY, False))
        register(index, registered, "ring", (ANY, Prefix("10"), ANY, True))
        register(index, registered, "exact", ("ip", 7, "ip", False))
        register(index, registered, "loop", (ANY, ANY, ANY, True))
        edges = [arrival("ip", label, "ip", loop)
                 for label in (1042, 55, 7) for loop in (False, True)]

        def lists():
            got = [index.targets(edge) for edge in edges]
            assert got == [brute_force_targets(registered, edge)
                           for edge in edges]
            return got

        before = lists()
        wild = register(index, registered, "wild", (ANY, ANY, ANY, False))
        after = lists()
        for edge, old, new in zip(edges, before, after):
            if edge.src == edge.dst:
                assert new is old
            else:
                assert wild in new and wild not in old
        index.remove("wild")
        del registered["wild"]
        assert all(wild not in targets for targets in lists())
        # A generic entry is every arrival's: every list is rebuilt.
        before = lists()
        generic = register(index, registered, "generic", None)
        assert all(generic in new and new is not old
                   for old, new in zip(before, lists()))

    @pytest.mark.parametrize("specs", [
        # An exact triple beside a prefix bucket it overlaps, and one
        # filed twice, so churn leaves its bucket alive.
        [("ip", 44, "ip", False), (ANY, Prefix("4"), ANY, False),
         ("ip", 44, "ip", True), ("ip", 5, "ip", False),
         ("ip", 5, "ip", False)],
        # Two prefix lengths over one position, under both loop flags;
        # the shorter one filed twice.
        [(ANY, Prefix("4"), ANY, False), (ANY, Prefix("44"), ANY, False),
         (ANY, Prefix("4"), ANY, True), (ANY, ANY, ANY, True),
         (ANY, Prefix("4"), ANY, False)],
        # Tokens counted over two or three positions, beside one-position
        # buckets at each of those positions.
        [("ip", Prefix("4"), ANY, False), (Prefix("i"), ANY, "op", False),
         ("ip", Prefix("4"), Prefix("o"), False), ("ip", ANY, ANY, False),
         (ANY, ANY, "op", False), (ANY, Prefix("44"), ANY, False),
         ("ip", Prefix("4"), ANY, True)],
    ], ids=["exact_and_prefix", "two_prefix_lengths", "multi_position"])
    def test_every_path_equals_brute_force_under_churn(self, specs):
        labels = ["ip", "op", "i", 4, 44, 448, "4", "44x", 5]
        probes = [arrival(src, label, dst, loop) for src in ("ip", "op", 4)
                  for label in labels for dst in ("ip", "op")
                  for loop in (False, True)]
        index, registered = RouteIndex(), {}

        def check():
            for _ in range(2):      # once resolving, once resolved
                for edge in probes:
                    assert index.targets(edge) == \
                        brute_force_targets(registered, edge)

        for i, spec in enumerate(specs):
            register(index, registered, f"q{i}", spec)
            check()
        for name in sorted(registered):
            index.remove(name)
            del registered[name]
            check()
        assert index.resolved_count() == 0


def structures(index):
    """Every structure a route entry edits, copied down to its sets: the
    exact dict, the always list and entry records, the router's entries,
    buckets (values and prefix patterns), pattern lengths, live
    positions and always sets, the resolved lists (the list objects themselves, by key) and
    the exact-only flag."""
    router = index.router

    def positions(pair):
        values, tries = pair
        return ([{value: set(tokens) for value, tokens in by.items()}
                 for by in values],
                [({pattern: set(tokens)
                   for pattern, tokens in trie._buckets.items()},
                  dict(trie._lengths)) for trie in tries])

    return {
        "exact": {triple: list(bucket)
                  for triple, bucket in index.exact.items()},
        "always": list(index.always), "entries": dict(index.entries),
        "router.entries": dict(router._entries),
        "router.single": {flag: positions(router._single[flag])
                          for flag in (False, True)},
        "router.live": {flag: [slot[0] for slot in router._live[flag]]
                        for flag in (False, True)},
        "router.multi": positions(router._multi),
        "router.multi_size": router._multi_size,
        "router.always": {flag: set(router._always[flag])
                          for flag in (False, True)},
        "resolved": {flag: dict(index.resolved[flag])
                     for flag in (False, True)},
        "exact_only": index.exact_only,
    }


#: One spec per entry kind, over labels no base entry uses, so the
#: buckets it joins hold no resolved list before it comes.
ENTRY_KINDS = {
    "exact": ("new", "n", "new"),
    "eq": (ANY, "n", ANY),
    "prefix": (ANY, Prefix("9"), ANY),
    "two_positions": ("new", Prefix("9"), ANY),
    "three_positions": ("new", Prefix("9"), "new"),
    "any_only": (ANY, ANY, ANY),
    "generic": (ANY, ("n", ANY), ANY),
}

#: What a pre-built index holds besides the entry under test.
BASES = {
    "exact_only": [("ip", 7, "ip", False), ("ip", 7, "ip", True)],
    "mixed": [("ip", 7, "ip", False), (ANY, Prefix("10"), ANY, False),
              (ANY, Prefix("10"), ANY, True), (ANY, 5, ANY, False),
              ("ip", Prefix("1"), "op", False), (ANY, ANY, ANY, True)],
}


class TestPairIsAnExactInverse:
    """``add`` then ``remove`` of one entry restores every structure it
    touched, and drops no resolved list but those it named."""

    @pytest.mark.parametrize("base", sorted(BASES))
    @pytest.mark.parametrize("is_loop", [False, True])
    @pytest.mark.parametrize("kind", sorted(ENTRY_KINDS))
    def test_add_then_remove_restores_every_structure(
            self, kind, is_loop, base):
        index, registered = RouteIndex(), {}
        for i, spec in enumerate(BASES[base]):
            register(index, registered, f"b{i}", spec)
        probes = [arrival(src, label, dst, loop)
                  for src in ("ip", "op", "new") for dst in ("ip", "op")
                  for label in (7, 5, 1042, 1, "n", 9, "x")
                  for loop in (False, True)]
        for edge in probes:
            index.targets(edge)     # resolve what the base hits
        before = structures(index)

        spec = (*ENTRY_KINDS[kind], is_loop)
        register(index, registered, "pair", spec)
        for edge in probes:
            assert index.targets(edge) == \
                brute_force_targets(registered, edge)
        index.remove("pair")
        del registered["pair"]
        after = structures(index)

        resolved, kept = before.pop("resolved"), after.pop("resolved")
        assert after == before
        # The pair drops its own buckets' lists, which held none before
        # it came, and for an always-routed entry its loop flag's lists
        # (a generic entry's: both flags'); every other list is the same
        # object it was.
        signatures = one_edge_query(*spec).label_signatures()
        dropped = {False: False, True: False}
        if signatures[2]:
            dropped = {False: True, True: True}
        elif kind == "any_only":
            dropped[is_loop] = True
        for flag in (False, True):
            if dropped[flag] or before["exact_only"]:
                assert kept[flag] == {}
            else:
                assert kept[flag] == resolved[flag]
                assert all(kept[flag][key] is resolved[flag][key]
                           for key in resolved[flag])
        for edge in probes:
            assert index.targets(edge) == \
                brute_force_targets(registered, edge)


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
    admission.enroll(admission.open(("time", window)), Q, policy)
    admission.enroll(admission.open(("count", 3.0)), C, policy)
    admission.admit(edge("first", 1.0))
    admission.admit(edge("second", 2.0))
    return admission


class TestAdmission:
    @pytest.mark.parametrize("rejected, message", [
        (edge("late", 2.0), "strictly increase"),
        (edge("first", 3.0), "duplicate in-window edge id"),
        (edge("never", float("nan")), "must be finite"),
        (edge("forever", float("inf")), "must be finite"),
    ])
    def test_rejected_arrival_changes_nothing(self, rejected, message):
        admission = admission_with("raise")
        before = pickle.dumps(admission)
        with pytest.raises(ValueError, match=message):
            admission.admit(rejected)
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
        """Group by group the ``raise`` members are q, late (time group),
        then c (count group); the error sorts them by ordinal."""
        admission = admission_with("raise")
        admission.enroll(admission.open(("time", 5.0)),
                         (2, _QueryRecord("late", 2, None, None, None)),
                         "raise")
        admission.enroll(admission.open(("time", 5.0)),
                         (3, _QueryRecord("quiet", 3, None, None, None)),
                         "skip")
        with pytest.raises(ValueError) as info:
            admission.admit(edge("first", 3.0))
        assert "(rejected by ['q', 'c', 'late']; no query ingested it)" \
            in str(info.value)

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
        admission.enroll(admission.open(("time", 2.0)), Q, "raise",
                         stateful=True)
        first = edge("first", 1.0)
        admission.admit(first, [Q])
        admission.admit(edge("second", 3.5), [Q])
        assert seen == [(("time", 2.0), [first])]
        admission.advance(10.0)
        assert [[e.edge_id for e in old] for _, old in seen] \
            == [["first"], ["second"]]
        with pytest.raises(ValueError, match="time moves backwards"):
            admission.advance(9.0)
        with pytest.raises(ValueError, match="must be finite"):
            admission.advance(float("nan"))
        assert admission.clock == 10.0
        admission.withdraw(("time", 2.0), Q, stateful=True)
        assert admission.groups == {}

    @pytest.mark.parametrize("stateful, targets", [
        (False, [Q]), (True, [])], ids=["stateless", "untargeted"])
    def test_a_group_holding_nothing_hands_nothing_down(self, stateful,
                                                        targets):
        """Only a held arrival has an ``_expire`` to run: a slide of a
        group that holds none (its members store nothing, or no arrival
        was routed to them) makes no call."""
        seen = []
        admission = Admission(lambda key, old: seen.append((key, old)))
        group = admission.open(("time", 2.0))
        admission.enroll(group, Q, "raise", stateful=stateful)
        for i in range(6):
            admission.admit(edge(f"e{i}", float(i)), targets)
        admission.advance(100.0)
        assert len(group.window) == 0 and not group.held
        assert seen == []


def test_a_non_finite_arrival_cannot_stop_the_window():
    """A ``NaN`` clock compares false both ways, so it used to admit
    every later arrival and stop the window expiring; an infinite one
    refused every later arrival.  Both are refused, and the session
    holds what a clean feed leaves."""
    def feed(bad):
        session = Session(window=10.0)
        query = QueryGraph()
        for vertex, label in (("u", "A"), ("v", "B"), ("w", "C")):
            query.add_vertex(vertex, label)
        query.add_edge("e1", "u", "v")
        query.add_edge("e2", "v", "w")
        query.add_timing_chain("e1", "e2")
        session.register("chain", query)
        accepted = 0
        for i in range(100):
            if i == 20 and bad is not None:
                with pytest.raises(ValueError, match="must be finite"):
                    session.push(StreamEdge(
                        "u", "v", src_label="A", dst_label="B",
                        timestamp=bad))
            pair = ("u", "v", "A", "B") if i % 2 == 0 \
                else ("v", "w", "B", "C")
            session.push(StreamEdge(pair[0], pair[1], src_label=pair[2],
                                    dst_label=pair[3], timestamp=i / 2))
            accepted += 1
        return (accepted, session.current_time, session.window_cells(),
                session.space_cells(), session.result_counts())

    clean = feed(None)
    assert clean[2] == 20               # 10 units of two arrivals each
    assert feed(float("nan")) == clean
    assert feed(float("inf")) == clean


@pytest.mark.parametrize("bad, message", [
    (float("inf"), "must be finite"), (float("-inf"), "backwards"),
    (float("nan"), "must be finite"),
])
def test_advance_time_refuses_a_non_finite_clock(bad, message):
    """An infinite clock made every later push fail with ``2.0 <= inf``;
    the refusal leaves the session where it was."""
    session = Session(window=10.0)
    session.register("one", one_edge_query("A", ANY, "B", False))
    session.push(edge("first", 1.0))
    with pytest.raises(ValueError, match=message):
        session.advance_time(bad)
    assert session.current_time == 1.0
    assert [n for n, _ in session.push(edge("second", 2.0))] == ["one"]
    assert session.result_counts() == {"one": 2}
