"""Decided routes: a one-edge session member is matched by its route.

The route index runs Lemma 1's label test once per arrival
(:meth:`~repro.ingest.RouteIndex.targets`).  For an exact or predicate
entry it runs that test exactly, so a stateless (one-edge) member filed
there — a *decided* member — is matched by the session itself, with no
engine call.  Two lists stay candidate sets the engine must re-verify:
the always-routed (generic) entries, and the
:class:`~repro.ingest.Candidates` list an unhashable arrival gets.

Pinned here against the naive oracle per arrival (over labels that
compare alike but route apart: ``1``, ``True``, ``1.0``, ``"1"``), and by
counting the engine calls and counters the session replaces.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ANY, Prefix, QueryGraph, Session, StreamEdge
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.core.engine import TimingMatcher
from repro.core.matches import Match
from repro.ingest import Candidates

WINDOW = 3.0

#: One-edge member shapes, ``(src label, edge label, dst label, loop)``:
#: exact, ``Prefix``, ``ANY`` and loop edges (decided), then two tuples
#: with an inner ``ANY`` (generic: always routed, never decided).
MEMBERS = [
    ("A", 1, "B", False),
    ("A", "1", "B", False),
    ("A", True, "B", False),
    ("A", ("a", 1), "B", False),
    ("A", Prefix("1"), "B", False),
    ("A", Prefix("a"), ANY, False),
    (ANY, ANY, ANY, False),
    ("A", ANY, "A", True),
    ("A", Prefix("1"), "A", True),
    (1, "", Prefix("1"), False),
    ("A", ("a", ANY), "B", False),
    (ANY, ("a", ANY), ANY, True),
]
DECIDED, GENERIC = MEMBERS[:10], MEMBERS[10]

#: Data labels: ``1``, ``True`` and ``1.0`` compare and hash alike, but
#: only the int has the text ``Prefix("1")`` matches; lists are
#: unhashable and defeat every index probe.
DATA_LABELS = [1, True, 1.0, "1", "10", "", "a", ("a", 1), ("a", True),
               ["a"], [1]]
#: Data vertex ``d{k}`` carries label ``VERTEX_LABELS[k]``.
VERTEX_LABELS = ["A", "B", "C", 1, True, "1", ["A"]]


def one_edge(src_label, label, dst_label, loop):
    query = QueryGraph()
    query.add_vertex("u", src_label)
    if loop:
        query.add_edge("e", "u", "u", label=label)
    else:
        query.add_vertex("v", dst_label)
        query.add_edge("e", "u", "v", label=label)
    return query


def arrival(i, src, dst, label):
    """The ``i``-th arrival, ``d{src} -label-> d{dst}``."""
    return StreamEdge(f"d{src}", f"d{dst}", src_label=VERTEX_LABELS[src],
                      dst_label=VERTEX_LABELS[dst], label=label,
                      timestamp=0.5 * (i + 1))


def session_of(members):
    session = Session(window=WINDOW)
    for i, spec in enumerate(members):
        session.register(f"m{i}", one_edge(*spec))
    return session


def engine_path(session):
    """Take every member off its decided route: the session then inserts
    into every engine, as it did before routes decided anything."""
    for record in session._queries.values():
        record.slot = None
    return session


members = st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=6)
vertices = st.integers(0, len(VERTEX_LABELS) - 1)
arrivals = st.lists(
    st.tuples(vertices, vertices, st.sampled_from(DATA_LABELS)),
    min_size=1, max_size=30)

#: Hits each kind of list: a decided exact / prefix / ANY / loop hit, a
#: generic member's miss, and unhashable arrivals that no member matches.
EXAMPLE_MEMBERS = [MEMBERS[0], MEMBERS[4], MEMBERS[7], GENERIC]
EXAMPLE_ARRIVALS = [
    (0, 1, 1), (0, 1, True), (0, 0, "10"), (0, 1, ["a"]), (6, 1, 1),
    (0, 1, ("a", 2)), (0, 0, 1.0), (0, 1, ("a", 1)),
]


def hashable(edge):
    try:
        hash((edge.src_label, edge.label, edge.dst_label))
    except TypeError:
        return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(members, arrivals)
@example(EXAMPLE_MEMBERS, EXAMPLE_ARRIVALS)
def test_one_edge_members_answer_like_the_naive_matcher(member_list, rows):
    """Per arrival, the session's matches are the naive matcher's; the
    naive snapshot cannot index an unhashable label, so a standalone
    Timing engine — which runs its own label test on every push — is the
    oracle there, checked against the naive one everywhere else."""
    session = session_of(member_list)
    oracles = {f"m{i}": (NaiveSnapshotMatcher(one_edge(*spec), WINDOW),
                         TimingMatcher(one_edge(*spec), WINDOW))
               for i, spec in enumerate(member_list)}
    for i, row in enumerate(rows):
        edge = arrival(i, *row)
        got = Counter(session.push(edge))
        expected = Counter()
        for name, (naive, standalone) in oracles.items():
            matches = standalone.push(edge)
            if hashable(edge):
                assert naive.push(edge) == matches
            expected.update((name, match) for match in matches)
        assert got == expected, (i, edge)


class TestCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``insert_edge`` as ``(engine, edge)``, and how many
        times ``QueryGraph.edge_matches`` ran.  The ``_insert`` hook a
        session calls is an alias of ``insert_edge``, so both are
        patched."""
        seen = {"insert": [], "edge_matches": 0}
        insert_edge = TimingMatcher.insert_edge
        edge_matches = QueryGraph.edge_matches

        def counted_insert(self, edge, guard=None):
            seen["insert"].append((self, edge))
            return insert_edge(self, edge, guard)

        def counted_matches(self, edge_id, edge):
            seen["edge_matches"] += 1
            return edge_matches(self, edge_id, edge)

        monkeypatch.setattr(TimingMatcher, "insert_edge", counted_insert)
        monkeypatch.setattr(TimingMatcher, "_insert", counted_insert)
        monkeypatch.setattr(QueryGraph, "edge_matches", counted_matches)
        return seen

    def test_decided_members_make_no_engine_call(self, calls):
        session = session_of(DECIDED)
        assert all(record.slot == "e"
                   for record in session._queries.values())
        rows = [(0, 1, 1), (0, 1, "1"), (0, 0, "10"), (0, 2, "ab")]
        matched = [session.push(arrival(i, *row))
                   for i, row in enumerate(rows)]
        assert all(matched)
        assert calls == {"insert": [], "edge_matches": 0}

    def test_candidates_still_call_the_engine_once_each(self, calls):
        """A generic member is called per arrival, decided members not;
        on an unhashable arrival every member is called once."""
        session = session_of([MEMBERS[0], MEMBERS[4], GENERIC])
        generic = session.matcher("m2")
        assert session._queries["m2"].slot is None
        for i, row in enumerate([(0, 1, 1), (0, 1, "x"), (0, 1, ("a", 5))]):
            edge = arrival(i, *row)
            session.push(edge)
            assert calls["insert"] == [(generic, edge)]
            assert calls["edge_matches"] == 1
            calls["insert"].clear()
            calls["edge_matches"] = 0
        edge = arrival(3, 0, 1, [1])
        assert isinstance(session._index.targets(edge), Candidates)
        session.push(edge)
        assert Counter(engine for engine, _ in calls["insert"]) == Counter(
            session.matcher(name) for name in session.names())
        assert calls["edge_matches"] == 3

    def test_counters_match_the_engine_path(self):
        rows = [(i % 7, (i // 2) % 7, DATA_LABELS[(i * 7) % len(DATA_LABELS)])
                for i in range(80)]
        decided, engines = session_of(MEMBERS), engine_path(
            session_of(MEMBERS))
        for i, row in enumerate(rows):
            edge = arrival(i, *row)
            assert decided.push(edge) == engines.push(edge)
        assert decided.stats() == engines.stats()
        assert decided.session_stats() == engines.session_stats()
        assert decided.session_stats()["routed_pushes"] > len(rows)


def assert_constructed(built, edge_map):
    """``built`` is the object ``Match(edge_map)`` makes: equal, hashing
    alike, the same ``repr`` and ``edge_map`` (a dict of its own), and no
    identity key until one is asked for."""
    expected = Match(edge_map)
    assert type(built) is Match and built._key is None
    assert type(built.edge_map) is dict and built.edge_map == edge_map
    assert built.edge_map is not edge_map
    assert repr(built) == repr(expected)
    assert built == expected and hash(built) == hash(expected)


class TestDecidedMatchesAreConstructed:
    """A decided member's match and the engine's are built without
    ``Match.__init__``; each is still the match it would construct."""

    ROWS = [(0, 1, 1), (0, 1, "10"), (0, 0, "1"), (0, 1, "ab")]

    @pytest.mark.parametrize("listener", [None, "callback", "sink"])
    def test_session_matches(self, listener):
        heard = []
        session = Session(window=WINDOW)
        for i, spec in enumerate(DECIDED):
            session.register(
                f"m{i}", one_edge(*spec), callback=(
                    (lambda n, m: heard.append((n, m)))
                    if listener == "callback" else None))
        if listener == "sink":
            session.add_sink(lambda n, m: heard.append((n, m)))
        delivered = []
        for i, row in enumerate(self.ROWS):
            edge = arrival(i, *row)
            pairs = session.push(edge)
            assert pairs
            for name, match in pairs:
                assert_constructed(match, {"e": edge})
            delivered += pairs
        assert len({id(match) for _, match in delivered}) == len(delivered)
        if listener is not None:
            assert [(n, id(m)) for n, m in heard] == \
                [(n, id(m)) for n, m in delivered]

    def test_standalone_engine_matches(self):
        engine = TimingMatcher(one_edge("A", Prefix("1"), ANY, False),
                               WINDOW)
        pushed = []
        for i, row in enumerate(self.ROWS):
            edge = arrival(i, *row)
            for match in engine.push(edge):
                assert_constructed(match, {"e": edge})
                pushed.append(match)
        assert len(pushed) == 2
        current = engine.current_matches()
        for match in current:
            assert_constructed(match, dict(match.edge_map))
        assert current == pushed

    def test_joined_engine_matches(self):
        """A two-edge engine builds each match from a stored tuple."""
        query = QueryGraph()
        for vertex, label in (("a", "A"), ("b", "B"), ("c", "C")):
            query.add_vertex(vertex, label)
        query.add_edge("e1", "a", "b")
        query.add_edge("e2", "b", "c")
        engine = TimingMatcher(query, WINDOW)
        first = arrival(0, 0, 1, "x")
        second = arrival(1, 1, 2, "y")
        assert engine.push(first) == []
        (match,) = engine.push(second)
        assert_constructed(match, {"e1": first, "e2": second})
        (current,) = engine.current_matches()
        assert_constructed(current, {"e1": first, "e2": second})
