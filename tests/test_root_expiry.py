"""A partial match dies with its root: the invariant, not just the answers.

Stream timestamps strictly increase and every window expires oldest first,
so a stored partial match — whose edges follow its timing order — loses
its root (its oldest edge) before any other edge.  The engine therefore
remembers only the sub-queries an arrival *roots*, the stores register
entries by their oldest edge only, a shared sub-plan's delta memo is kept
only while a second consumer can read it, and a window's expired prefix
is handed to the session once per group and slide.  Each of those is
pinned here against ``baselines/naive.py`` or by counting calls.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    EngineConfig, QueryGraph, Session, StreamEdge, TimingMatcher,
)
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.subplans import SharedSubplanStore

VLABELS = "AB"


def path(elabels, timing="chain"):
    """A directed path over alternating ``A``/``B`` vertices whose edges
    carry ``elabels``; ``timing`` is ``"chain"``, ``"reverse"``,
    ``"head"`` (only the first two edges ordered) or ``"empty"``."""
    q = QueryGraph()
    for i in range(len(elabels) + 1):
        q.add_vertex(f"v{i}", VLABELS[i % 2])
    eids = [f"e{i}" for i in range(len(elabels))]
    for i, label in enumerate(elabels):
        q.add_edge(eids[i], f"v{i}", f"v{i + 1}", label=label)
    if timing == "chain":
        q.add_timing_chain(*eids)
    elif timing == "reverse":
        q.add_timing_chain(*reversed(eids))
    elif timing == "head":
        q.add_timing_chain(*eids[:2])
    return q


#: Query shapes; the ``xy`` chain is a shared sub-plan of ``twin`` and
#: ``tail`` (its first TC sub-query), and ``star`` joins two one-edge
#: sub-queries through the global list.
SHAPES = {
    "xy": lambda: path("xy"),
    "twin": lambda: path("xy"),
    "tail": lambda: path("xyx", timing="head"),
    "rev": lambda: path("yx", timing="reverse"),
    "star": lambda: path("xy", timing="empty"),
}


class Stream:
    """Seeded arrivals over six vertices and two edge labels — a small
    alphabet, so joins happen — with a clock ``advance`` can jump."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.clock = 0.0

    def take(self, n):
        edges = []
        for _ in range(n):
            self.clock = round(self.clock + self.rng.uniform(0.05, 0.6), 3)
            u, v = self.rng.sample(range(6), 2)
            edges.append(StreamEdge(
                f"d{u}", f"d{v}", src_label=VLABELS[u % 2],
                dst_label=VLABELS[v % 2], label=self.rng.choice("xy"),
                timestamp=self.clock))
        return edges


def assert_roots_only(session):
    """Every id in an engine's match-once record roots a live entry in
    each sub-query it names."""
    for name in session.names():
        engine = session.matcher(name)
        for edge_id, touched in engine._touched.items():
            for si in touched:
                roots = {flat[0].edge_id
                         for _, flat in engine._tc_stores[si].read(1)}
                assert edge_id in roots, (name, edge_id, si)


OPS = st.lists(st.one_of(
    st.tuples(st.just("batch"), st.integers(1, 12)),
    st.tuples(st.just("register"), st.sampled_from(sorted(SHAPES))),
    st.tuples(st.just("deregister"), st.sampled_from(sorted(SHAPES))),
    st.tuples(st.just("advance"), st.floats(0.0, 8.0))), min_size=1,
    max_size=14)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), window=st.floats(1.0, 5.0),
       storage=st.sampled_from(["mstree", "independent"]),
       sharing=st.sampled_from(["shared", "private"]),
       initial=st.sets(st.sampled_from(sorted(SHAPES)), min_size=1),
       ops=OPS)
def test_session_equals_naive_and_touched_names_roots(
        seed, window, storage, sharing, initial, ops):
    session = Session(window=window, config=EngineConfig(
        storage=storage, subplan_sharing=sharing))
    oracles = {}

    def register(name):
        session.register(name, SHAPES[name]())
        oracles[name] = NaiveSnapshotMatcher(SHAPES[name](), window)

    for name in sorted(initial):
        register(name)
    stream = Stream(seed)
    for op, arg in [("batch", 8), *ops]:
        if op == "batch":
            batch = stream.take(arg)
            got = Counter(session.push_many(batch))
            want = Counter()
            for edge in batch:
                for name, oracle in oracles.items():
                    want.update((name, m) for m in oracle.push(edge))
            assert got == want
        elif op == "register" and arg not in oracles:
            register(arg)
        elif op == "deregister" and arg in oracles:
            session.deregister(arg)
            del oracles[arg]
        elif op == "advance":
            stream.clock = round(stream.clock + arg, 3)
            session.advance_time(stream.clock)
            for oracle in oracles.values():
                oracle.advance_time(stream.clock)
        current = session.current_matches()
        for name, oracle in oracles.items():
            assert Counter(current[name]) \
                == Counter(oracle.current_matches()), name
        assert_roots_only(session)


class TestTouchedNamesRootsOnly:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_an_edge_stored_below_a_root_leaves_no_record(self, storage):
        engine = TimingMatcher(path("xy"), 5.0,
                               config=EngineConfig(storage=storage))
        first = StreamEdge("d0", "d1", src_label="A", dst_label="B",
                           label="x", timestamp=1.0)
        second = StreamEdge("d1", "d2", src_label="B", dst_label="A",
                            label="y", timestamp=2.0)
        assert engine.insert_edge(first) == []
        assert len(engine.insert_edge(second)) == 1     # stored at level 2
        assert engine._touched == {first.edge_id: (0,)}
        assert engine.delete_edge(first) == 2           # the root's subtree
        assert engine.delete_edge(second) == 0
        assert engine.space_cells() == 0


@pytest.fixture
def memo_calls(monkeypatch):
    """Counts ``SharedSubplanStore.lookup`` / ``remember`` calls."""
    calls = Counter()
    for method in ("lookup", "remember"):
        original = getattr(SharedSubplanStore, method)

        def counted(self, *args, _original=original, _method=method):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(SharedSubplanStore, method, counted)
    return calls


class TestMemoWaitsForASecondConsumer:
    STREAM = Stream(11).take(300)

    def run(self, *names):
        session = Session(window=3.0)
        for name in names:
            session.register(name, SHAPES[name]())
        matches = session.push_many(self.STREAM)
        return session, matches

    def test_one_consumer_never_touches_the_memo(self, memo_calls):
        session, matches = self.run("xy")
        assert session.session_stats()["shared_subplans"] == 1
        assert matches and memo_calls == Counter()
        assert session.session_stats()["subplan_reuses"] == 0

    def test_two_consumers_share_through_it(self, memo_calls):
        session, matches = self.run("xy", "twin")
        (record,) = session._subplans.records()
        assert record.consumers == 2
        assert memo_calls["lookup"] > 0 and memo_calls["remember"] > 0
        # Identical to the count before the one-consumer skip existed.
        assert session.session_stats()["subplan_reuses"] == 99
        twin = Counter(m for name, m in matches if name == "twin")
        assert twin == Counter(m for name, m in matches if name == "xy")

    def test_a_co_consumer_leaving_mid_arrival_still_hands_over(self):
        """A callback deregistering one consumer inside an arrival leaves
        the other to replay that arrival's memo — recomputing it would
        store the arrival's partial matches twice."""
        session = Session(window=3.0)
        session.register(
            "xy", SHAPES["xy"](),
            callback=lambda name, _: name in session
            and session.deregister(name))
        session.register("twin", SHAPES["twin"]())
        oracle = NaiveSnapshotMatcher(SHAPES["twin"](), 3.0)
        for edge in self.STREAM:
            got = Counter(m for name, m in session.push(edge)
                          if name == "twin")
            assert got == Counter(oracle.push(edge))
            assert Counter(session.matcher("twin").current_matches()) \
                == Counter(oracle.current_matches())
        assert "xy" not in session                      # left on its match


class TestExpiredPrefixHandedDownOnce:
    def test_once_per_group_and_slide(self):
        session = Session(window=1.0)
        session.register("xy", SHAPES["xy"]())
        session.register("wide", SHAPES["twin"](), window=2.5)
        calls = []
        deliver = session._admission._on_expired

        def record(key, edges):
            calls.append((key, list(edges)))
            deliver(key, edges)

        session._admission._on_expired = record
        stream = Stream(5).take(120)
        dropped = {key: [] for key in session._admission.groups}
        for edge in stream:
            before = len(calls)
            session.push(edge)
            keys = [key for key, _ in calls[before:]]
            assert len(keys) == len(set(keys))      # once per group
        assert any(len(edges) > 1 for _, edges in calls)
        for key, edges in calls:
            dropped[key].extend(edges)
        session.advance_time(stream[-1].timestamp + 10.0)
        tail = calls[-len(dropped):]
        assert sorted(key for key, _ in tail) == sorted(dropped)
        for key, edges in tail:
            dropped[key].extend(edges)
            assert len(edges) > 1
        for key, edges in dropped.items():
            assert edges == stream, key     # whole prefixes, oldest first
        assert session.space_cells() == 0


class TestSkippedMatchersCountsAtRoutingTime:
    def test_a_self_deregistering_callback_does_not_go_negative(self):
        session = Session(window=5.0)
        one_edge = QueryGraph()
        one_edge.add_vertex("a", "A")
        one_edge.add_vertex("b", "B")
        one_edge.add_edge("e", "a", "b", label="x")
        session.register("q", one_edge,
                         callback=lambda name, _: session.deregister(name))
        tagged = session.push(StreamEdge(
            "d0", "d1", src_label="A", dst_label="B", label="x",
            timestamp=1.0))
        assert len(tagged) == 1 and "q" not in session
        assert session.skipped_matchers == 0
        assert session.session_stats()["skipped_matchers"] == 0
