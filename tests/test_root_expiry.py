"""A partial match dies with its root: the invariant, not just the answers.

Stream timestamps strictly increase and every window expires oldest first,
so a stored partial match — whose edges follow its timing order — loses
its root (its oldest edge) before any other edge.  The engine therefore
remembers only the sub-queries an arrival *roots*, the stores register
entries by their oldest edge only, a shared sub-plan's delta memo is kept
only while a second consumer can read it, and a window's expired prefix
is handed to the session once per group and slide.  That a session
agrees with ``baselines/naive.py``, ``_touched`` names only roots and a
co-consumer leaving mid-arrival still hands the memo over — under churn,
in every mode — is ``tests/test_session_model.py``'s job; pinned here by
counting calls and on hand-built streams.
"""

import random
from collections import Counter

import pytest

from repro import (
    EngineConfig, QueryGraph, Session, StreamEdge, TimingMatcher,
)
from repro.subplans import SharedSubplanStore

VLABELS = "AB"


def path(elabels):
    """A timing-ordered directed path over alternating ``A``/``B``
    vertices whose edges carry ``elabels``."""
    q = QueryGraph()
    for i in range(len(elabels) + 1):
        q.add_vertex(f"v{i}", VLABELS[i % 2])
    eids = [f"e{i}" for i in range(len(elabels))]
    for i, label in enumerate(elabels):
        q.add_edge(eids[i], f"v{i}", f"v{i + 1}", label=label)
    q.add_timing_chain(*eids)
    return q


#: Two registrations of one shape share its sub-plan store.
SHAPES = {"xy": lambda: path("xy"), "twin": lambda: path("xy")}


def stream(seed, n):
    """Seeded arrivals over six vertices and two edge labels — a small
    alphabet, so joins happen."""
    rng, clock, edges = random.Random(seed), 0.0, []
    for _ in range(n):
        clock = round(clock + rng.uniform(0.05, 0.6), 3)
        u, v = rng.sample(range(6), 2)
        edges.append(StreamEdge(
            f"d{u}", f"d{v}", src_label=VLABELS[u % 2],
            dst_label=VLABELS[v % 2], label=rng.choice("xy"),
            timestamp=clock))
    return edges


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
    STREAM = stream(11, 300)

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


class TestExpiredPrefixHandedDownOnce:
    def test_once_per_group_and_slide(self):
        """A slide hands its whole prefix down once per group, oldest
        first, while the group holds arrivals; every held arrival is in
        a prefix handed down, and a group holding none is skipped."""
        session = Session(window=1.0)
        session.register("xy", SHAPES["xy"]())
        session.register("wide", SHAPES["twin"](), window=2.5)
        calls = []
        deliver = session._admission._on_expired

        def record(key, expired):
            calls.append((key, list(expired)))
            deliver(key, expired)

        session._admission._on_expired = record
        groups = session._admission.groups
        arrivals = stream(5, 120)
        position = {edge: i for i, edge in enumerate(arrivals)}
        dropped = {key: [] for key in groups}
        held = {key: set() for key in groups}
        for edge in arrivals:
            before = len(calls)
            session.push(edge)
            keys = [key for key, _ in calls[before:]]
            assert len(keys) == len(set(keys))      # once per group
            for key, group in groups.items():
                if group.held and group.held[-1][0] is edge:
                    held[key].add(edge)
        assert any(len(expired) > 1 for _, expired in calls)
        session.advance_time(arrivals[-1].timestamp + 10.0)
        for key, expired in calls:
            # A whole prefix: consecutive arrivals, oldest first.
            first = position[expired[0]]
            assert expired == arrivals[first:first + len(expired)]
            dropped[key].extend(expired)
        for key, expired in dropped.items():
            assert expired == sorted(set(expired), key=position.get), key
            assert held[key] <= set(expired), key
            assert set(expired) < set(arrivals), key   # some were skipped
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
