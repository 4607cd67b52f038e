"""The stateless single-edge plan against the oracle, not against itself.

A one-edge query's Timing engine keeps no expansion list: an arrival that
matches the query edge *is* the match, expiry has nothing to delete, and
``current_matches()`` is re-derived from the window.  The stored path for
such queries is gone, so the reference here is
:class:`~repro.baselines.naive.NaiveSnapshotMatcher` — one private oracle
per registered query, fed every accepted arrival — across exact / ``ANY``
/ ``Prefix`` / inner-wildcard-tuple labels, loop and non-loop query edges,
time and count windows, the three duplicate policies, mid-stream
register/deregister, ``advance_time``, and checkpoint → restore, through
a standalone engine, a ``Session`` and both sharded sessions.

A scenario either re-uses edge ids in-window or registers queries
mid-stream, never both: a session judges duplicates against its window
group's buffer, which only a mid-stream registrant can tell from the
per-matcher judgement the oracle makes.
"""

import io
import random
from collections import Counter

import pytest

from repro import (
    ANY, CountSlidingWindow, EngineConfig, Prefix, QueryGraph, Session,
    ShardedSession, StreamEdge, TimingMatcher,
)
from repro.baselines.naive import NaiveSnapshotMatcher

# ``1`` / ``True`` / ``1.0`` compare equal but only the int has prefix
# text; ("a", "b") meets the inner-wildcard tuple pattern.
DATA_LABELS = ["a", "ab", "4", "44", 44, 1, True, 1.0,
               ("a", "b"), ("a", "c")]
QUERY_LABELS = ["a", "44", 44, 1, ANY, Prefix("4"), Prefix("a"),
                Prefix("1"), ("a", ANY), ("a", "b")]


def one_edge_query(rng) -> QueryGraph:
    def label():        # half wildcards, so most queries see matches
        return ANY if rng.random() < 0.5 else rng.choice(QUERY_LABELS)

    query = QueryGraph()
    query.add_vertex("u", label())
    if rng.random() < 0.25:
        query.add_edge("e", "u", "u", label=label())
    else:
        query.add_vertex("v", label())
        query.add_edge("e", "u", "v", label=label())
    return query


def make_window(spec):
    """A fresh window argument: durations are numbers, count windows a
    policy object per engine."""
    kind, size = spec
    return CountSlidingWindow(size) if kind == "count" else size


class Scenario:
    """A seeded operation sequence over one-edge queries."""

    def __init__(self, seed: int, *, steps: int = 60) -> None:
        rng = random.Random(seed)
        self.policy = rng.choice(["raise", "skip", "count"])
        self.reuse_ids = rng.random() < 0.5
        windows = rng.choice([[("time", 3.0)], [("time", 3.0), ("time", 6.0)],
                              [("count", 7)]])
        self.ops = []
        names = []
        fresh = iter(range(10 ** 6))

        def register():
            name = f"q{next(fresh)}"
            names.append(name)
            self.ops.append(("register", name, one_edge_query(rng),
                             rng.choice(windows)))

        for _ in range(rng.randint(2, 5)):
            register()
        clock, serial = 0.0, 0
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.70 or not names:
                batch = []
                for _ in range(rng.randint(1, 4)):
                    clock = round(clock + rng.random() * 0.8 + 0.01, 3)
                    serial += 1
                    # A data vertex keeps one label for the whole stream
                    # (the oracle's snapshot graph insists).
                    u = rng.randrange(len(DATA_LABELS))
                    v = u if rng.random() < 0.2 \
                        else rng.randrange(len(DATA_LABELS))
                    edge_id = f"id{rng.randrange(6)}" if self.reuse_ids \
                        else f"e{serial}"
                    batch.append(StreamEdge(
                        f"d{u}", f"d{v}", timestamp=clock, edge_id=edge_id,
                        src_label=DATA_LABELS[u], dst_label=DATA_LABELS[v],
                        label=rng.choice(DATA_LABELS)))
                self.ops.append(("push", batch))
            elif roll < 0.80:
                clock = round(clock + rng.random() * 2.0, 3)
                self.ops.append(("advance", clock))
            elif roll < 0.88:
                self.ops.append(("checkpoint",))
            elif self.reuse_ids:
                continue        # churn and id re-use never mix
            elif roll < 0.94:
                register()
            else:
                self.ops.append(("deregister",
                                 names.pop(rng.randrange(len(names)))))


class Oracle:
    """One private naive matcher per registered query, in registration
    order, each fed every arrival the stream accepts."""

    def __init__(self, policy: str) -> None:
        self.policy = policy
        self.matchers = {}
        self.clock = float("-inf")

    def register(self, name, query, window_spec) -> None:
        matcher = NaiveSnapshotMatcher(query, make_window(window_spec),
                                       duplicate_policy=self.policy)
        matcher.window_spec = window_spec
        if self.clock > float("-inf"):
            matcher.advance_time(self.clock)
        self.matchers[name] = matcher

    def deregister(self, name) -> None:
        del self.matchers[name]

    def rejects(self, edge) -> bool:
        return any(m.would_reject(edge) for m in self.matchers.values())

    def push(self, edge):
        self.clock = edge.timestamp
        return [(name, match) for name, matcher in self.matchers.items()
                for match in matcher.push(edge)]

    def advance(self, timestamp) -> None:
        self.clock = timestamp
        for matcher in self.matchers.values():
            matcher.advance_time(timestamp)

    def result_counts(self):
        return {name: m.result_count() for name, m in self.matchers.items()}

    def current_matches(self):
        return {name: Counter(m.current_matches())
                for name, m in self.matchers.items()}

    def pinned_cells(self):
        """``(shared, private)``: window cells that are some query's
        current match — once per window policy (one buffer each), and
        once per query."""
        answers = [(m.window_spec, edge.edge_id, edge.timestamp)
                   for m in self.matchers.values()
                   for match in m.current_matches()
                   for edge in match.edge_map.values()]
        return len(set(answers)), len(answers)


def close(session) -> None:
    if isinstance(session, ShardedSession):
        session.close()


def check_state(session, oracle) -> None:
    assert session.result_counts() == oracle.result_counts()
    assert {name: Counter(matches) for name, matches
            in session.current_matches().items()} == oracle.current_matches()
    # No store holds anything; what the session still charges is the
    # window cells its stateless members' answers pin, each buffer's once.
    shared, private = oracle.pinned_cells()
    stats = session.session_stats()
    if isinstance(session, ShardedSession):     # one buffer set per shard
        assert shared <= session.space_cells() <= private
    else:
        assert session.space_cells() == shared
    for name in oracle.matchers:
        assert session.matcher(name).space_cells() == 0
    assert stats["stateless_queries"] == len(oracle.matchers)
    assert stats["subplan_store_cells"] == 0 == stats["shared_subplans"]


def run_session_scenario(seed: int, **session_options) -> int:
    scenario = Scenario(seed)
    session = Session(duplicate_policy=scenario.policy, **session_options)
    oracle = Oracle(scenario.policy)
    emitted = 0
    try:
        for op in scenario.ops:
            if op[0] == "register":
                _, name, query, window_spec = op
                session.register(name, query, window=make_window(window_spec))
                oracle.register(name, query, window_spec)
            elif op[0] == "deregister":
                session.deregister(op[1])
                oracle.deregister(op[1])
            elif op[0] == "advance":
                session.advance_time(op[1])
                oracle.advance(op[1])
            elif op[0] == "checkpoint":
                buffer = io.BytesIO()
                session.checkpoint(buffer)
                close(session)
                buffer.seek(0)
                session = Session.restore(buffer)
            elif scenario.policy == "raise" and scenario.reuse_ids:
                # A rejected arrival aborts its batch: feed one at a time.
                for edge in op[1]:
                    if oracle.rejects(edge):
                        with pytest.raises(ValueError, match="duplicate"):
                            session.push(edge)
                        continue
                    expected = oracle.push(edge)
                    assert Counter(session.push(edge)) == Counter(expected)
                    emitted += len(expected)
            else:
                expected = [pair for edge in op[1]
                            for pair in oracle.push(edge)]
                assert Counter(session.push_many(op[1])) == Counter(expected)
                emitted += len(expected)
            check_state(session, oracle)
    finally:
        close(session)
    return emitted


class TestSessionAgainstOracle:
    def test_unsharded(self):
        emitted = [run_session_scenario(seed) for seed in range(40)]
        assert sum(1 for count in emitted if count) > 30    # non-vacuous

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_thread_shards(self, seed):
        assert run_session_scenario(seed, sharding="thread", shards=2) > 0

    @pytest.mark.parametrize("seed", [6, 7])
    def test_process_shards(self, seed):
        assert run_session_scenario(
            seed, sharding="process", shards=2) > 0

    def test_emission_order_is_registration_order(self):
        session = Session(window=5.0)
        for name in ("zeta", "alpha", "mid"):
            query = QueryGraph()
            query.add_vertex("u", ANY)
            query.add_vertex("v", ANY)
            query.add_edge("e", "u", "v")
            session.register(name, query)
        edge = StreamEdge("x", "y", timestamp=1.0, src_label="a",
                          dst_label="b", label="l")
        assert [name for name, _ in session.push(edge)] \
            == ["zeta", "alpha", "mid"]


class TestOneQuerySessionAgainstOracle:
    """The engine as the one member of a default session, through
    checkpoints, against one naive matcher."""

    @pytest.mark.parametrize("seed", range(30))
    def test_push_advance_checkpoint(self, seed):
        scenario = Scenario(seed, steps=40)
        _, _, query, window_spec = scenario.ops[0]
        session = Session(duplicate_policy=scenario.policy)
        engine = session.register("q", query,
                                  window=make_window(window_spec))
        oracle = NaiveSnapshotMatcher(query, make_window(window_spec),
                                      duplicate_policy=scenario.policy)
        assert engine.stateless and "stateless" in repr(engine)

        def checkpoint() -> bytes:
            buffer = io.BytesIO()
            session.checkpoint(buffer)
            return buffer.getvalue()

        for op in scenario.ops:
            if op[0] == "push":
                for edge in op[1]:
                    if oracle.would_reject(edge):
                        before = checkpoint()
                        with pytest.raises(ValueError, match="duplicate"):
                            session.push(edge)
                        assert checkpoint() == before
                        continue
                    assert [match for _, match in session.push(edge)] \
                        == oracle.push(edge)
            elif op[0] == "advance":
                session.advance_time(op[1])
                oracle.advance_time(op[1])
            elif op[0] == "checkpoint":
                session = Session.restore(io.BytesIO(checkpoint()))
                engine = session.matcher("q")
            assert Counter(engine.current_matches()) \
                == Counter(oracle.current_matches())
            assert engine.result_count() == oracle.result_count()
            assert engine.space_cells() == 0
            assert engine.stats.edges_skipped == oracle.stats.edges_skipped
        assert engine.store_profile() == {"stateless": 1}


class TestPlanKindFollowsShape:
    def two_edge_query(self):
        query = QueryGraph()
        for vertex in "uvw":
            query.add_vertex(vertex, ANY)
        query.add_edge("e1", "u", "v")
        query.add_edge("e2", "v", "w")
        return query

    def test_only_one_edge_queries_are_stateless(self):
        assert not TimingMatcher(self.two_edge_query(), 5.0).stateless
        rng = random.Random(0)
        for storage in ("mstree", "independent"):
            engine = TimingMatcher(one_edge_query(rng), 5.0,
                                   config=EngineConfig(storage=storage))
            assert engine.stateless and engine.k == 1
            assert engine.join_order == [("e",)]
            assert engine.all_slots == ("e",)

    def test_no_knob_selects_the_plan(self):
        """The plan kind is not configurable: these are all the fields
        there are."""
        import dataclasses
        assert [field.name for field in dataclasses.fields(EngineConfig)] \
            == ["storage", "decomposition", "join_order", "indexing",
                "subplan_sharing", "sharding", "shards", "transport",
                "seed", "duplicate_policy"]

    def test_explicit_plan_is_still_validated(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            TimingMatcher(one_edge_query(rng), 5.0,
                          decomposition=[("nope",)])

    def test_explain_names_the_plan_kind(self):
        from repro.core.plan import explain
        one = explain(one_edge_query(random.Random(3)))
        assert one.stateless and one.expansion_list_items() == []
        assert "plan kind: stateless" in one.render()
        two = explain(self.two_edge_query())
        assert not two.stateless and two.expansion_list_items()
        assert "plan kind: stored" in two.render()

    def test_session_reports_the_mix(self):
        session = Session(window=5.0)
        session.register("one", one_edge_query(random.Random(2)))
        session.register("two", self.two_edge_query())
        assert session.session_stats()["stateless_queries"] == 1
        assert session.matcher("one").store_profile() == {"stateless": 1}
        assert "L1^1" in session.matcher("two").store_profile()


class TestSessionReadsInOnePass:
    def test_shared_members_are_never_scanned_one_by_one(self, monkeypatch):
        """Session-level reads attribute each window edge to the members
        the route index names — no engine filters the window for itself
        (that would be O(Q·|W|) for a tenant of Q one-edge queries)."""
        scans = []
        original = TimingMatcher._window_matches
        monkeypatch.setattr(
            TimingMatcher, "_window_matches",
            lambda self: scans.append(self) or original(self))
        session = Session(window=50.0)
        rng = random.Random(11)
        for i in range(20):
            session.register(f"q{i}", one_edge_query(rng))
        session.push_many([
            StreamEdge(f"s{i}", f"t{i}", timestamp=float(i + 1),
                       src_label=rng.choice(DATA_LABELS),
                       dst_label=rng.choice(DATA_LABELS),
                       label=rng.choice(DATA_LABELS)) for i in range(30)])
        counts = session.result_counts()
        matches = session.current_matches()
        cells = session.space_cells()
        assert scans == []
        assert sum(counts.values()) > 0
        assert counts == {name: len(found) for name, found in matches.items()}
        assert 0 < cells <= min(30, sum(counts.values()))
        # Asked directly, an engine still answers — by scanning.
        assert {name: session.matcher(name).result_count()
                for name in session.names()} == counts
        assert len(scans) == 20
