"""Differential property suite for trie-compiled predicate routing.

PR 10 generalizes session routing from exact label-triple equality to
label predicates (``Prefix``/``ANY``), resolved per arrival by a
per-position prefix trie instead of a scan over all Q queries.  Routing
is a performance transformation: a trie-routed session must produce
``(name, match)`` multisets identical to one standalone engine per query,
each pushed every arrival — across random label alphabets,
random prefix/wildcard/exact query mixes, both Timing storages, time-
and count-based windows, register/deregister churn, and every sharding
mode (``none``/``thread``/``process``).

Also pinned here, per the PR 10 satellites: the previously untested
``ANY``-labelled (wildcard) edges through shared-window routing and
sharded facades, and checkpoint round-trips of predicate-heavy sessions
(including the corrupt-envelope path).
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ANY, CountSlidingWindow, EngineConfig, Prefix, QueryGraph, Session,
    ShardedSession, StreamEdge, TimingMatcher,
)
from repro.persistence import CheckpointCorruptError, load_session

VLABELS = ("srv0", "srv1", "db0", "db1", "h2")
VPREFIXES = ("s", "srv", "db", "h")
ELABELS = (4480, 4481, 4499, 80, 6667, "44x", "448", "tcp", 9000)
EPREFIXES = ("4", "44", "448", "9", "t")


def predicate_stream(seed, n, *, n_vertices=10, dt=0.4, id_pool=None):
    """Seeded stream whose labels live in a prefix-rich universe (ints
    and strings sharing decimal prefixes), so prefix predicates have
    real selectivity to discriminate on."""
    rng = random.Random(seed)
    t = 0.0
    edges = []
    for i in range(n):
        t += rng.random() * dt + 0.01
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u:
            v = rng.randrange(n_vertices)
        edge_id = f"id{i % id_pool}" if id_pool else None
        edges.append(StreamEdge(
            f"d{u}", f"d{v}", src_label=VLABELS[u % len(VLABELS)],
            dst_label=VLABELS[v % len(VLABELS)], timestamp=round(t, 3),
            label=rng.choice(ELABELS), edge_id=edge_id))
    return edges


def random_vlabel(rng):
    r = rng.random()
    if r < 0.25:
        return ANY
    if r < 0.55:
        return Prefix(rng.choice(VPREFIXES))
    return rng.choice(VLABELS)


def random_elabel(rng):
    r = rng.random()
    if r < 0.2:
        return ANY
    if r < 0.55:
        return Prefix(rng.choice(EPREFIXES))
    return rng.choice(ELABELS)


def random_predicate_query(rng, max_edges=2):
    """A timing-chain path whose labels mix exact / prefix / any."""
    n_edges = rng.randint(1, max_edges)
    q = QueryGraph()
    for i in range(n_edges + 1):
        q.add_vertex(f"v{i}", random_vlabel(rng))
    for i in range(n_edges):
        q.add_edge(f"e{i}", f"v{i}", f"v{i + 1}", label=random_elabel(rng))
    if n_edges > 1:
        q.add_timing_chain(*[f"e{i}" for i in range(n_edges)])
    return q


def random_query_set(seed, n_queries=8):
    rng = random.Random(seed)
    return {f"q{i}": random_predicate_query(rng) for i in range(n_queries)}


class Standalone:
    """The routing-free reference: one standalone engine per query on its
    own window (``window`` is a duration or a zero-arg factory), each
    pushed every arrival."""

    def __init__(self, window=5.0, **config):
        self.window, self.config = window, EngineConfig(**config)
        self.engines = {}

    def register(self, name, query):
        window = self.window() if callable(self.window) else self.window
        self.engines[name] = TimingMatcher(query, window, config=self.config)

    def deregister(self, name):
        del self.engines[name]

    def push_many(self, edges):
        return [(name, match) for edge in edges
                for name, engine in list(self.engines.items())
                for match in engine.push(edge)]


def assert_engines_equivalent(session, reference):
    engines = reference.engines
    assert session.names() == list(engines)
    assert session.result_counts() == {
        name: engine.result_count() for name, engine in engines.items()}
    for name, engine in engines.items():
        matcher = session.matcher(name)
        assert Counter(matcher.current_matches()) == \
            Counter(engine.current_matches()), name
        assert matcher.space_cells() == engine.space_cells(), name


def register_both(session, reference, make):
    """Register the ``make()`` query set on both, each its own copy."""
    for target in (session, reference):
        for name, query in make().items():
            target.register(name, query)


class TestTrieVersusStandaloneEngines:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_time_windows_random_mixes(self, storage, seed):
        session = Session(window=5.0, config=EngineConfig(storage=storage))
        reference = Standalone(storage=storage)
        register_both(session, reference, lambda: random_query_set(seed))
        edges = predicate_stream(seed, 250)
        assert Counter(session.push_many(edges)) \
            == Counter(reference.push_many(edges))
        assert_engines_equivalent(session, reference)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_count_windows_random_mixes(self, seed):
        factory = lambda: CountSlidingWindow(30)  # noqa: E731
        session = Session(window=factory)
        reference = Standalone(window=factory)
        register_both(session, reference, lambda: random_query_set(seed))
        edges = predicate_stream(seed, 250)
        assert Counter(session.push_many(edges)) \
            == Counter(reference.push_many(edges))
        assert_engines_equivalent(session, reference)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_register_deregister_churn(self, seed):
        """Predicate queries registered and deregistered mid-stream:
        trie bookkeeping (token removal, node pruning) must keep the
        remaining queries' answers identical to standalone engines
        registered and dropped alike."""
        rng = random.Random(seed)
        queries = random_query_set(seed, n_queries=10)
        phases = [list(queries)[:6], list(queries)[6:]]
        drop_order = rng.sample(phases[0], 3)
        edges = predicate_stream(seed, 300)
        chunks = [edges[:100], edges[100:200], edges[200:]]
        results = {}
        session, reference = Session(window=5.0), Standalone()
        for run in (session, reference):
            for name in phases[0]:
                run.register(name, random_query_set(seed, 10)[name])
            tagged = list(run.push_many(chunks[0]))
            for name in drop_order:
                run.deregister(name)
            for name in phases[1]:
                run.register(name, random_query_set(seed, 10)[name])
            tagged += run.push_many(chunks[1])
            tagged += run.push_many(chunks[2])
            results[run] = Counter(tagged)
        assert results[session] == results[reference]
        assert_engines_equivalent(session, reference)
        # Deregistration pruned the dropped queries' trie entries.
        live_pred = session.session_stats()["predicate_entries"]
        solo = Session(window=5.0)
        for name in set(phases[0]) - set(drop_order) | set(phases[1]):
            solo.register(name, random_query_set(seed, 10)[name])
        assert live_pred == solo.session_stats()["predicate_entries"]


def make_sharded(mode, **kwargs):
    return Session(sharding=mode, shards=3, **kwargs)


class TestShardedPredicateRouting:
    """Predicate routing must be consistent across the facade's shard
    router, each worker's own session router, and the shm transport's
    interned labels — pinned against the unsharded twin."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("seed", [11, 29])
    def test_sharded_equals_unsharded(self, mode, seed):
        queries = random_query_set(seed)
        edges = predicate_stream(seed, 250)
        unsharded = Session(window=5.0)
        for name, query in queries.items():
            unsharded.register(name, query)
        expected = Counter(unsharded.push_many(edges))
        sharded = make_sharded(mode, window=5.0)
        try:
            for name, query in random_query_set(seed).items():
                sharded.register(name, query)
            got = Counter(sharded.push_many(edges))
            assert got == expected
            assert sharded.result_counts() == unsharded.result_counts()
        finally:
            sharded.close()

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_sharded_churn(self, mode):
        seed = 47
        queries = random_query_set(seed, 10)
        edges = predicate_stream(seed, 200)
        results = {}
        for kind in ("none", mode):
            session = Session(window=5.0) if kind == "none" \
                else make_sharded(kind, window=5.0)
            try:
                for name in list(queries)[:7]:
                    session.register(name, random_query_set(seed, 10)[name])
                tagged = list(session.push_many(edges[:100]))
                for name in list(queries)[:3]:
                    session.deregister(name)
                for name in list(queries)[7:]:
                    session.register(name, random_query_set(seed, 10)[name])
                tagged += session.push_many(edges[100:])
                results[kind] = Counter(tagged)
            finally:
                if isinstance(session, ShardedSession):
                    session.close()
        assert results[mode] == results["none"]


def wildcard_query(n_edges=2):
    """The satellite's regression target: bare ANY edge labels (the
    historical `_Wildcard`) with concrete endpoints."""
    q = QueryGraph()
    for i in range(n_edges + 1):
        q.add_vertex(f"v{i}", VLABELS[i % len(VLABELS)])
    for i in range(n_edges):
        q.add_edge(f"e{i}", f"v{i}", f"v{i + 1}", label=ANY)
    q.add_timing_chain(*[f"e{i}" for i in range(n_edges)])
    return q


def all_any_query():
    q = QueryGraph()
    q.add_vertex("a", ANY)
    q.add_vertex("b", ANY)
    q.add_edge("e", "a", "b", label=ANY)
    return q


class TestWildcardRoutingGap:
    """ANY-labelled query edges through the PR 3 shared-window routing
    index and the sharded facades — the previously untested corner."""

    def test_wildcard_edges_equal_standalone_engines(self):
        edges = predicate_stream(3, 300)
        session, reference = Session(window=5.0), Standalone()
        register_both(session, reference, lambda: {
            "wild2": wildcard_query(2), "wild1": wildcard_query(1),
            "allany": all_any_query()})
        results = Counter(session.push_many(edges))
        assert results == Counter(reference.push_many(edges))
        assert sum(results.values()) > 0
        assert_engines_equivalent(session, reference)
        # ANY-only queries route through the predicate router's always
        # sets now, not the generic scan residue.
        assert session.session_stats()["predicate_entries"] > 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_wildcard_edges_through_sharded_facade(self, mode):
        edges = predicate_stream(5, 250)
        unsharded = Session(window=5.0)
        unsharded.register("wild2", wildcard_query(2))
        unsharded.register("allany", all_any_query())
        expected = Counter(unsharded.push_many(edges))
        assert sum(expected.values()) > 0
        sharded = make_sharded(mode, window=5.0)
        try:
            sharded.register("wild2", wildcard_query(2))
            sharded.register("allany", all_any_query())
            got = Counter(sharded.push_many(edges))
            assert got == expected
        finally:
            sharded.close()

    def test_expiry_reaches_wildcard_members(self):
        """An ANY-edge query's matches leave with their edges: the
        one-edge member (stateless plan, nothing delivered) and a stored
        two-edge member (expiry delivered through the router's predicate
        path) both answer from the window alone."""
        session = Session(window=2.0)
        session.register("allany", all_any_query())
        session.register("wild2", wildcard_query(2))
        edges = predicate_stream(9, 120, dt=0.3)
        session.push_many(edges)
        horizon = session.current_time - 2.0
        live = [edge for edge in edges if edge.timestamp > horizon]
        current = session.current_matches()
        assert sorted(m.edge_map["e"].timestamp for m in current["allany"]) \
            == [edge.timestamp for edge in live]
        assert session.result_counts()["allany"] == len(live) < len(edges)
        assert all(edge.timestamp > horizon
                   for m in current["wild2"] for edge in m.edge_map.values())
        # The stored member's match-once registry was pruned with them
        # (an unrouted expiry would leave stale ids).
        touched = session.matcher("wild2")._touched
        assert touched and set(touched) <= {edge.edge_id for edge in live}


class TestPredicateCheckpointRoundTrip:
    def _predicate_heavy(self, seed=13):
        session = Session(window=5.0)
        for name, query in random_query_set(seed).items():
            session.register(name, query)
        return session

    def test_save_restore_continues_identically(self, tmp_path):
        edges = predicate_stream(13, 300)
        baseline = self._predicate_heavy()
        expected = Counter(baseline.push_many(edges))
        interrupted = self._predicate_heavy()
        got = Counter(interrupted.push_many(edges[:150]))
        target = tmp_path / "pred.ckpt"
        interrupted.checkpoint(str(target))
        restored = Session.restore(str(target))
        got += Counter(restored.push_many(edges[150:]))
        assert got == expected
        assert restored.session_stats()["predicate_entries"] == \
            baseline.session_stats()["predicate_entries"]

    def test_reregister_after_restore(self, tmp_path):
        session = self._predicate_heavy()
        edges = predicate_stream(13, 150)
        session.push_many(edges[:100])
        target = tmp_path / "pred.ckpt"
        session.checkpoint(str(target))
        restored = Session.restore(str(target))
        q = QueryGraph()
        q.add_vertex("a", Prefix("srv"))
        q.add_vertex("b", ANY)
        q.add_edge("e", "a", "b", label=Prefix("44"))
        restored.register("late", q)
        tagged = restored.push_many(edges[100:])
        fresh = Counter(n for n, _ in tagged if n == "late")
        # The late query sees post-restore arrivals via the restored
        # (then re-extended) predicate router.
        manual = sum(
            1 for e in edges[100:]
            if str(e.src_label).startswith("srv")
            and str(e.label).startswith("44"))
        assert fresh["late"] == manual
        restored.deregister("late")
        assert restored.session_stats()["predicate_entries"] == \
            self._predicate_heavy().session_stats()["predicate_entries"]

    def test_corrupt_envelope_still_raises(self, tmp_path):
        session = self._predicate_heavy()
        session.push_many(predicate_stream(13, 50))
        target = tmp_path / "pred.ckpt"
        session.checkpoint(str(target))
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_session(str(target))
