"""Differential property suite: ``subplan_sharing="shared"`` ≡ ``"private"``.

The session-level sub-plan cache is a performance transformation: engines
whose plans contain the same canonical TC-subquery adopt one refcounted
store, written once per arrival.  Shared and private modes must therefore
produce identical ``(name, match)`` multisets, identical result counts and
identical per-query *logical* space — across storages, window policies,
duplicate policies, mid-stream churn and checkpoint/restore — while the
session-level *physical* space deduplicates.
"""

import io
import random
from collections import Counter

import pytest

from repro import (
    CountSlidingWindow, EngineConfig, QueryGraph, Session, StreamEdge,
)

VLABELS = "ABC"
ELABELS = ("x", "y", "z")


def labeled_stream(seed, n, *, n_vertices=12, dt=0.4, id_pool=None):
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
            f"d{u}", f"d{v}", src_label=VLABELS[u % 3],
            dst_label=VLABELS[v % 3], timestamp=round(t, 3),
            label=rng.choice(ELABELS), edge_id=edge_id))
    return edges


def labeled_path_query(n_edges, *, vstart=0, elabels=("x",)):
    q = QueryGraph()
    for i in range(n_edges + 1):
        q.add_vertex(f"v{i}", VLABELS[(vstart + i) % 3])
    for i in range(n_edges):
        q.add_edge(f"e{i}", f"v{i}", f"v{i + 1}",
                   label=elabels[i % len(elabels)])
    q.add_timing_chain(*[f"e{i}" for i in range(n_edges)])
    return q


def chain_plus_tail():
    """The x→y chain of the ``t*`` tenants plus a timing-unordered z tail:
    decomposes into [x→y chain][z singleton], so its first sub-plan
    canonicalises identically to the plain 2-edge queries'."""
    q = labeled_path_query(2, vstart=0, elabels=("x", "y"))
    q.add_vertex("v3", VLABELS[0])
    q.add_edge("tail", "v2", "v3", label="z")
    return q


def overlapping_query_set():
    """Three copies of one shape, a superset sharing that shape as its
    first sub-plan, and one unrelated query — fresh ``QueryGraph``
    objects on every call."""
    queries = {
        "t0": labeled_path_query(2, vstart=0, elabels=("x", "y")),
        "t1": labeled_path_query(2, vstart=0, elabels=("x", "y")),
        "t2": labeled_path_query(2, vstart=0, elabels=("x", "y")),
        "super": chain_plus_tail(),
        "other": labeled_path_query(2, vstart=1, elabels=("y", "z")),
    }
    return queries


def twin_sessions(make_session):
    return {mode: make_session(mode) for mode in ("shared", "private")}


def assert_sessions_equivalent(shared, private):
    assert shared.result_counts() == private.result_counts()
    for name in private.names():
        sm, pm = shared.matcher(name), private.matcher(name)
        assert Counter(sm.current_matches()) == \
            Counter(pm.current_matches()), name
        # Per-query logical space is sharing-invariant.
        assert sm.space_cells() == pm.space_cells(), name
    # Session-level physical space deduplicates, never inflates.
    assert shared.space_cells() <= private.space_cells()


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_time_windows_randomized(self, storage):
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=6.0,
            config=EngineConfig(storage=storage, subplan_sharing=mode)))
        edges = labeled_stream(7, 400)
        for mode, session in sessions.items():
            for name, query in overlapping_query_set().items():
                session.register(name, query)
            results[mode] = Counter(session.push_many(edges))
        assert results["shared"] == results["private"]
        assert sum(results["shared"].values()) > 0      # non-vacuous
        assert sessions["shared"].session_stats()["subplan_reuses"] > 0
        assert_sessions_equivalent(sessions["shared"], sessions["private"])

    def test_count_windows_randomized(self):
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=lambda: CountSlidingWindow(40),
            config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(11, 300)
        for mode, session in sessions.items():
            for name, query in overlapping_query_set().items():
                session.register(name, query)
            results[mode] = Counter(session.push_many(edges))
        assert results["shared"] == results["private"]
        assert_sessions_equivalent(sessions["shared"], sessions["private"])

    def test_mixed_window_policies_do_not_cross_share(self):
        """Same canonical sub-plan, different window groups: each group
        keeps its own record (expiry cadence differs), and matches still
        agree with the private twin."""
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=5.0, config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(13, 300)
        for mode, session in sessions.items():
            session.register("short", labeled_path_query(
                2, vstart=0, elabels=("x", "y")))
            session.register("short2", labeled_path_query(
                2, vstart=0, elabels=("x", "y")))
            session.register("long", labeled_path_query(
                2, vstart=0, elabels=("x", "y")), window=9.0)
            session.register("counted", labeled_path_query(
                2, vstart=0, elabels=("x", "y")),
                window=CountSlidingWindow(30))
            results[mode] = Counter(session.push_many(edges))
        assert results["shared"] == results["private"]
        shared = sessions["shared"]
        stats = shared.session_stats()
        # short+short2 share one record; long and counted each keep their
        # own (three records, four consumers).
        assert stats["shared_subplans"] == 3
        assert stats["subplan_consumers"] == 4
        short = shared.matcher("short")
        assert short._tc_stores[0] is shared.matcher("short2")._tc_stores[0]
        assert short._tc_stores[0] is not shared.matcher("long")._tc_stores[0]
        assert_sessions_equivalent(shared, sessions["private"])

    def test_mixed_storages_do_not_cross_share(self):
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=6.0, config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(17, 250)
        for mode, session in sessions.items():
            session.register("tree", labeled_path_query(
                2, vstart=0, elabels=("x", "y")))
            session.register("flat", labeled_path_query(
                2, vstart=0, elabels=("x", "y")),
                config=EngineConfig(storage="independent",
                                    subplan_sharing=mode))
            results[mode] = Counter(session.push_many(edges))
        assert results["shared"] == results["private"]
        shared = sessions["shared"]
        assert shared.matcher("tree")._tc_stores[0] is not \
            shared.matcher("flat")._tc_stores[0]
        assert shared.session_stats()["shared_subplans"] == 2
        assert_sessions_equivalent(shared, sessions["private"])

    def test_mixed_indexing_consumers_share_one_store(self):
        """A scan-mode engine and a hash-mode engine canonicalise to the
        same sub-plan and share the store; whichever consumes an arrival
        first computes the delta, the other replays the memo."""
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=6.0, config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(19, 250)
        for mode, session in sessions.items():
            session.register("hash", labeled_path_query(
                2, vstart=0, elabels=("x", "y")))
            session.register("scan", labeled_path_query(
                2, vstart=0, elabels=("x", "y")),
                config=EngineConfig(indexing="scan", subplan_sharing=mode))
            results[mode] = Counter(session.push_many(edges))
        assert results["shared"] == results["private"]
        shared = sessions["shared"]
        assert shared.matcher("hash")._tc_stores[0] is \
            shared.matcher("scan")._tc_stores[0]
        assert_sessions_equivalent(shared, sessions["private"])

    @pytest.mark.parametrize("policy", ["skip", "count"])
    def test_duplicate_drop_policies_agree(self, policy):
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=3.0, duplicate_policy=policy,
            config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(31, 250, id_pool=10)
        for mode, session in sessions.items():
            for name, query in overlapping_query_set().items():
                session.register(name, query)
            results[mode] = Counter(session.push_many(edges))
        assert results["shared"] == results["private"]
        if policy == "count":
            shared_stats = sessions["shared"].stats()
            for name, private_stats in sessions["private"].stats().items():
                assert shared_stats[name]["edges_skipped"] == \
                    private_stats["edges_skipped"], name
        assert_sessions_equivalent(sessions["shared"], sessions["private"])

    def test_fanout_routing_never_shares(self):
        session = Session(window=6.0, routing="fanout")
        session.register("a", labeled_path_query(2, elabels=("x", "y")))
        session.register("b", labeled_path_query(2, elabels=("x", "y")))
        session.push_many(labeled_stream(23, 100))
        assert session.session_stats()["shared_subplans"] == 0
        assert session.matcher("a")._tc_stores[0] is not \
            session.matcher("b")._tc_stores[0]


class TestExactlyOnceMaintenance:
    def test_shared_store_cells_equal_single_engine(self):
        """Q identical queries keep ONE copy of the sub-plan store: the
        session's physical space equals a single private engine's."""
        shared = Session(window=50.0)
        private = Session(window=50.0, config=EngineConfig(
            subplan_sharing="private"))
        edges = labeled_stream(29, 200)
        num_queries = 6
        for session in (shared, private):
            for i in range(num_queries):
                session.register(f"q{i}", labeled_path_query(
                    2, elabels=("x", "y")))
            session.push_many(edges)
        stats = shared.session_stats()
        assert stats["shared_subplans"] == 1
        assert stats["subplan_consumers"] == num_queries
        one_engine = private.matcher("q0").space_cells()
        assert one_engine > 0
        assert shared.space_cells() == one_engine
        assert private.space_cells() == num_queries * one_engine
        # Logical per-query space is unchanged by sharing.
        assert shared.matcher("q0").space_cells() == one_engine

    def test_first_consumer_computes_rest_reuse(self):
        session = Session(window=50.0)
        session.register("first", labeled_path_query(2, elabels=("x", "y")))
        session.register("second", labeled_path_query(2, elabels=("x", "y")))
        session.push_many(labeled_stream(37, 150))
        first = session.matcher("first").stats
        second = session.matcher("second").stats
        assert first.subplan_reuses == 0        # registration order wins
        assert second.subplan_reuses > 0
        assert second.partial_matches_created == 0
        assert first.partial_matches_created > 0
        # Both report the same answers regardless of who did the work.
        assert session.result_counts()["first"] == \
            session.result_counts()["second"]


class TestChurn:
    def test_register_deregister_mid_stream(self):
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=6.0, config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(41, 360)
        third = len(edges) // 3
        for mode, session in sessions.items():
            queries = overlapping_query_set()
            session.register("t0", queries["t0"])
            session.register("t1", queries["t1"])
            session.register("other", queries["other"])
            tagged = Counter(session.push_many(edges[:third]))
            session.deregister("t1")
            session.register("late", labeled_path_query(
                2, vstart=0, elabels=("x", "y")))
            tagged += Counter(session.push_many(edges[third:2 * third]))
            session.deregister("other")
            session.register("t1", labeled_path_query(
                1, vstart=1, elabels=("y",)))      # retired name, new query
            tagged += Counter(session.push_many(edges[2 * third:]))
            results[mode] = tagged
        assert results["shared"] == results["private"]
        assert_sessions_equivalent(sessions["shared"], sessions["private"])

    def test_deregister_releases_refcounts_and_frees_stores(self):
        session = Session(window=6.0)
        session.register("a", labeled_path_query(2, elabels=("x", "y")))
        session.register("b", labeled_path_query(2, elabels=("x", "y")))
        edges = labeled_stream(43, 120)
        session.push_many(edges[:60])
        registry = session._subplans
        assert registry.record_count() == 1
        assert registry.consumer_count() == 2
        shared_store = session.matcher("a")._tc_stores[0]
        session.deregister("a")
        assert registry.record_count() == 1     # b still consumes it
        assert registry.consumer_count() == 1
        # The departed engine's expiry cascade is detached: only b's
        # global tree (if any) and the store's own bookkeeping remain.
        session.push_many(edges[60:])           # keeps streaming cleanly
        session.deregister("b")
        assert registry.record_count() == 0     # last consumer frees it
        assert registry.consumer_count() == 0
        assert shared_store._leaf_observers == []

    def test_deregister_releases_query_specific_indexes(self):
        """An engine's union-join shapes are query-specific; when it
        departs, the indexes it registered on a still-live shared store
        must be unregistered (refcounted), or every later insert/expiry
        would keep maintaining them for the store's whole lifetime."""
        session = Session(window=6.0)
        session.register("t0", labeled_path_query(2, elabels=("x", "y")))
        store = session.matcher("t0")._tc_stores[0]
        baseline = store.indexes.index_count()
        session.register("sup", chain_plus_tail())
        assert session.matcher("sup")._tc_stores[0] is store \
            or store in session.matcher("sup")._tc_stores
        grew = store.indexes.index_count()
        assert grew > baseline          # sup's union shape landed here
        edges = labeled_stream(61, 120)
        session.push_many(edges[:60])
        session.deregister("sup")
        assert store.indexes.index_count() == baseline
        # t0 still probes its (refcounted) extension indexes just fine.
        session.push_many(edges[60:])
        assert session.result_counts()["t0"] >= 0
        session.deregister("t0")
        assert store.indexes.index_count() == 0     # fully balanced

    def test_mid_stream_registrant_gets_fresh_store(self):
        """A query registered mid-stream starts from an empty window, so
        it must not adopt a non-empty shared store — it opens a fresh
        record that *later* registrants may share."""
        results = {}
        sessions = twin_sessions(lambda mode: Session(
            window=50.0, config=EngineConfig(subplan_sharing=mode)))
        edges = labeled_stream(47, 200)
        for mode, session in sessions.items():
            session.register("early", labeled_path_query(
                2, elabels=("x", "y")))
            tagged = Counter(session.push_many(edges[:100]))
            session.register("late", labeled_path_query(
                2, elabels=("x", "y")))
            session.register("later", labeled_path_query(
                2, elabels=("x", "y")))
            tagged += Counter(session.push_many(edges[100:]))
            results[mode] = tagged
        assert results["shared"] == results["private"]
        shared = sessions["shared"]
        early = shared.matcher("early")._tc_stores[0]
        late = shared.matcher("late")._tc_stores[0]
        assert early is not late                # filled store not adopted
        assert late is shared.matcher("later")._tc_stores[0]
        assert_sessions_equivalent(shared, sessions["private"])


class TestCheckpointRestore:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_cache_hit_session_round_trip(self, storage):
        """Restoring a sharing session re-registers its queries over
        empty stores, so consumers of one record alias one store again;
        the resumed run equals a continuous private run."""
        edges = labeled_stream(53, 240)
        half = len(edges) // 2

        continuous = Session(window=6.0, config=EngineConfig(
            storage=storage, subplan_sharing="private"))
        for name, query in overlapping_query_set().items():
            continuous.register(name, query)
        reference = Counter(continuous.push_many(edges))

        session = Session(window=6.0, config=EngineConfig(storage=storage))
        for name, query in overlapping_query_set().items():
            session.register(name, query)
        first = Counter(session.push_many(edges[:half]))
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        stats = restored.session_stats()
        assert stats["subplan_sharing"] == "shared"
        assert stats["shared_subplans"] == \
            session.session_stats()["shared_subplans"]
        # Consumers of one record alias one store object again.
        assert restored.matcher("t0")._tc_stores[0] is \
            restored.matcher("t1")._tc_stores[0]
        assert any(restored.matcher("t0")._tc_stores[0] is record.store
                   for record in restored._subplans.records())
        second = Counter(restored.push_many(edges[half:]))
        assert first + second == reference
        assert restored.result_counts() == continuous.result_counts()

    def test_checkpoint_drops_delta_memo(self):
        """The per-arrival delta memo is in-flight work, not data: a
        checkpoint taken while it is warm restores to a record whose
        memo names at most a replayed edge, which no later arrival can
        be mistaken for."""
        session = Session(window=6.0)
        session.register("a", labeled_path_query(2, elabels=("x", "y")))
        session.register("b", labeled_path_query(2, elabels=("x", "y")))
        edges = labeled_stream(59, 120)
        session.push_many(edges[:80])
        (record,) = session._subplans.records()
        assert record._delta_key is not None    # memo warm after a push
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        (restored_record,) = restored._subplans.records()
        assert restored_record.consumers == 2
        assert restored_record._delta_key in (
            None, *((edge.edge_id, edge.timestamp) for edge in edges[:80]))
        assert restored.push_many(edges[80:]) == session.push_many(edges[80:])
        assert restored.stats() == session.stats()
