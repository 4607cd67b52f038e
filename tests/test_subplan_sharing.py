"""Sub-plan sharing: who shares a store, who computes, what is released.

Engines whose plans contain the same canonical TC-subquery adopt one
refcounted store, written once per arrival.  That a sharing session
answers exactly what the naive matcher answers, with each engine's logical
space equal to a private engine's, is ``tests/test_session_model.py``'s
job.  Pinned here: which registrations share a record and which do not,
that Q consumers keep one physical copy, that the first consumer computes
and the rest replay, that deregistration releases refcounts and indexes,
and that a restore re-aliases consumers and drops the in-flight memo.
"""

import io

import pytest

from repro import CountSlidingWindow, EngineConfig, Session, SlidingWindow

from .conftest import labeled_path_query, labeled_stream, observe


def xy():
    return labeled_path_query(2, vstart=0, elabels=("x", "y"))


def chain_plus_tail():
    """The x→y chain plus a timing-unordered z tail: its first sub-plan
    is the plain 2-edge queries'."""
    q = xy()
    q.add_vertex("v3", "A")
    q.add_edge("tail", "v2", "v3", label="z")
    return q


class TestWhoShares:
    def test_window_groups_do_not_cross_share(self):
        """Same canonical sub-plan, different window groups: each group
        keeps its own record (expiry cadence differs)."""
        session = Session(window=5.0)
        session.register("short", xy())
        session.register("short2", xy())
        session.register("long", xy(), window=9.0)
        session.register("counted", xy(), window=CountSlidingWindow(30))
        session.push_many(labeled_stream(13, 300))
        stats = session.session_stats()
        # short+short2 share one record; long and counted each keep their
        # own (three records, four consumers).
        assert stats["shared_subplans"] == 3
        assert stats["subplan_consumers"] == 4
        short = session.matcher("short")
        assert short._tc_stores[0] is session.matcher("short2")._tc_stores[0]
        assert short._tc_stores[0] is not session.matcher("long")._tc_stores[0]

    def test_storages_do_not_cross_share(self):
        session = Session(window=6.0)
        session.register("tree", xy())
        session.register("flat", xy(), config=EngineConfig(
            storage="independent"))
        assert session.matcher("tree")._tc_stores[0] is not \
            session.matcher("flat")._tc_stores[0]
        assert session.session_stats()["shared_subplans"] == 2

    def test_indexing_modes_share_one_store(self):
        """A scan-mode engine and a hash-mode engine canonicalise to the
        same sub-plan and share the store; whichever consumes an arrival
        first computes the delta, the other replays the memo."""
        session = Session(window=6.0)
        session.register("hash", xy())
        session.register("scan", xy(), config=EngineConfig(indexing="scan"))
        session.push_many(labeled_stream(19, 250))
        assert session.matcher("hash")._tc_stores[0] is \
            session.matcher("scan")._tc_stores[0]
        assert session.result_counts()["hash"] \
            == session.result_counts()["scan"] > 0

    def test_a_custom_window_policy_is_refused(self):
        """Sub-plan sharing is scoped to a window group, whose members
        expire in lock-step.  A custom policy class has no group, so
        registration refuses it before it can hold or share anything."""
        class OwnWindow(SlidingWindow):
            pass

        session = Session(window=6.0)
        session.register("a", xy())
        session.push_many(labeled_stream(23, 100))
        before = observe(session)
        with pytest.raises(ValueError) as info:
            session.register("b", xy(), window=OwnWindow(6.0))
        assert str(info.value) == (
            "window for query 'b' must be a duration, "
            "SlidingWindow(duration) or CountSlidingWindow(capacity), not "
            "OwnWindow: a session member reads its window group's shared "
            "buffer")
        assert observe(session) == before
        assert session._next_ordinal == 1
        assert session.session_stats()["shared_subplans"] == 1

    def test_mid_stream_registrant_gets_fresh_store(self):
        """A query registered mid-stream starts from an empty window, so
        it must not adopt a non-empty shared store — it opens a fresh
        record that *later* registrants may share."""
        session = Session(window=50.0)
        edges = labeled_stream(47, 200)
        session.register("early", xy())
        session.push_many(edges[:100])
        session.register("late", xy())
        session.register("later", xy())
        session.push_many(edges[100:])
        early = session.matcher("early")._tc_stores[0]
        late = session.matcher("late")._tc_stores[0]
        assert early is not late                # filled store not adopted
        assert late is session.matcher("later")._tc_stores[0]


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
                session.register(f"q{i}", xy())
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
        session.register("first", xy())
        session.register("second", xy())
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
    def test_deregister_releases_refcounts_and_frees_stores(self):
        session = Session(window=6.0)
        session.register("a", xy())
        session.register("b", xy())
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
        session.register("t0", xy())
        store = session.matcher("t0")._tc_stores[0]
        baseline = store.indexes.index_count()
        session.register("sup", chain_plus_tail())
        assert store in session.matcher("sup")._tc_stores
        grew = store.indexes.index_count()
        assert grew > baseline          # sup's union shape landed here
        edges = labeled_stream(61, 120)
        session.push_many(edges[:60])
        session.deregister("sup")
        assert store.indexes.index_count() == baseline
        # t0 still probes its (refcounted) extension indexes just fine.
        session.push_many(edges[60:])
        session.deregister("t0")
        assert store.indexes.index_count() == 0     # fully balanced


class TestCheckpointRestore:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_consumers_alias_one_store_again(self, storage):
        """Restoring a sharing session re-registers its queries over
        empty stores, so consumers of one record alias one store again."""
        session = Session(window=6.0, config=EngineConfig(storage=storage))
        for name in ("t0", "t1"):
            session.register(name, xy())
        session.register("super", chain_plus_tail())
        session.push_many(labeled_stream(53, 120))
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        stats = restored.session_stats()
        assert stats["subplan_sharing"] == "shared"
        assert stats["shared_subplans"] == \
            session.session_stats()["shared_subplans"]
        assert restored.matcher("t0")._tc_stores[0] is \
            restored.matcher("t1")._tc_stores[0]
        assert any(restored.matcher("t0")._tc_stores[0] is record.store
                   for record in restored._subplans.records())

    def test_checkpoint_drops_delta_memo(self):
        """The per-arrival delta memo is in-flight work, not data: a
        checkpoint taken while it is warm restores to a record whose
        memo names at most a replayed edge, which no later arrival can
        be mistaken for."""
        session = Session(window=6.0)
        session.register("a", xy())
        session.register("b", xy())
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
