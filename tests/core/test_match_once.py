"""Match-once expiry: what an arrival matched is decided at insertion.

A stored-plan engine calls ``QueryGraph.matching_edge_ids`` once per
arrival — never again when the edge expires — and an arrival that matched
no query edge expires without any store's ``delete_edge`` running
(Algorithm 3 line 12) — and nor does one stored only below roots, since
FIFO expiry removes a partial match with its root.  A guarded delete
locks exactly the items of the sub-queries the expiring edge roots.
"""

import hashlib
from collections import Counter

import pytest

from repro import EngineConfig, Session, TimingMatcher
from repro.core import mstree, stores
from repro.core.guard import TraceGuard
from repro.core.query import QueryGraph

from ..conftest import fig5_query, make_edge, random_stream


@pytest.fixture
def matching_calls(monkeypatch):
    """Counts every ``matching_edge_ids`` call, on any query."""
    calls = Counter()
    original = QueryGraph.matching_edge_ids

    def counted(self, stream_edge):
        calls["n"] += 1
        return original(self, stream_edge)

    monkeypatch.setattr(QueryGraph, "matching_edge_ids", counted)
    return calls


@pytest.fixture
def store_deletes(monkeypatch):
    """Counts ``delete_edge`` on every store class that has one (the
    MS-tree's global store has none: its entries die by cascade)."""
    calls = Counter()
    for cls in (mstree.MSTreeTCStore, mstree.OneEdgeTCStore,
                stores.IndependentTCStore, stores.GlobalIndependentStore):
        original = cls.delete_edge

        def counted(self, edge, _original=original):
            calls["n"] += 1
            return _original(self, edge)

        monkeypatch.setattr(cls, "delete_edge", counted)
    return calls


STREAM = random_stream(21, 300, 8, labels="abcdef")


class TestMatchingRunsOncePerArrival:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_standalone_engine(self, matching_calls, storage):
        engine = TimingMatcher(fig5_query(), 4.0,
                               config=EngineConfig(storage=storage))
        engine.push_many(STREAM)
        assert engine.stats.expired_edges > len(STREAM) // 2
        assert engine.stats.expired_partials > 0        # expiry did work
        engine.advance_time(STREAM[-1].timestamp + 10.0)    # drain
        assert engine.stats.expired_edges == len(STREAM)
        assert engine._touched == {} and engine.space_cells() == 0
        assert matching_calls["n"] == len(STREAM)

    def test_session_member(self, matching_calls):
        """One generic (always-routed) stored query, so the session hands
        the engine every arrival: N inserts, N expiries, N matchings."""
        query = fig5_query()
        query.edge(1).label = ("tuple", query.edge(1).label)   # opaque
        assert query.label_signatures()[2]
        session = Session(window=4.0)
        engine = session.register("q", query)
        session.push_many(STREAM)
        session.advance_time(STREAM[-1].timestamp + 10.0)
        assert engine.stats.edges_seen == len(STREAM) \
            == engine.stats.expired_edges
        assert matching_calls["n"] == len(STREAM)


class TestUnmatchedEdgeTouchesNoStore:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_expiry_is_one_dict_miss(self, store_deletes, storage):
        engine = TimingMatcher(fig5_query(), 2.0,
                               config=EngineConfig(storage=storage))
        assert engine.push(make_edge("x1", "y1", 1.0)) == []    # no label
        assert engine.stats.edges_matched == 0
        assert engine._touched == {}
        engine.advance_time(10.0)
        assert engine.stats.expired_edges == 1
        assert store_deletes["n"] == 0
        engine.push(make_edge("e7", "f8", 11.0))        # matches ε6
        assert list(engine._touched.values()) == [(0,)]
        engine.advance_time(20.0)
        assert store_deletes["n"] > 0 and engine._touched == {}

    def test_delete_of_a_never_inserted_edge_is_a_no_op(self, store_deletes):
        engine = TimingMatcher(fig5_query(), 2.0)
        assert engine.delete_edge(make_edge("e7", "f8", 1.0)) == 0
        assert store_deletes["n"] == 0


def root_delete_items(engine, edge):
    """What ``Del(edge)`` locks: every level of each sub-query whose
    *first* query edge ``edge`` matched — a root's subtree spans them all
    — then ``L₀² … L₀ᵏ``; nothing when ``edge`` roots no partial match."""
    roots = sorted(engine._position[eid][0]
                   for eid in engine.query.matching_edge_ids(edge)
                   if engine._position[eid][1] == 0)
    if not roots:
        return []
    return [("L", si, level) for si in roots
            for level in range(1, len(engine.join_order[si]) + 1)] \
        + [("L0", level) for level in range(2, engine.k + 1)]


class TestGuardSeesTheSameItems:
    #: ``(ops, sha256)`` of the ``(kind, [(item, mode, cost), ...])``
    #: transaction list below (storage-independent: both stores lock the
    #: same items).  Re-pinned when expiry began registering roots only:
    #: 281 → 154 ops.  The 72 insert ops are unchanged; the deletes went
    #: from 50 locking transactions (209 ops) to 21 (82), because an edge
    #: that matched a sub-query only past its first position is stored
    #: only below roots — FIFO expiry removed those partial matches with
    #: their older root — and now locks nothing (``root_delete_items``).
    PINNED = (154, "041d9c1566f792b63fe4fbd9226d7ad7"
                   "711b4a967d866fd969d2f8bf3f3f2485")

    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_lock_trace_of_a_pinned_stream(self, storage):
        engine = TimingMatcher(fig5_query(), 4.0,
                               config=EngineConfig(storage=storage))
        transactions = []
        for edge in STREAM:
            for old in engine.window.push(edge):
                guard = TraceGuard()
                engine.delete_edge(old, guard)
                assert [item for item, _, _ in guard.ops] \
                    == root_delete_items(engine, old)
                transactions.append(("del", guard.ops))
            guard = TraceGuard()
            engine.insert_edge(edge, guard)
            transactions.append(("ins", guard.ops))
        digest = hashlib.sha256(repr(transactions).encode()).hexdigest()
        assert (sum(len(ops) for _, ops in transactions), digest) \
            == self.PINNED
