"""The guard contract, pinned from both sides.

A serial call (``guard=None`` — ``push``, a session, a bare
``insert_edge(e)`` / ``delete_edge(e)``) names no item and calls no guard,
not even a no-op one; a call that *is* handed a guard brackets exactly the
§V item sequence of what it can mutate, pinned below, and the
multi-threaded executor still equals the serial run.
"""

import hashlib
from collections import Counter

import pytest

from repro import EngineConfig, Session, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.concurrency import ConcurrentStreamExecutor
from repro.core.guard import NullGuard, TraceGuard
from repro.graph.window import SlidingWindow

from ..conftest import path_query, random_stream
from .test_match_once import root_delete_items

WINDOW = 2.5
STREAM = random_stream(20, 300, 7, labels="AB")


def query():
    """k = 3 in join order ``(e0 ≺ e1), (e2), (e3)``: one extension join
    and both global levels run on :data:`STREAM`."""
    q = path_query(4, labels="AB", timing="empty")
    q.add_timing_chain("e0", "e1")
    return q


def engine(storage="mstree", indexing="hash"):
    made = TimingMatcher(query(), WINDOW, config=EngineConfig(
        storage=storage, indexing=indexing))
    assert made.k == 3
    return made


@pytest.fixture(scope="module")
def reference():
    """The oracle's answer: 16 matches, so every join shape completes."""
    matches = NaiveSnapshotMatcher(query(), WINDOW).push_many(STREAM)
    assert len(matches) == 16
    return Counter(matches)


@pytest.fixture
def no_null_guard(monkeypatch):
    """Any call that reaches a ``NullGuard`` fails the test."""
    def reached(self, *args, **kwargs):
        raise AssertionError("a serial call went through NullGuard")

    monkeypatch.setattr(NullGuard, "acquire", reached)
    monkeypatch.setattr(NullGuard, "release", reached)


@pytest.mark.usefixtures("no_null_guard")
class TestSerialCallsTakeNoGuard:
    @pytest.mark.parametrize("indexing", ["hash", "scan"])
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_push_stream(self, reference, storage, indexing):
        made = engine(storage, indexing)
        assert Counter(made.push_many(STREAM)) == reference
        made.advance_time(STREAM[-1].timestamp + 2 * WINDOW)    # expiry too
        assert made.space_cells() == 0

    def test_session_stream(self, reference):
        session = Session(window=WINDOW)
        session.register("q", query())
        tagged = session.push_many(STREAM)
        assert Counter(match for _, match in tagged) == reference
        session.advance_time(STREAM[-1].timestamp + 2 * WINDOW)
        assert session.space_cells() == 0

    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_bare_insert_and_delete(self, reference, storage):
        made = engine(storage)
        window = SlidingWindow(WINDOW)
        matches = []
        for edge in STREAM:
            for old in window.push(edge):
                made.delete_edge(old)
            matches.extend(made.insert_edge(edge))
        assert Counter(matches) == reference
        assert made.stats.expired_partials > 0


class TestPassedGuardSeesTheSameProtocol:
    #: ``(ops, sha256)`` of the transaction list below per indexing mode.
    #: Storage-independent: both stores lock the same items; scan and
    #: hash differ only in the costs they report.  Re-pinned when expiry
    #: began registering roots only: 1532 → 1374 ops, all of it in the
    #: deletes (865 → 707; the 667 insert ops are unchanged) — a delete
    #: locks only the sub-queries whose first edge the expiring edge
    #: matched (see ``test_match_once.root_delete_items``), since FIFO
    #: expiry removes a partial match with its root, its oldest edge.
    PINNED = {
        "hash": (1374, "14b05fb6667c6037e71c2f110eb9ff2e"
                       "07aad19ad2a180c70333a0e51e2a19ce"),
        "scan": (1374, "4477aa8178683885963771a568205bc6"
                       "5124c11c2ce43cde76d359797992c630"),
    }

    @pytest.mark.parametrize("indexing", ["hash", "scan"])
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_trace_of_a_pinned_stream(self, reference, storage, indexing):
        made = engine(storage, indexing)
        window = SlidingWindow(WINDOW)
        transactions, matches = [], []
        for edge in STREAM:
            for old in window.push(edge):
                guard = TraceGuard()
                made.delete_edge(old, guard)
                assert [item for item, _, _ in guard.ops] \
                    == root_delete_items(made, old)
                transactions.append(("del", guard.ops))
            guard = TraceGuard()
            matches.extend(made.insert_edge(edge, guard))
            transactions.append(("ins", guard.ops))
        assert Counter(matches) == reference
        items = {item for _, ops in transactions for item, _, _ in ops}
        assert {("L0", 2), ("L0", 3), ("L", 0, 2), ("L", 2, 1)} <= items
        digest = hashlib.sha256(repr(transactions).encode()).hexdigest()
        assert (sum(len(ops) for _, ops in transactions), digest) \
            == self.PINNED[indexing]

    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_executor_equals_serial(self, reference, storage):
        serial = engine(storage)
        assert Counter(serial.push_many(STREAM)) == reference
        concurrent = engine(storage)
        got = ConcurrentStreamExecutor(concurrent, num_threads=3).run(STREAM)
        assert Counter(got) == reference
        assert set(concurrent.current_matches()) \
            == set(serial.current_matches())
        assert concurrent.store_profile() == serial.store_profile()
