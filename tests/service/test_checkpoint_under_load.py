"""Checkpoint-under-load: save_session races a concurrent pusher.

The satellite scenario: one thread pushes a stream through a
:class:`~repro.api.ThreadSafeSession` (``with safe.locked() as session``,
the way the gateway worker does) while another takes checkpoints
mid-flight.  Each checkpoint must land on an arrival boundary (the lock
guarantees it), record its exact stream position, and restoring it plus
replaying the remainder must reproduce the uninterrupted run — no
in-window edges or pending partial matches lost.
"""

import threading
import time

import pytest

from repro import Session, StreamEdge, ThreadSafeSession
from repro.persistence import load_session_meta
from repro.sinks import match_record

from .conftest import CHAIN_DSL


def long_chain_stream(n=120):
    """A stream that keeps producing overlapping chain matches so every
    checkpoint lands with partial matches pending in the window."""
    edges = []
    for i in range(n):
        t = float(i + 1)
        if i % 2 == 0:
            edges.append(StreamEdge(f"a{i}", f"b{i // 4}", src_label="A",
                                    dst_label="B", timestamp=t))
        else:
            edges.append(StreamEdge(f"b{i // 4}", f"c{i}", src_label="B",
                                    dst_label="C", timestamp=t))
    return edges


def make_safe():
    safe = ThreadSafeSession(Session())
    with safe.locked() as session:
        session.register("chain", CHAIN_DSL)
    return safe


def push(safe, edge):
    with safe.locked() as session:
        return session.push(edge)


def fingerprint(session):
    """The session's current in-window match multiset, canonicalised."""
    import json
    return sorted(
        json.dumps(match_record("chain", match), sort_keys=True)
        for match in session.current_matches()["chain"])


class TestCheckpointUnderLoad:
    def test_concurrent_checkpoints_lose_nothing(self, tmp_path):
        edges = long_chain_stream()
        safe = make_safe()

        checkpoints = []
        done = threading.Event()

        def checkpointer():
            index = 0
            while not done.is_set() and index < 200:
                path = str(tmp_path / f"ckpt-{index}.pkl")
                meta = safe.checkpoint(path)
                checkpoints.append((path, meta))
                index += 1
                time.sleep(0.002)

        thread = threading.Thread(target=checkpointer)
        thread.start()
        for edge in edges:
            push(safe, edge)
        done.set()
        thread.join(10.0)
        assert not thread.is_alive()
        assert checkpoints, "no checkpoint completed during the run"

        # Position is always consistent: the meta's counter must match
        # the pickled session's own counter exactly.
        for path, meta in checkpoints:
            session, stored = load_session_meta(path)
            assert stored["edges_pushed"] == meta["edges_pushed"]
            assert session.edges_pushed == meta["edges_pushed"]

        # The reference: one uninterrupted run.
        reference = Session()
        reference.register("chain", CHAIN_DSL)
        reference.push_many(edges)
        expected = fingerprint(reference)
        assert expected, "workload produced no in-window matches"

        # Kill/restore from a mid-stream checkpoint (the latest one that
        # still has edges left to replay, else the last), replay the
        # tail, and compare the full in-window state.
        mid = next(((p, m) for p, m in reversed(checkpoints)
                    if m["edges_pushed"] < len(edges)), checkpoints[-1])
        path, meta = mid
        restored, stored = load_session_meta(path)
        assert stored["edges_pushed"] == restored.edges_pushed
        restored.push_many(edges[restored.edges_pushed:])
        assert restored.edges_pushed == len(edges)
        assert fingerprint(restored) == expected
        assert restored.result_counts() == reference.result_counts()

    def test_checkpoint_meta_records_clock(self, tmp_path):
        safe = make_safe()
        push(safe, StreamEdge("a0", "b0", src_label="A", dst_label="B",
                              timestamp=5.0))
        meta = safe.checkpoint(str(tmp_path / "c.pkl"),
                               meta={"custom": "tag"})
        assert meta["custom"] == "tag"
        assert meta["edges_pushed"] == 1
        assert meta["current_time"] == 5.0

    def test_locked_exposes_raw_session_atomically(self):
        safe = make_safe()
        with safe.locked() as session:
            assert isinstance(session, Session)
            assert session.names() == ["chain"]


class TestThreadSafePushers:
    def test_many_producers_one_session(self):
        """Concurrent push attempts serialise; the losers' stale
        timestamps raise exactly as they would single-threaded."""
        safe = make_safe()
        edges = long_chain_stream(60)
        errors = []

        def pusher(chunk):
            for edge in chunk:
                try:
                    push(safe, edge)
                except ValueError:
                    errors.append(edge)

        threads = [threading.Thread(target=pusher, args=(edges[i::3],))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        # Everything either landed or was rejected for timestamp order —
        # and the counters add up exactly.
        assert safe.edges_pushed + len(errors) == len(edges)
        assert safe.edges_pushed >= len(edges) // 3
