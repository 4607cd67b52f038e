"""BoundedEdgeQueue: blocking backpressure, LSN tags, counters, close."""

import threading
import time

import pytest

from repro.service import BoundedEdgeQueue, QueueClosed
from repro.service.queues import BACKPRESSURE_POLICIES

from .conftest import chain_edges


def drain(queue, max_batch=100):
    entries, _closed = queue.get_batch(max_batch, timeout=0.1)
    return [entry.edge for entry in entries]


class TestBasics:
    def test_fifo_order(self):
        queue = BoundedEdgeQueue(16)
        edges = chain_edges()
        for edge in edges:
            queue.put(edge)
        assert drain(queue) == edges

    def test_counters(self):
        queue = BoundedEdgeQueue(16)
        edges = chain_edges()
        queue.put_batch(edges, first_lsn=1)
        counters = queue.counters()
        assert counters["enqueued"] == 4
        assert counters["depth"] == 4
        assert counters["high_water"] == 4
        drain(queue)
        counters = queue.counters()
        assert counters["dequeued"] == 4 and counters["depth"] == 0

    def test_lag_tracks_oldest_entry(self):
        queue = BoundedEdgeQueue(16)
        assert queue.counters()["lag_seconds"] == 0.0
        queue.put(chain_edges()[0])
        time.sleep(0.02)
        assert queue.counters()["lag_seconds"] >= 0.02

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedEdgeQueue(0)
        with pytest.raises(ValueError, match="policy"):
            BoundedEdgeQueue(4, policy="yolo")

    def test_policies_constant(self):
        assert BACKPRESSURE_POLICIES == ("block",)

    def test_load_shedding_is_not_a_policy(self):
        """A full queue never evicts: the only policy blocks."""
        with pytest.raises(ValueError, match=r"expected one of \('block',\)"):
            BoundedEdgeQueue(4, policy="drop_oldest")
        assert BoundedEdgeQueue(4, policy="block").capacity == 4

    def test_counters_are_memory_only(self):
        """The queue parks nothing on disk, so /metrics exports only
        in-memory counters."""
        assert set(BoundedEdgeQueue(4).counters()) == {
            "capacity", "depth", "high_water", "enqueued", "dequeued",
            "rejected_closed", "lag_seconds"}


class TestBlockPolicy:
    def test_put_blocks_until_consumer_makes_room(self):
        queue = BoundedEdgeQueue(2, policy="block")
        edges = chain_edges()
        queue.put(edges[0])
        queue.put(edges[1])
        admitted = []

        def producer():
            queue.put(edges[2])
            admitted.append(True)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert not admitted, "put should still be blocked"
        got = drain(queue, max_batch=1)
        thread.join(2.0)
        assert admitted and got == [edges[0]]
        assert queue.enqueued == 3

    def test_put_without_an_lsn_is_no_journal_position(self):
        """``put(edge)`` outside a tenant tags LSN 0, which no applied
        watermark ever moves to."""
        queue = BoundedEdgeQueue(4)
        queue.put(chain_edges()[0])
        queue.put(chain_edges()[1], lsn=7, offset=("feed", 3))
        entries, _ = queue.get_batch(4, timeout=0)
        assert [(e.lsn, e.offset) for e in entries] == [
            (0, None), (7, ("feed", 3))]


class TestWait:
    """``wait`` is how a consumer that applies under its own lock learns
    that a batch is ready without dequeuing it."""

    def test_wakes_when_an_entry_arrives(self):
        queue = BoundedEdgeQueue(4)
        timer = threading.Timer(0.05, queue.put, (chain_edges()[0],))
        timer.start()
        try:
            assert queue.wait(5.0) is True
        finally:
            timer.join()
        assert queue.depth() == 1       # wait dequeues nothing

    def test_times_out_on_an_empty_queue(self):
        queue = BoundedEdgeQueue(4)
        before = time.monotonic()
        assert queue.wait(0.05) is False
        assert time.monotonic() - before >= 0.04

    def test_close_wakes_a_waiter_and_the_backlog_still_counts(self):
        queue = BoundedEdgeQueue(4)
        timer = threading.Timer(0.05, queue.close)
        timer.start()
        before = time.monotonic()
        try:
            assert queue.wait(5.0) is False
        finally:
            timer.join()
        assert time.monotonic() - before < 4.0
        closed = BoundedEdgeQueue(4)
        closed.put(chain_edges()[0])
        closed.close()
        assert closed.wait(0.0) is True     # still draining


class TestClose:
    def test_put_after_close_raises(self):
        queue = BoundedEdgeQueue(4)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(chain_edges()[0])
        assert queue.rejected_closed == 1

    def test_close_wakes_blocked_producer(self):
        queue = BoundedEdgeQueue(1, policy="block")
        edges = chain_edges()
        queue.put(edges[0])
        outcome = []

        def producer():
            try:
                queue.put(edges[1])
            except QueueClosed:
                outcome.append("closed")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(2.0)
        assert outcome == ["closed"]

    def test_consumer_drains_backlog_then_sees_closed(self):
        queue = BoundedEdgeQueue(8)
        edges = chain_edges()
        queue.put_batch(edges, first_lsn=1)
        queue.close()
        entries, closed = queue.get_batch(2, timeout=0.1)
        assert len(entries) == 2 and not closed
        entries, closed = queue.get_batch(10, timeout=0.1)
        assert len(entries) == 2 and not closed
        entries, closed = queue.get_batch(10, timeout=0.1)
        assert entries == [] and closed

    def test_close_is_idempotent(self):
        queue = BoundedEdgeQueue(4)
        queue.close()
        queue.close()
        assert queue.closed


def ten_edges():
    from repro import StreamEdge
    return [StreamEdge(f"s{i}", "d", src_label="A", dst_label="B",
                       timestamp=float(i + 1)) for i in range(10)]


class TestPutBatch:
    """A 10-edge batch through a queue of capacity 4."""

    def test_block_drains_an_oversized_batch_in_order(self):
        queue = BoundedEdgeQueue(4, policy="block")
        edges = ten_edges()
        got = []

        def slow_consumer():
            deadline = time.monotonic() + 5.0
            while len(got) < len(edges) and time.monotonic() < deadline:
                time.sleep(0.01)
                entries, _ = queue.get_batch(3, timeout=1.0)
                got.extend(entries)

        consumer = threading.Thread(target=slow_consumer, daemon=True)
        consumer.start()
        before = time.monotonic()
        queue.put_batch(edges, first_lsn=41, offset=("feed", 99))
        consumer.join(5.0)
        assert not consumer.is_alive()
        assert [entry.edge for entry in got] == edges
        assert [entry.lsn for entry in got] == list(range(41, 51))
        assert [entry.offset for entry in got] == [None] * 9 + [("feed", 99)]
        stamps = [entry.enqueued_at for entry in got]
        assert stamps == sorted(stamps)
        assert before <= stamps[0] and stamps[-1] <= time.monotonic()
        # The first four went in under one timestamp; the rest waited.
        assert len(set(stamps[:4])) == 1 and stamps[4] > stamps[0]
        counters = queue.counters()
        assert counters["enqueued"] == counters["dequeued"] == 10
        assert counters["high_water"] == 4

    def test_block_close_while_blocked_raises(self):
        queue = BoundedEdgeQueue(4, policy="block")
        outcome = []

        def producer():
            try:
                queue.put_batch(ten_edges(), first_lsn=1)
            except QueueClosed:
                outcome.append("closed")

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(2.0)
        assert outcome == ["closed"] and queue.rejected_closed == 1
        # The room there was is kept: the admitted prefix still drains.
        assert drain(queue) == ten_edges()[:4]
        with pytest.raises(QueueClosed):
            queue.put_batch(ten_edges(), first_lsn=11)

    def test_lsns_and_tags_run_on_across_batches(self):
        queue = BoundedEdgeQueue(8)
        edges = ten_edges()
        queue.put_batch(edges[:3], first_lsn=1, offset=("feed", 3))
        queue.put_batch(edges[3:6], first_lsn=4, offset=("feed", 6))
        entries, _ = queue.get_batch(100, timeout=0.1)
        assert [entry.edge for entry in entries] == edges[:6]
        assert [entry.lsn for entry in entries] == [1, 2, 3, 4, 5, 6]
        assert [entry.offset for entry in entries] == [
            None, None, ("feed", 3), None, None, ("feed", 6)]

    def test_one_fault_check_per_batch(self):
        from repro import faults
        plan = faults.FaultPlan([faults.FaultSpec(
            site="queue.put", kind="crash", at=2)])
        queue = BoundedEdgeQueue(16)
        with faults.active(plan):
            queue.put_batch(ten_edges(), first_lsn=1)   # call 1, ten edges
            with pytest.raises(faults.InjectedFault):
                queue.put_batch(ten_edges()[:1], first_lsn=11)  # call 2
        assert queue.enqueued == 10

    def test_empty_batch_is_a_no_op(self):
        queue = BoundedEdgeQueue(4)
        queue.put_batch([], first_lsn=1)
        queue.close()
        queue.put_batch([], first_lsn=1)    # nothing to refuse
        assert queue.enqueued == 0 and queue.rejected_closed == 0
