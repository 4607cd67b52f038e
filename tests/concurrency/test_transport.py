"""Property tests for the zero-pickle shared-memory shard transport.

The SPSC ring is the part of :mod:`repro.concurrency.transport` where a
bug corrupts answers silently (a torn frame decodes into wrong edges),
so it gets the adversarial coverage: wrap-around placement, full-ring
backpressure, torn-frame rejection, a seeded threaded soak and a
two-process soak over real shared memory.  The codec is covered
differentially — encode/decode must reproduce every field of every row
exactly, including the irregular shapes that ride the pickled overflow
lane.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import StreamEdge
from repro.concurrency.sharding import _edge_to_wire
from repro.concurrency.transport import (
    FRAME_HEADER,
    RESULT_PICKLED,
    BatchDecoder,
    BatchEncoder,
    FacadeChannel,
    ShmRing,
    SpscRing,
    TornFrameError,
    TransportError,
    WorkerChannel,
)


def make_ring(capacity: int) -> SpscRing:
    """A process-local ring: the SPSC logic is buffer-agnostic."""
    return SpscRing(bytearray(16 + capacity))


# --------------------------------------------------------------------- #
# Ring framing
# --------------------------------------------------------------------- #

class TestRingFraming:
    def test_fifo_roundtrip(self):
        ring = make_ring(256)
        payloads = [bytes([i]) * (i % 40) for i in range(20)]
        out = []
        pending = list(payloads)
        while pending or ring.used:
            while pending and ring.try_write(pending[0]):
                pending.pop(0)
            frame = ring.try_read()
            if frame is not None:
                out.append(frame)
        assert out == payloads

    def test_empty_ring_reads_none(self):
        assert make_ring(64).try_read() is None

    def test_oversized_frame_raises(self):
        ring = make_ring(64)
        with pytest.raises(ValueError):
            ring.try_write(b"x" * 64)

    def test_full_ring_backpressure(self):
        ring = make_ring(64)
        payload = b"y" * 20
        assert ring.try_write(payload)
        assert ring.try_write(payload)
        assert not ring.try_write(payload)      # 2 bytes short
        assert ring.try_read() == payload
        assert ring.try_write(payload)          # space reclaimed

    def test_frame_larger_than_tail_remainder_of_empty_ring(self):
        # Regression: with head==tail mid-buffer, a frame bigger than
        # the bytes left before the wrap point must burn them as a skip
        # and land at offset zero — not report the ring full forever.
        ring = make_ring(64)
        for _ in range(3):
            assert ring.try_write(b"a" * 20)    # frame size 28
            assert ring.try_read() == b"a" * 20
        remainder = ring.capacity - ring.head % ring.capacity
        assert ring.used == 0 and 0 < remainder < 46
        # Frame size 46 exceeds the remainder *and* what is free once
        # the remainder is burned, so the first attempt publishes the
        # skip and reports full; the write lands after the consumer
        # drains the skip — eventual progress, never a livelock.
        assert not ring.try_write(b"b" * 38)
        assert ring.try_read() is None          # drains the skip region
        assert ring.try_write(b"b" * 38)
        assert ring.try_read() == b"b" * 38

    def test_sub_marker_stub_is_skipped(self):
        # Land head on capacity-2: too short even for a skip marker.
        ring = make_ring(64)
        assert ring.try_write(b"c" * 26)        # frame size 34
        assert ring.try_read() == b"c" * 26
        assert ring.try_write(b"d" * 20)        # 34 + 28 = 62, 2 left
        assert ring.try_read() == b"d" * 20
        assert ring.capacity - ring.head % ring.capacity == 2
        assert ring.try_write(b"e" * 30)
        assert ring.try_read() == b"e" * 30

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=48), max_size=40),
           st.integers(min_value=56, max_value=96))
    def test_interleaved_roundtrip_property(self, payloads, capacity):
        ring = make_ring(capacity)
        pending = [p for p in payloads if FRAME_HEADER + len(p) <= capacity]
        expected = list(pending)
        out = []
        stalled = 0
        while pending or ring.used:
            progressed = False
            while pending and ring.try_write(pending[0]):
                pending.pop(0)
                progressed = True
            frame = ring.try_read()
            if frame is not None:
                out.append(frame)
                progressed = True
            # One write may legitimately need two reads' worth of space
            # (skip + frame), but zero progress twice running means the
            # ring livelocked.
            stalled = 0 if progressed else stalled + 1
            assert stalled < 2, "ring livelocked"
        assert out == expected

    def test_counters_track_bytes(self):
        ring = make_ring(128)
        assert ring.free == 128 and ring.used == 0
        ring.try_write(b"z" * 10)
        assert ring.used == FRAME_HEADER + 10
        ring.try_read()
        assert ring.used == 0 and ring.head == ring.tail


class TestTornFrames:
    def test_corrupted_payload_rejected(self):
        ring = make_ring(128)
        ring.try_write(b"sensitive-bytes")
        # Flip one payload byte behind the producer's back.
        ring._data[FRAME_HEADER] ^= 0xFF
        with pytest.raises(TornFrameError, match="checksum"):
            ring.try_read()

    def test_corrupted_length_rejected(self):
        ring = make_ring(128)
        ring.try_write(b"abcdef")
        ring._data[0] = 200                     # claims 200 payload bytes
        with pytest.raises(TornFrameError, match="claims"):
            ring.try_read()

    def test_skip_region_past_head_rejected(self):
        ring = make_ring(64)
        ring.try_write(b"")
        ring._data[0:4] = b"\xff\xff\xff\xff"   # forge a skip marker
        with pytest.raises(TornFrameError, match="skip region"):
            ring.try_read()

    def test_good_crc_still_passes(self):
        ring = make_ring(128)
        payload = b"check-me"
        ring.try_write(payload)
        assert zlib.crc32(payload) == int.from_bytes(
            bytes(ring._data[4:8]), "little")
        assert ring.try_read() == payload


class TestConcurrentSoak:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_seeded_producer_consumer(self, seed):
        import random
        rng = random.Random(seed)
        payloads = [rng.randbytes(rng.randrange(0, 120))
                    for _ in range(300)]
        ring = make_ring(256)
        out = []

        def produce():
            for payload in payloads:
                while not ring.try_write(payload):
                    pass

        def consume():
            while len(out) < len(payloads):
                frame = ring.try_read()
                if frame is not None:
                    out.append(frame)

        producer = threading.Thread(target=produce)
        consumer = threading.Thread(target=consume)
        producer.start()
        consumer.start()
        producer.join(30.0)
        consumer.join(30.0)
        assert not producer.is_alive() and not consumer.is_alive()
        assert out == payloads

    def test_two_process_producer_consumer(self):
        """The threaded soak holds the GIL across each counter store, so
        it cannot see a store that is not a single 8-byte write.  Here
        the producer is another process on (given two cores) another
        core: a counter published in two steps reads as 0 mid-publish
        and the reader raises ``TornFrameError`` within a few thousand
        frames."""
        ring = ShmRing.create(4096)
        # The default context, as ShardedSession starts its workers.
        producer = multiprocessing.get_context().Process(
            target=_produce_frames, args=(ring.name, SOAK_FRAMES))
        try:
            producer.start()
            deadline = time.monotonic() + 120.0
            expected = 0
            while expected < SOAK_FRAMES:
                frame = ring.ring.try_read()
                if frame is None:
                    assert time.monotonic() < deadline, (
                        f"stalled after {expected} frames")
                    continue
                assert frame == _soak_frame(expected)
                expected += 1
            producer.join(30.0)
            assert producer.exitcode == 0
        finally:
            if producer.is_alive():
                producer.kill()
                producer.join(10.0)
            ring.close()


SOAK_FRAMES = 100_000


def _soak_frame(index: int) -> bytes:
    return index.to_bytes(8, "little") + b"-soak"


def _produce_frames(name: str, count: int) -> None:
    """Producer-process entry point: attach by name, write ``count``
    sequence-numbered 13-byte frames."""
    ring = ShmRing.attach(name)
    try:
        for index in range(count):
            frame = _soak_frame(index)
            while not ring.ring.try_write(frame):
                pass
    finally:
        ring.close()


# --------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------- #

def roundtrip(encoder: BatchEncoder, decoder: BatchDecoder, rows,
              seq: int = 1):
    payload, pending = encoder.encode(seq, rows)
    encoder.table.mark_shipped(pending)
    got_seq, got_rows = decoder.decode(payload)
    assert got_seq == seq
    return got_rows


def assert_rows_equal(got_rows, rows):
    assert len(got_rows) == len(rows)
    for (got_idx, got_edge, got_forced), (idx, wire, forced) in zip(
            got_rows, rows):
        assert got_idx == idx
        assert got_forced == forced
        if isinstance(got_edge, StreamEdge):
            assert _edge_to_wire(got_edge) == wire
        else:                       # overflow rows carry the wire tuple
            assert got_edge == wire


def edge_row(idx: int, edge: StreamEdge, forced=None):
    return (idx, _edge_to_wire(edge), forced)


LABELS = st.one_of(st.none(), st.text(max_size=8))
TIMESTAMPS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(min_value=-2**60, max_value=2**60),
    st.text(max_size=6))


@st.composite
def edges(draw):
    src = draw(st.text(min_size=1, max_size=8))
    dst = draw(st.text(min_size=1, max_size=8))
    timestamp = draw(TIMESTAMPS)
    edge_id = draw(st.one_of(
        st.none(),
        st.integers(min_value=-2**70, max_value=2**70),
        st.tuples(st.text(max_size=4), st.text(max_size=4))))
    return StreamEdge(src, dst,
                      src_label=draw(LABELS), dst_label=draw(LABELS),
                      timestamp=timestamp, label=draw(LABELS),
                      edge_id=edge_id)


class TestCodec:
    def test_typical_batch_roundtrips(self):
        encoder, decoder = BatchEncoder(), BatchDecoder()
        rows = [edge_row(i, StreamEdge(
            f"a{i}", f"b{i}", src_label="A", dst_label="B",
            timestamp=float(i), label="conn")) for i in range(64)]
        assert_rows_equal(roundtrip(encoder, decoder, rows), rows)

    def test_unlabelled_edges_roundtrip(self):
        encoder, decoder = BatchEncoder(), BatchDecoder()
        rows = [edge_row(i, StreamEdge(f"a{i}", "hub", src_label=None,
                                       dst_label=None, timestamp=float(i)))
                for i in range(8)]
        assert_rows_equal(roundtrip(encoder, decoder, rows), rows)

    def test_forced_rows_ride_overflow_in_order(self):
        encoder, decoder = BatchEncoder(), BatchDecoder()
        rows = []
        for i in range(12):
            forced = frozenset({("g", i)}) if i % 3 == 0 else None
            rows.append(edge_row(i, StreamEdge(
                "x", "y", src_label=None, dst_label=None,
                timestamp=float(i)), forced))
        got = roundtrip(encoder, decoder, rows)
        assert [r[0] for r in got] == list(range(12))
        assert_rows_equal(got, rows)

    def test_unhashable_field_falls_back_to_overflow(self):
        encoder, decoder = BatchEncoder(), BatchDecoder()
        rows = [edge_row(0, StreamEdge(["un", "hashable"], "y",
                                       src_label=None, dst_label=None,
                                       timestamp=0.0, edge_id="e0")),
                edge_row(1, StreamEdge("a", "b", src_label=None,
                                       dst_label=None, timestamp=1.0))]
        assert_rows_equal(roundtrip(encoder, decoder, rows), rows)

    def test_string_table_overflow_spills_rows_not_errors(self):
        # Capacity 8 with None pre-bound: a batch citing more distinct
        # strings than fit must still roundtrip (pinned rows overflow).
        encoder, decoder = BatchEncoder(intern_capacity=8), BatchDecoder()
        rows = [edge_row(i, StreamEdge(
            f"v{i}", f"w{i}", src_label=f"S{i}", dst_label=f"D{i}",
            timestamp=float(i), label=f"L{i}")) for i in range(16)]
        assert_rows_equal(roundtrip(encoder, decoder, rows), rows)

    def test_interns_survive_across_batches_and_eviction(self):
        encoder, decoder = BatchEncoder(intern_capacity=8), BatchDecoder()
        for seq in range(1, 30):
            rows = [edge_row(i, StreamEdge(
                f"v{(seq + i) % 11}", f"w{(seq * 3 + i) % 13}",
                src_label=None, dst_label=None,
                timestamp=float(seq), label="e")) for i in range(6)]
            assert_rows_equal(
                roundtrip(encoder, decoder, rows, seq=seq), rows)

    def test_equal_labels_of_different_type_come_back_as_sent(self):
        """``True``, ``1`` and ``1.0`` compare and hash alike, also
        inside tuples, but only the int matches ``Prefix("1")``."""
        encoder, decoder = BatchEncoder(), BatchDecoder()
        labels = [True, 1, 1.0, (True, "a"), (1, "a"), ("a", 1.0)]
        rows = [edge_row(i, StreamEdge(
            "a", "b", src_label="A", dst_label="B", timestamp=float(i),
            label=label)) for i, label in enumerate(labels)]
        for seq in (1, 2):              # the second frame is all interned
            got = roundtrip(encoder, decoder, rows, seq=seq)
            assert [repr(edge.label) for _, edge, _ in got] \
                == list(map(repr, labels))

    def test_fresh_decoder_detects_desync(self):
        encoder = BatchEncoder()
        rows = [edge_row(0, StreamEdge("a", "b", src_label=None,
                                       dst_label=None, timestamp=0.0))]
        payload, pending = encoder.encode(1, rows)
        encoder.table.mark_shipped(pending)
        payload2, _ = encoder.encode(2, rows)   # no new bindings carried
        with pytest.raises(TransportError, match="desynchronised"):
            BatchDecoder().decode(payload2)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.lists(edges(), max_size=10), max_size=5),
           st.integers(min_value=8, max_value=64))
    def test_random_batches_roundtrip_property(self, batches, capacity):
        encoder = BatchEncoder(intern_capacity=capacity)
        decoder = BatchDecoder()
        for seq, batch in enumerate(batches, start=1):
            rows = [edge_row(i, edge) for i, edge in enumerate(batch)]
            assert_rows_equal(
                roundtrip(encoder, decoder, rows, seq=seq), rows)


# --------------------------------------------------------------------- #
# Channel endpoints over real shared memory
# --------------------------------------------------------------------- #

class TestChannels:
    def make_pair(self, **kwargs):
        facade = FacadeChannel(**kwargs)
        worker = WorkerChannel.attach(facade.spec())
        return facade, worker

    def test_batch_and_result_roundtrip(self):
        facade, worker = self.make_pair()
        try:
            rows = [edge_row(i, StreamEdge(
                f"a{i}", "b", src_label=None, dst_label=None,
                timestamp=float(i))) for i in range(32)]
            frame = facade.encode_batch(rows)
            assert frame is not None
            assert facade.try_send(frame)
            payload = worker.try_read()
            assert worker.peek_seq(payload) == 1
            seq, got_rows = worker.decode(payload)
            assert seq == 1
            assert_rows_equal(got_rows, rows)
            import pickle
            blob = pickle.dumps([(0, "pair", ("m",))])
            assert worker.result_fits(blob)
            assert worker.try_send_result(seq, RESULT_PICKLED, blob)
            status, got_blob = facade.try_recv()
            assert status == RESULT_PICKLED and got_blob == blob
        finally:
            worker.close()
            facade.close()

    def test_oversized_batch_returns_none_for_pipe_fallback(self):
        facade, worker = self.make_pair(data_capacity=4096)
        try:
            rows = [edge_row(i, StreamEdge(
                "s%d" % i, "t", src_label=None, dst_label=None,
                timestamp=float(i), label="x" * 64))
                for i in range(512)]
            assert facade.encode_batch(rows) is None
            assert facade.send_seq == 0     # nothing shipped
        finally:
            worker.close()
            facade.close()

    def test_result_seq_desync_raises(self):
        facade, worker = self.make_pair()
        try:
            assert worker.try_send_result(7, RESULT_PICKLED, b"")
            with pytest.raises(TransportError, match="desynchronised"):
                facade.try_recv()
        finally:
            worker.close()
            facade.close()

    def test_close_unlinks_segments(self):
        from multiprocessing import shared_memory
        facade, worker = self.make_pair()
        names = facade.spec()
        worker.close()
        facade.close()
        for name in names.values():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name).close()
