"""Differential tests for the struct-packed edge batch codec.

Encode/decode must reproduce every field of every row exactly,
including the irregular shapes that ride the pickled overflow lane.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import StreamEdge
from repro.concurrency.transport import (
    BatchDecoder,
    BatchEncoder,
    TransportError,
)


def _edge_to_wire(edge: StreamEdge) -> tuple:
    return (edge.src, edge.dst, edge.src_label, edge.dst_label,
            edge.timestamp, edge.label, edge.edge_id)


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
