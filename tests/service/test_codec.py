"""Edge/match JSON codec: round-trips, tuple labels, strict validation."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import StreamEdge
from repro.service import edge_from_json, edge_to_json
from repro.service.codec import CodecError


def roundtrip(edge):
    return edge_from_json(json.loads(json.dumps(edge_to_json(edge))))


class TestRoundTrip:
    def test_plain_edge(self):
        edge = StreamEdge("v1", "w1", src_label="V", dst_label="W",
                          timestamp=3.0)
        back = roundtrip(edge)
        assert back == edge
        assert back.src_label == "V" and back.timestamp == 3.0

    def test_tuple_label_round_trips_with_types(self):
        edge = StreamEdge("v1", "w1", src_label="IP", dst_label="IP",
                          timestamp=1.0, label=(51234, 80, "tcp"))
        back = roundtrip(edge)
        assert back.label == (51234, 80, "tcp")
        assert isinstance(back.label[0], int)

    def test_explicit_edge_id_round_trips(self):
        edge = StreamEdge("v1", "w1", src_label="V", dst_label="W",
                          timestamp=1.0, edge_id="flow-42")
        record = edge_to_json(edge)
        assert record["edge_id"] == "flow-42"
        assert roundtrip(edge).edge_id == "flow-42"

    def test_default_edge_id_is_omitted(self):
        edge = StreamEdge("v1", "w1", src_label="V", dst_label="W",
                          timestamp=1.0)
        record = edge_to_json(edge)
        assert "edge_id" not in record
        assert roundtrip(edge).edge_id == edge.edge_id

    def test_none_label_is_omitted(self):
        edge = StreamEdge("v1", "w1", src_label="V", dst_label="W",
                          timestamp=1.0)
        assert "label" not in edge_to_json(edge)


class TestDecodeValidation:
    def base(self, **extra):
        record = {"src": "v", "dst": "w", "src_label": "V",
                  "dst_label": "W", "timestamp": 1.0}
        record.update(extra)
        return record

    def test_not_an_object(self):
        with pytest.raises(CodecError, match="JSON object"):
            edge_from_json([1, 2, 3])

    def test_unknown_keys_rejected(self):
        with pytest.raises(CodecError, match="unknown edge keys"):
            edge_from_json(self.base(colour="red"))

    def test_missing_keys_rejected(self):
        with pytest.raises(CodecError, match="missing keys"):
            edge_from_json({"src": "v", "timestamp": 1.0})

    def test_missing_timestamp_without_default(self):
        record = self.base()
        del record["timestamp"]
        with pytest.raises(CodecError, match="no timestamp"):
            edge_from_json(record)

    def test_default_timestamp_backs_server_mode(self):
        record = self.base()
        del record["timestamp"]
        edge = edge_from_json(record, default_timestamp=17.0)
        assert edge.timestamp == 17.0

    def test_explicit_timestamp_wins_over_default(self):
        edge = edge_from_json(self.base(), default_timestamp=99.0)
        assert edge.timestamp == 1.0

    @pytest.mark.parametrize("bad", ["soon", True, None, [1]])
    def test_bad_timestamp_types(self, bad):
        with pytest.raises(CodecError, match="timestamp"):
            edge_from_json(self.base(timestamp=bad))

    def test_integer_timestamp_past_float_range_is_a_codec_error(self):
        """JSON carries integers of any size; this one used to escape as
        an ``OverflowError`` (a 500 at the front door)."""
        with pytest.raises(CodecError, match="bad timestamp: too large"):
            edge_from_json(self.base(timestamp=10 ** 400))

    def test_array_decodes_to_tuple(self):
        edge = edge_from_json(self.base(label=[6667, "tcp"]))
        assert edge.label == (6667, "tcp")


# --------------------------------------------------------------------- #
# The set-free decoder against the one it replaced
# --------------------------------------------------------------------- #
def _reference_edge_from_json(record, *, default_timestamp=None):
    """``edge_from_json`` as it stood before the set-free rewrite, kept
    verbatim as the reference."""
    from repro.service.codec import EDGE_KEYS, _decode_value
    if not isinstance(record, dict):
        raise CodecError(f"edge must be a JSON object, got {type(record).__name__}")
    unknown = set(record) - EDGE_KEYS
    if unknown:
        raise CodecError(f"unknown edge keys: {sorted(unknown)}")
    missing = {"src", "dst", "src_label", "dst_label"} - set(record)
    if missing:
        raise CodecError(f"edge is missing keys: {sorted(missing)}")
    timestamp = record.get("timestamp", default_timestamp)
    if timestamp is None:
        raise CodecError("edge has no timestamp and no server default")
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        raise CodecError(f"bad timestamp: {timestamp!r}")
    try:
        return StreamEdge(
            _decode_value(record["src"]), _decode_value(record["dst"]),
            src_label=_decode_value(record["src_label"]),
            dst_label=_decode_value(record["dst_label"]),
            timestamp=float(timestamp),
            label=_decode_value(record.get("label")),
            edge_id=_decode_value(record["edge_id"])
            if "edge_id" in record else None)
    except TypeError as exc:    # unhashable decoded value
        raise CodecError(f"bad edge field: {exc}") from exc


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16))
#: What ``json.loads`` can produce: scalars, nested arrays, and objects
#: (unhashable wherever they land).
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=6)
_KEYS = st.sampled_from(
    ["src", "dst", "src_label", "dst_label", "timestamp", "label",
     "edge_id", "weight", "ts", ""])
_RECORDS = st.one_of(
    st.dictionaries(_KEYS, _VALUES, max_size=9),
    # Mostly-valid edges, so the accept side is exercised too.
    st.fixed_dictionaries(
        {"src": _VALUES, "dst": _VALUES, "src_label": _VALUES,
         "dst_label": _VALUES},
        optional={"timestamp": _VALUES, "label": _VALUES,
                  "edge_id": _VALUES, "weight": _VALUES}),
    _VALUES)        # not an object at all

_FIELDS = ("src", "dst", "src_label", "dst_label", "timestamp", "label",
           "edge_id")


def _outcome(decode, record, default):
    try:
        edge = decode(record, default_timestamp=default)
    except CodecError as exc:
        return "refused", str(exc)
    return "edge", [(getattr(edge, f), type(getattr(edge, f)))
                    for f in _FIELDS]


class TestDecodeAgreesWithReference:
    @given(record=_RECORDS,
           default=st.one_of(st.none(), st.just(7.5)))
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_text_and_fields(self, record, default):
        assert _outcome(edge_from_json, record, default) \
            == _outcome(_reference_edge_from_json, record, default)

    @pytest.mark.parametrize("record", [
        {"dst": 1, "src_label": 2, "ts": 3},            # unknown wins
        {"src": 1, "dst": 2},                           # two missing
        {"src": 1, "dst": 2, "src_label": 3, "dst_label": 4,
         "timestamp": None},                            # explicit null
        {"src": 1, "dst": 2, "src_label": 3, "dst_label": 4,
         "timestamp": True},
        {"src": [1, [2]], "dst": 2, "src_label": [[]], "dst_label": 4,
         "timestamp": 3, "label": [5, [6, "x"]], "edge_id": [7]},
        {"src": {"a": 1}, "dst": 2, "src_label": 3, "dst_label": 4,
         "timestamp": 1.5},                             # unhashable id
        {"src": 1, "dst": 2, "src_label": 3, "dst_label": 4,
         "timestamp": 1.5, "edge_id": None, "label": None},
    ])
    def test_pinned_cases(self, record):
        for default in (None, 7.5):
            assert _outcome(edge_from_json, record, default) \
                == _outcome(_reference_edge_from_json, record, default)
