"""The compiled label index ≡ the ``edge_matches`` scan.

``QueryGraph.matching_edge_ids`` answers from a mask-keyed hash index;
``edge_matches`` / ``labels_compatible`` are the reference semantics.
The property below holds them equal over a label grammar built to hit
every seam of the index (hash-equal values, arities, tuple subclasses,
unhashable values on either side, loops); the count pin keeps the scan
from creeping back on the wildcard-tuple shape the paper's workloads
use; the last class checks the engine against the naive oracle on the
shipped ``.tq`` queries.
"""

import os
import pickle
import random
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StreamEdge, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.core import query as query_module
from repro.core.query import ANY, Prefix, QueryGraph
from repro.datasets.netflow import exfiltration_attack_query
from repro.io.dsl import parse_query

Flow = namedtuple("Flow", "sport dport proto")      # a tuple subclass
NAN = float("nan")

# 1 / True / 1.0 hash and compare equal but differ under Prefix.
scalars = st.sampled_from([1, True, 1.0, 0, 80, 4480, "4480", "a", "ab",
                           "tcp", None])
unhashable = st.sampled_from([[1], [], ["a", 80]])

# Query side: patterns at top level and one or two levels down.
patterns = st.one_of(scalars, scalars, unhashable, st.just(ANY),
                     st.sampled_from([Prefix("a"), Prefix("44"),
                                      Prefix("1")]))
inner = st.one_of(patterns, patterns,
                  st.lists(patterns, max_size=2).map(tuple))
query_labels = st.one_of(
    patterns, patterns,
    st.lists(inner, max_size=3).map(tuple),
    st.integers(1, 3).map(lambda n: (ANY,) * n),
    st.tuples(patterns, scalars, scalars).map(lambda t: Flow(*t)))

# Data side: no patterns, but the same shapes, wrong arities included.
values = st.one_of(scalars, scalars, unhashable, st.just(NAN))
data_inner = st.one_of(values, values,
                       st.lists(values, max_size=2).map(tuple))
data_labels = st.one_of(
    values, values,
    st.lists(data_inner, max_size=4).map(tuple),
    st.tuples(values, scalars, scalars).map(lambda t: Flow(*t)))

query_edges = st.lists(
    st.tuples(query_labels, query_labels, query_labels, st.booleans()),
    min_size=1, max_size=6)
arrivals = st.lists(
    st.tuples(data_labels, data_labels, data_labels, st.booleans()),
    min_size=1, max_size=12)


def build_query(specs) -> QueryGraph:
    """One query edge per spec on its own vertices (a loop when asked):
    ``matching_edge_ids`` judges edges in isolation, so connectivity is
    beside the point here."""
    query = QueryGraph()
    for i, (src_label, edge_label, dst_label, is_loop) in enumerate(specs):
        query.add_vertex(f"u{i}", src_label)
        if is_loop:
            query.add_edge(f"e{i}", f"u{i}", f"u{i}", edge_label)
        else:
            query.add_vertex(f"v{i}", dst_label)
            query.add_edge(f"e{i}", f"u{i}", f"v{i}", edge_label)
    return query


def arrival(src_label, edge_label, dst_label, is_loop) -> StreamEdge:
    return StreamEdge("x", "x" if is_loop else "y", src_label=src_label,
                      dst_label=src_label if is_loop else dst_label,
                      timestamp=1.0, label=edge_label)


def scan(query: QueryGraph, edge: StreamEdge):
    return [eid for eid in query.edge_ids() if query.edge_matches(eid, edge)]


class TestIndexEqualsScan:
    @given(query_edges, arrivals)
    @settings(max_examples=400, deadline=None)
    def test_matching_edge_ids_is_the_scan(self, specs, probes):
        query = build_query(specs)
        cold = pickle.dumps(query)
        edges = [arrival(*probe) for probe in probes]
        for edge in edges:
            assert query.matching_edge_ids(edge) == scan(query, edge)
        # The built index is not part of the pickled state ...
        assert query._label_index is not None
        assert pickle.dumps(query) == cold
        clone = pickle.loads(cold)
        assert clone._label_index is None
        # ... and a restored query answers alike.
        for edge in edges:
            assert clone.matching_edge_ids(edge) == scan(query, edge)

    def test_adding_an_edge_recompiles(self):
        query = build_query([("a", (ANY, 80), "b", False)])
        edge = arrival("a", (1, 80), "b", False)
        assert query.matching_edge_ids(edge) == ["e0"]
        query.add_edge("late", "u0", "v0", (1, ANY))
        assert query.matching_edge_ids(edge) == ["e0", "late"]

    def test_hits_from_several_masks_come_in_insertion_order(self):
        query = build_query([
            ("a", (ANY, 80), "b", False),           # tuple mask
            ("a", (7, 80), "b", False),             # all-keyed
            (ANY, Prefix("x"), ANY, False),         # keys nothing, no hit
            (ANY, ANY, "b", False),                 # dst-only mask
            ("a", (Prefix("7"), ANY), "b", False),  # arity-only + residual
        ])
        assert query.label_index_shape() == (5, 4, 2, False)
        assert query.matching_edge_ids(arrival("a", (7, 80), "b", False)) \
            == ["e0", "e1", "e3", "e4"]


class TestNoScanOnTheWildcardTupleShape:
    """The ``engine_join`` shape: five ``(ANY, port, proto)`` edges over
    ``IP`` vertices share one mask, so an arrival is one dict probe."""

    def test_insert_path_never_calls_labels_compatible(self, monkeypatch):
        calls = Counter()
        original = query_module.labels_compatible

        def counted(query_label, data_label):
            calls["n"] += 1
            return original(query_label, data_label)

        monkeypatch.setattr(query_module, "labels_compatible", counted)
        query = exfiltration_attack_query()
        engine = TimingMatcher(query, 50.0)
        rng = random.Random(5)
        ips = [f"10.0.0.{i}" for i in range(6)]
        for ts in range(1, 401):
            src, dst = rng.sample(ips, 2)
            label = (rng.randrange(49152, 65536), rng.choice([80, 6667, 53]),
                     rng.choice(["tcp", "udp"]))
            engine.push(StreamEdge(src, dst, src_label="IP", dst_label="IP",
                                   timestamp=float(ts), label=label))
        assert engine.stats.edges_matched > 100
        assert engine.stats.expired_edges > 100
        assert calls["n"] == 0
        assert query.label_index_shape() == (1, 5, 0, False)


class TestNaNQueryLabel:
    """A NaN pattern equals nothing — not even itself — yet a dict key
    finds it by object identity, until a pickle round trip makes a new
    object: the answer flipped across a checkpoint.  Refused at
    construction instead."""

    @pytest.mark.parametrize("label", [NAN, (1, NAN), ("a", (NAN,))])
    def test_rejected_at_any_depth(self, label):
        query = QueryGraph()
        with pytest.raises(ValueError, match="NaN"):
            query.add_vertex("a", label)
        query.add_vertex("a", "A")
        query.add_vertex("b", "B")
        with pytest.raises(ValueError, match="NaN"):
            query.add_edge("e", "a", "b", label)
        assert query.num_edges == 0 and query.num_vertices == 2

    def test_data_side_nan_matches_only_any(self):
        query = build_query([("A", ANY, "B", False),
                             ("A", (ANY, 2), "B", False),
                             ("A", 1.0, "B", False)])
        for label, expected in [(NAN, ["e0"]), ((NAN, 2), ["e0", "e1"])]:
            edge = arrival("A", label, "B", False)
            for probe in (edge, pickle.loads(pickle.dumps(edge))):
                assert query.matching_edge_ids(probe) == expected \
                    == scan(query, probe)


QUERIES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "examples", "queries")


def salted_flow_stream(seed: int, n: int):
    """Dense traffic among a few hosts on the two ports the shipped
    queries name, every fifth label swapped for one the index must
    refuse — wrong arity, a scalar, an unhashable list (whole and as a
    keyed component) — or a tuple subclass it must accept."""
    rng = random.Random(seed)
    ips = [f"10.0.0.{i}" for i in range(3)]
    for ts in range(1, n + 1):
        src, dst = rng.sample(ips, 2)
        sport, port = rng.randrange(49152, 65536), rng.choice([80, 6667])
        label = (sport, port, "tcp")
        if ts % 5 == 0:
            label = rng.choice([
                (port, "tcp"), (sport, port, "tcp", 0), port, "tcp", None,
                [sport, port, "tcp"], (sport, [port], "tcp"),
                Flow(sport, port, "tcp")])
        yield StreamEdge(src, dst, src_label="IP", dst_label="IP",
                         timestamp=float(ts), label=label)


class TestEngineAgainstNaiveOnShippedQueries:
    @pytest.mark.parametrize("name", ["exfiltration.tq", "beaconing.tq"])
    def test_same_matches(self, name):
        with open(os.path.join(QUERIES_DIR, name), encoding="utf-8") as src:
            query, window = parse_query(src.read())
        engine = TimingMatcher(query, window)
        oracle = NaiveSnapshotMatcher(query, window)
        emitted = 0
        for edge in salted_flow_stream(11, 300):
            new = engine.push(edge)
            try:
                hash(edge.label)
            except TypeError:
                # The oracle's snapshot hashes labels; such an edge can
                # match neither query, so the oracle loses nothing.
                assert new == []
                continue
            assert Counter(new) == Counter(oracle.push(edge))
            emitted += len(new)
        assert emitted > 0
        assert Counter(engine.current_matches()) \
            == Counter(oracle.current_matches())
