"""The compiled label index ≡ the ``edge_matches`` scan.

``QueryGraph.matching_edge_ids`` and the engines' per-arrival probe
(``QueryGraph._label_probe``) answer from a mask-keyed hash index;
``edge_matches`` / ``labels_compatible`` are the reference semantics.
The properties below hold them equal over a label grammar built to hit
every seam of the index (hash-equal values, arities, tuple subclasses,
unhashable values on either side, loops), on free-form queries and on
the one-table shapes whose probe returns a prebuilt tuple, and hold an
engine's per-query-edge steps to its join order; the count pin keeps
the scan from creeping back on the wildcard-tuple shape the paper's
workloads use; the last class checks the engine against the naive
oracle on the shipped ``.tq`` queries.
"""

import copy
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
from repro.core.query import ANY, FrozenQueryPartError, Prefix, QueryGraph
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


# One-table queries: every edge shares one mask and leaves no residual,
# so the probe is one generated function returning a prebuilt tuple.  A
# *template* fixes the mask: per position "key" (a keyable scalar),
# "any", or a tuple arity with "key"/"any" per component.
keyables = st.sampled_from([1, True, 1.0, 0, 80, "4480", "a", "tcp", None])
position_kinds = st.one_of(
    st.sampled_from(["key", "any"]),
    st.lists(st.sampled_from(["key", "any"]), min_size=1, max_size=3)
    .map(tuple))


def _fill(kind, draw):
    if kind == "key":
        return draw(keyables)
    if kind == "any":
        return ANY
    return tuple(_fill(part, draw) for part in kind)


@st.composite
def one_table_specs(draw):
    """A loop's destination is its source vertex, so a template allows
    loops only when both endpoints share a kind."""
    src, edge, dst = draw(st.tuples(position_kinds, position_kinds,
                                    position_kinds))
    loops = draw(st.booleans())
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        is_loop = loops and draw(st.booleans())
        src_label = _fill(src, draw)
        specs.append((src_label, _fill(edge, draw),
                      src_label if is_loop else _fill(src if loops else dst,
                                                      draw),
                      is_loop))
    return specs


def instantiate(label, fill):
    """A data label an edge of this query label matches: ``ANY`` filled."""
    if label is ANY:
        return fill
    if isinstance(label, tuple):
        return tuple(instantiate(part, fill) for part in label)
    return label


def hits_and_probes(specs, probes):
    """The generated arrivals, plus one per query edge that matches it."""
    edges = [arrival(*probe) for probe in probes]
    for src_label, edge_label, dst_label, is_loop in specs:
        edges.append(arrival(instantiate(src_label, 7),
                             instantiate(edge_label, "x"),
                             instantiate(dst_label, 7), is_loop))
    return edges


def build_chain(specs) -> QueryGraph:
    """The specs as one weakly connected query an engine accepts: each
    edge leaves the previous edge's head (a loop stays on it).  A
    spec's destination label is used when the edge makes a new vertex;
    its source label is the head's."""
    query = QueryGraph()
    query.add_vertex("v0", specs[0][0])
    head = "v0"
    for i, (_, edge_label, dst_label, is_loop) in enumerate(specs):
        if is_loop:
            query.add_edge(f"e{i}", head, head, edge_label)
        else:
            query.add_vertex(f"v{i + 1}", dst_label)
            query.add_edge(f"e{i}", head, f"v{i + 1}", edge_label)
            head = f"v{i + 1}"
    return query


def expected_steps(engine):
    return {eid: (si, j, j == len(seq) - 1)
            for si, seq in enumerate(engine.join_order)
            for j, eid in enumerate(seq)}


def assert_probe_is_the_scan(query, edges):
    probe = query._label_probe()
    for edge in edges:
        assert list(probe(edge)) == scan(query, edge)


class TestIndexEqualsScan:
    @given(query_edges, arrivals)
    @settings(max_examples=400, deadline=None)
    def test_matching_edge_ids_is_the_scan(self, specs, probes):
        query = build_query(specs)
        cold = pickle.dumps(query)
        edges = [arrival(*probe) for probe in probes]
        for edge in edges:
            assert query.matching_edge_ids(edge) == scan(query, edge)
        assert_probe_is_the_scan(query, edges)
        # The built index is not part of the pickled state ...
        assert query._label_index is not None
        assert pickle.dumps(query) == cold
        clone = pickle.loads(cold)
        assert clone._label_index is None
        # ... and a restored query answers alike.
        for edge in edges:
            assert clone.matching_edge_ids(edge) == scan(query, edge)

    @given(one_table_specs(), arrivals)
    @settings(max_examples=200, deadline=None)
    def test_one_table_probe_returns_the_scan_prebuilt(self, specs, probes):
        query = build_query(specs)
        masks, keyed, residuals, _ = query.label_index_shape()
        assert masks == 1 and residuals == 0
        probe = query._label_probe()
        for edge in hits_and_probes(specs, probes):
            answer = probe(edge)
            assert list(answer) == scan(query, edge)
            if answer and keyed:
                # Prebuilt: the same tuple for every equal label key.
                assert type(answer) is tuple and probe(edge) is answer

    @given(st.one_of(query_edges, one_table_specs()), arrivals)
    @settings(max_examples=150, deadline=None)
    def test_engine_steps_walk_the_scan(self, specs, probes):
        query = build_chain(specs)
        engine = TimingMatcher(query, 10.0)
        edges = hits_and_probes(specs, probes)
        assert_probe_is_the_scan(query, edges)
        if engine.stateless:
            return
        steps = expected_steps(engine)
        assert engine._steps == steps
        for edge in edges:
            assert [engine._steps[eid] for eid in engine._match(edge)] \
                == [steps[eid] for eid in scan(query, edge)]

    def test_hash_equal_labels_loops_and_unhashable_arrivals(self):
        """``1``, ``True`` and ``1.0`` are one dict key, so they share
        one prebuilt answer; loop shape is part of the key; an arrival
        label a probe cannot hash falls back to the scan and answers."""
        exact = build_query([("A", 1, "B", False), ("A", True, "B", False),
                             ("A", 1.0, "A", True), ("A", 2, "B", False)])
        assert exact.label_index_shape() == (1, 4, 0, True)
        for label, is_loop, expected in [
                (True, False, ["e0", "e1"]), (1.0, False, ["e0", "e1"]),
                (1, True, ["e2"]), (2, True, []), ([1], False, []),
                ((1,), False, [])]:
            edge = arrival("A", label, "B", is_loop)
            assert list(exact._label_probe()(edge)) == expected \
                == scan(exact, edge)
        flows = build_query([("IP", (ANY, 80, "tcp"), "IP", False),
                             ("IP", (ANY, 80, "tcp"), "IP", True),
                             ("IP", (ANY, True, "tcp"), "IP", False)])
        assert flows.label_index_shape() == (1, 3, 0, False)
        for label, is_loop, expected in [
                ((5, 1, "tcp"), False, ["e2"]),
                (([5], 80, "tcp"), False, ["e0"]),   # the list is not keyed
                ((5, [80], "tcp"), False, []),       # ... this one is
                ([5, 80, "tcp"], True, []), ((5, 80), True, []),
                (Flow(5, 80, "tcp"), True, ["e1"])]:
            edge = arrival("IP", label, "IP", is_loop)
            assert list(flows._label_probe()(edge)) == expected \
                == scan(flows, edge)

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


class TestQueryPartsAreFrozen:
    """A relabel would leave the label index, the routing signatures and
    every engine compiled from the query answering for the old label, so
    a query vertex or edge refuses any change once built."""

    def test_relabel_is_refused(self):
        query = build_query([("a", "x", "b", False)])
        edge = arrival("a", "y", "b", False)
        assert query.matching_edge_ids(edge) == []
        signatures = query.label_signatures()
        for part, field, value in [(query.edge("e0"), "label", "y"),
                                   (query.edge("e0"), "dst", "u0"),
                                   (query.vertex("u0"), "label", "z")]:
            with pytest.raises(FrozenQueryPartError, match="new QueryGraph"):
                setattr(part, field, value)
            with pytest.raises(FrozenQueryPartError):
                delattr(part, field)
        assert query.edge("e0").label == "x"
        assert query.label_signatures() == signatures
        assert query.matching_edge_ids(edge) == [] == scan(query, edge)
        assert query.matching_edge_ids(arrival("a", "x", "b", False)) \
            == ["e0"]

    def test_parts_survive_pickle_and_copy(self):
        query = build_query([("a", (ANY, 80), "b", False)])
        for clone in (pickle.loads(pickle.dumps(query)),
                      copy.deepcopy(query)):
            qedge = clone.edge("e0")
            assert (qedge.src, qedge.dst, qedge.label) \
                == ("u0", "v0", (ANY, 80))
            with pytest.raises(FrozenQueryPartError):
                qedge.label = "y"


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
