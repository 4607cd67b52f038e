"""Self-loop regression tests: loop query edges ↔ loop data edges only.

A self-loop query edge must never match a non-loop data edge (the two
endpoints map the same query vertex to two data vertices) and a non-loop
query edge must never match a self-loop data edge (two query vertices would
collapse onto one data vertex, breaking injectivity).  This was a real bug:
level-1 expansion-list insertion has no join to catch it, so the per-edge
compatibility predicate must.
"""

import random

import pytest

from repro import EngineConfig, QueryGraph, StreamEdge, TimingMatcher
from repro.baselines.incmat import IncMatMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.baselines.sjtree import SJTreeMatcher


def loop_edge(v, ts, label="A"):
    return StreamEdge(v, v, src_label=label, dst_label=label, timestamp=ts)


def plain_edge(u, v, ts, lu="A", lv="A"):
    return StreamEdge(u, v, src_label=lu, dst_label=lv, timestamp=ts)


@pytest.fixture
def loop_query():
    q = QueryGraph()
    q.add_vertex("u", "A")
    q.add_vertex("v", "B")
    q.add_edge("loop", "u", "u")
    q.add_edge("out", "u", "v")
    q.add_timing_constraint("loop", "out")
    return q


class TestEdgeMatches:
    def test_loop_query_edge_rejects_plain_data_edge(self, loop_query):
        assert not loop_query.edge_matches("loop", plain_edge("x", "y", 1))
        assert loop_query.edge_matches("loop", loop_edge("x", 1))

    def test_plain_query_edge_rejects_loop_data_edge(self, loop_query):
        assert not loop_query.edge_matches(
            "out", StreamEdge("x", "x", src_label="A", dst_label="B",
                              timestamp=1))


class TestEndToEnd:
    def test_single_loop_edge_query(self):
        q = QueryGraph()
        q.add_vertex("u", "A")
        q.add_edge("loop", "u", "u")
        m = TimingMatcher(q, window=10.0)
        assert m.push(plain_edge("x", "y", 1.0)) == []
        got = m.push(loop_edge("x", 2.0))
        assert len(got) == 1

    def test_loop_query_against_mixed_stream_matches_oracle(self, loop_query):
        rng = random.Random(3)
        engines = [TimingMatcher(loop_query, 5.0),
                   TimingMatcher(loop_query, 5.0,
                                 config=EngineConfig(storage="independent")),
                   SJTreeMatcher(loop_query, 5.0),
                   IncMatMatcher(loop_query, 5.0)]
        oracle = NaiveSnapshotMatcher(loop_query, 5.0)
        t = 0.0
        labels = "AB"
        for _ in range(150):
            t += rng.random() * 0.3 + 0.01
            u = f"d{rng.randrange(5)}"
            if rng.random() < 0.3:
                edge = StreamEdge(u, u, src_label=labels[int(u[1:]) % 2],
                                  dst_label=labels[int(u[1:]) % 2],
                                  timestamp=t)
            else:
                v = f"d{rng.randrange(5)}"
                while v == u:
                    v = f"d{rng.randrange(5)}"
                edge = StreamEdge(u, v, src_label=labels[int(u[1:]) % 2],
                                  dst_label=labels[int(v[1:]) % 2],
                                  timestamp=t)
            expected = set(oracle.push(edge))
            for engine in engines:
                assert set(engine.push(edge)) == expected
