"""Shared fixtures and builders for the test suite.

The paper's running example (query Q of Fig. 5, stream G of Fig. 3) appears
throughout §II–§IV, so it is provided as a fixture pair; every structural
claim the paper makes about it (TCsub contents, decomposition, the match at
t=8 expiring at t=10, the MS-tree shapes of Figs. 10–11) is asserted
somewhere in the suite.
"""

from __future__ import annotations

import io
import random
from typing import List, Sequence, Tuple

import pytest

from repro import ANY, QueryGraph, StreamEdge


def make_edge(src: str, dst: str, timestamp: float, label=None,
              label_of=lambda v: v[0]) -> StreamEdge:
    """Stream edge whose vertex labels default to the id's first character
    (the convention of the paper's Fig. 3, where vertex ``e7`` has label
    ``e``)."""
    return StreamEdge(src, dst, src_label=label_of(src),
                      dst_label=label_of(dst), timestamp=timestamp,
                      label=label)


def make_stream(rows: Sequence[Tuple[str, str, float]]) -> List[StreamEdge]:
    return [make_edge(src, dst, ts) for src, dst, ts in rows]


def fig5_query() -> QueryGraph:
    """The running-example query Q (Fig. 5): 6 edges, timing orders
    6 ≺ 3 ≺ 1 and 6 ≺ 5 ≺ 4."""
    q = QueryGraph()
    for vid in "abcdef":
        q.add_vertex(vid, vid)
    q.add_edge(1, "a", "b")
    q.add_edge(2, "b", "c")
    q.add_edge(3, "d", "b")
    q.add_edge(4, "d", "c")
    q.add_edge(5, "c", "e")
    q.add_edge(6, "e", "f")
    q.add_timing_chain(6, 3, 1)
    q.add_timing_chain(6, 5, 4)
    return q


def fig3_stream() -> List[StreamEdge]:
    """The running-example stream G (Fig. 3), σ1..σ10 at t=1..10."""
    rows = [
        ("e7", "f8", 1), ("c4", "e9", 2), ("c4", "e7", 3), ("d5", "c4", 4),
        ("b3", "c4", 5), ("a2", "b3", 6), ("d5", "b3", 7), ("a1", "b3", 8),
        ("d6", "c4", 9), ("d5", "e7", 10),
    ]
    return make_stream(rows)


def path_query(n_edges: int, *, labels: str = "ABC",
               timing: str = "chain") -> QueryGraph:
    """A directed path query v0→v1→…→vn with cyclic labels.

    ``timing``: ``"chain"`` (e0 ≺ e1 ≺ …), ``"reverse"`` or ``"empty"``.
    """
    q = QueryGraph()
    for i in range(n_edges + 1):
        q.add_vertex(f"v{i}", labels[i % len(labels)])
    for i in range(n_edges):
        q.add_edge(f"e{i}", f"v{i}", f"v{i + 1}")
    eids = [f"e{i}" for i in range(n_edges)]
    if timing == "chain":
        q.add_timing_chain(*eids)
    elif timing == "reverse":
        q.add_timing_chain(*reversed(eids))
    elif timing != "empty":
        raise ValueError(timing)
    return q


def random_stream(seed: int, n: int, n_vertices: int, *,
                  labels: str = "AB") -> List[StreamEdge]:
    """Seeded random edge stream over a small vertex population."""
    rng = random.Random(seed)
    t = 0.0
    out = []
    def label_of(v):
        return labels[int(v[1:]) % len(labels)]
    for _ in range(n):
        t += rng.random() * 0.5 + 0.01
        u = f"d{rng.randrange(n_vertices)}"
        v = f"d{rng.randrange(n_vertices)}"
        while v == u:
            v = f"d{rng.randrange(n_vertices)}"
        out.append(StreamEdge(u, v, src_label=label_of(u),
                              dst_label=label_of(v), timestamp=t))
    return out


def checkpoint(session) -> bytes:
    """``session``'s checkpoint as bytes."""
    buffer = io.BytesIO()
    session.checkpoint(buffer)
    return buffer.getvalue()


VLABELS = "ABC"
ELABELS = ("x", "y", "z")


def labeled_stream(seed: int, n: int, *, n_vertices: int = 12,
                   dt: float = 0.4, id_pool=None) -> List[StreamEdge]:
    """Seeded stream with concrete edge labels (so label-triple routing
    discriminates); with ``id_pool``, edge ids repeat."""
    rng = random.Random(seed)
    t = 0.0
    edges = []
    for i in range(n):
        t += rng.random() * dt + 0.01
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u:
            v = rng.randrange(n_vertices)
        edge_id = f"id{i % id_pool}" if id_pool else None
        edges.append(StreamEdge(
            f"d{u}", f"d{v}", src_label=VLABELS[u % 3],
            dst_label=VLABELS[v % 3], timestamp=round(t, 3),
            label=rng.choice(ELABELS), edge_id=edge_id))
    return edges


def labeled_path_query(n_edges: int, *, vstart: int = 0,
                       elabels=("x",), timing="chain") -> QueryGraph:
    """A path over cyclic ``A``/``B``/``C`` vertices from ``vstart``, edges
    cycling through ``elabels``, timing ``"chain"`` or ``None``."""
    q = QueryGraph()
    for i in range(n_edges + 1):
        q.add_vertex(f"v{i}", VLABELS[(vstart + i) % 3])
    for i in range(n_edges):
        q.add_edge(f"e{i}", f"v{i}", f"v{i + 1}",
                   label=elabels[i % len(elabels)])
    if timing == "chain":
        q.add_timing_chain(*[f"e{i}" for i in range(n_edges)])
    return q


def fork_query(*, e4_before_e3: bool = True) -> QueryGraph:
    """The shape of the benchmark's ``engine_join`` query: five edges over
    six same-label vertices, ``e0 ≺ e2`` and (by default) ``e4 ≺ e3``,
    planned ``[(e0, e2), (e1,), (e3,), (e4,)]`` — three one-edge
    sub-queries.  ``e3`` and ``e4`` carry the same edge label, so one
    arrival can match both."""
    q = QueryGraph()
    for i in range(6):
        q.add_vertex(f"u{i}", "I")
    q.add_edge("e0", "u0", "u1", label="a")
    q.add_edge("e1", "u2", "u0", label="b")
    q.add_edge("e2", "u3", "u1", label="c")
    q.add_edge("e3", "u0", "u4", label="x")
    q.add_edge("e4", "u3", "u5", label="x")
    q.add_timing_constraint("e0", "e2")
    if e4_before_e3:
        q.add_timing_constraint("e4", "e3")
    return q


#: :func:`fork_query`'s plan, in join order.
FORK_PLAN = [("e0", "e2"), ("e1",), ("e3",), ("e4",)]


def fork_stream(seed: int, n: int, *, n_vertices: int = 6) -> List[StreamEdge]:
    """Seeded stream of :func:`fork_query`'s edge labels over a few
    same-label vertices: every query edge keeps finding matches."""
    rng = random.Random(seed)
    t = 0.0
    edges = []
    for _ in range(n):
        t += rng.random() + 0.01
        u, v = rng.sample(range(n_vertices), 2)
        edges.append(StreamEdge(
            f"d{u}", f"d{v}", src_label="I", dst_label="I",
            timestamp=round(t, 3), label=rng.choice("abcx")))
    return edges


def query_set():
    """Mixed sizes, mixed label selectivity, one wildcard-bearing query
    (always routed) — fresh QueryGraph objects on every call."""
    return {
        "p1x": labeled_path_query(1, vstart=0, elabels=("x",)),
        "p2y": labeled_path_query(2, vstart=1, elabels=("y",)),
        "p2xy": labeled_path_query(2, vstart=0, elabels=("x", "y")),
        "p3": labeled_path_query(3, vstart=2, elabels=("x", "y", "z")),
        "wild": labeled_path_query(2, vstart=0, elabels=(ANY,)),
    }


@pytest.fixture
def running_example_query() -> QueryGraph:
    return fig5_query()


@pytest.fixture
def running_example_stream() -> List[StreamEdge]:
    return fig3_stream()
