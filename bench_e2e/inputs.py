"""Seeded benchmark inputs: streams, queries, POST bodies.

Every input is a pure function of ``--seed``.  The *shape* of each
workload — label sequence, timestamps, topology up to isomorphism, the
registered queries — is pinned by the constants below; the seed picks
the vertex identities (which address every host gets).  Streams of two
seeds are therefore isomorphic: they differ byte for byte, yet every
count the system makes over them (matches, partial matches, expiries,
cells) is identical, so a seed-to-seed difference in a timed metric is
timing noise and nothing else, and one committed answer digest (matches
named by query edge and arrival timestamp, see :func:`match_key`)
checks every seed.

The generators are the repo's public ``repro.datasets`` ones with pinned
structure seeds; ``expected.json`` carries a digest of each workload's
seed-independent shape, so a later change to a generator fails the run
as "inputs drifted" instead of silently moving the numbers.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro import ANY, Prefix, QueryGraph, StreamEdge
from repro.graph.stream import GraphStream
from repro.datasets import (
    generate_netflow_stream, generate_query_set, window_slice,
)
from repro.io.dsl import format_query

DEFAULT_SEED = 20190408

#: Cold queries deregistered and re-registered before each measured
#: batch of ``session_churn1k``.
CHURN_PAIRS_PER_BATCH = 12


class Inputs(NamedTuple):
    """One workload's inputs: what is registered and what is streamed."""

    queries: Dict[str, QueryGraph]
    window: float
    warmup: List[StreamEdge]
    batches: List[List[StreamEdge]]

    @property
    def measured_edges(self) -> int:
        return sum(len(batch) for batch in self.batches)


# --------------------------------------------------------------------- #
# Seeded vertex identities
# --------------------------------------------------------------------- #

def _addresses(seed: int, count: int) -> List[str]:
    """``count`` distinct fixed-width ``10.a.b.c`` addresses drawn by
    ``seed`` (octets 100-249, so every address has the same length and
    the wire size of a batch does not depend on the seed)."""
    rng = random.Random(seed)
    picks = rng.sample(range(150 ** 3), count)
    return [f"10.{100 + n // 22500}.{100 + n // 150 % 150}.{100 + n % 150}"
            for n in picks]


def _with_identities(edges: Iterable[StreamEdge],
                     seed: int) -> List[StreamEdge]:
    """The same stream with every vertex renamed by ``seed``."""
    edges = list(edges)
    order: Dict[object, int] = {}
    for edge in edges:
        order.setdefault(edge.src, len(order))
        order.setdefault(edge.dst, len(order))
    names = _addresses(seed, len(order))
    return [StreamEdge(names[order[e.src]], names[order[e.dst]],
                       src_label=e.src_label, dst_label=e.dst_label,
                       timestamp=e.timestamp, label=e.label)
            for e in edges]


def _split(edges: Sequence[StreamEdge], warmup: int, batches: int,
           batch_edges: int) -> Tuple[List[StreamEdge],
                                      List[List[StreamEdge]]]:
    need = warmup + batches * batch_edges
    if len(edges) < need:
        raise ValueError(f"stream has {len(edges)} edges, need {need}")
    body = edges[warmup:need]
    return list(edges[:warmup]), [
        list(body[i:i + batch_edges])
        for i in range(0, len(body), batch_edges)]


# --------------------------------------------------------------------- #
# engine_join: one k=4 decomposition with wildcard source ports
# --------------------------------------------------------------------- #

def engine_join(seed: int, *, warmup: int, batches: int,
                batch_edges: int) -> Inputs:
    """A netflow stream and one generated 5-edge query whose greedy
    decomposition has four TC-subqueries and whose labels wildcard the
    source port, so joins, MS-tree inserts and expiry all carry load."""
    total = warmup + batches * batch_edges
    # The query is walked out of the stream's first 8,000 edges, so it
    # does not depend on the pass length.
    stream = list(generate_netflow_stream(max(total, 8000), seed=42,
                                          num_ips=120))
    population = window_slice(GraphStream(stream[:8000]), 300)
    variants = generate_query_set(
        population, sizes=[5], per_size=1, rng=random.Random(0),
        generalize_label=lambda label: (ANY, label[1], label[2]))
    head, body = _split(_with_identities(stream, seed), warmup, batches,
                        batch_edges)
    return Inputs({"join": variants[4]}, 1500.0, head, body)


# --------------------------------------------------------------------- #
# session_exact16 / serve_wal_saturate: 16 exact-label queries
# --------------------------------------------------------------------- #

def session_exact16(seed: int, *, warmup: int, batches: int,
                    batch_edges: int) -> Inputs:
    """A netflow stream over a wide, flat port universe (labels are
    ``(dst-port, protocol)``) and 16 generated 4-edge full-timing-order
    queries with concrete labels: most arrivals concern few queries, so
    the session's routing index decides most of the cost."""
    total = warmup + batches * batch_edges
    raw = generate_netflow_stream(max(total, 24000), seed=7, num_ips=150,
                                  extra_ports=200, port_alpha=0.8)
    stream = [StreamEdge(e.src, e.dst, src_label=e.src_label,
                         dst_label=e.dst_label, timestamp=e.timestamp,
                         label=(e.label[1], e.label[2])) for e in raw]
    # The queries are walked out of the stream's first 24,000 edges, so
    # the registered set does not depend on the pass length.
    population = window_slice(GraphStream(stream[:24000]), 300)
    variants = generate_query_set(population, sizes=[4], per_size=16,
                                  rng=random.Random(3))
    queries = {f"q{i:02d}": query
               for i, query in enumerate(variants[0::5][:16])}
    if len(queries) != 16:
        raise ValueError(f"generated {len(queries)} queries, need 16")
    head, body = _split(_with_identities(stream, seed), warmup, batches,
                        batch_edges)
    return Inputs(queries, 2000.0, head, body)


# --------------------------------------------------------------------- #
# session_predicates1k / session_churn1k: 1,024 prefix/wildcard queries
# --------------------------------------------------------------------- #

def _one_edge_query(label) -> QueryGraph:
    query = QueryGraph()
    query.add_vertex("a", ANY)
    query.add_vertex("b", ANY)
    query.add_edge("e", "a", "b", label)
    return query


def predicate_queries(total: int = 1024) -> Dict[str, QueryGraph]:
    """8 hot prefixes (each ~1% of ports), 2 wildcards and a cold tail
    of distinct prefixes no port can start with."""
    queries = {f"hot{i}": _one_edge_query(Prefix(f"10{i}"))
               for i in range(8)}
    for i in range(2):
        queries[f"wild{i}"] = _one_edge_query(ANY)
    for i in range(total - len(queries)):
        queries[f"cold{i:05d}"] = _one_edge_query(Prefix(f"3{i:06d}"))
    return queries


def _port_stream(total: int, seed: int) -> List[StreamEdge]:
    rng = random.Random(19)
    edges = []
    for i in range(total):
        u = rng.randrange(64)
        v = rng.randrange(64)
        while v == u:
            v = rng.randrange(64)
        edges.append(StreamEdge(
            f"h{u}", f"h{v}", src_label="ip", dst_label="ip",
            timestamp=float(i), label=rng.randint(10000, 19999)))
    return _with_identities(edges, seed)


def session_predicates1k(seed: int, *, warmup: int, batches: int,
                         batch_edges: int) -> Inputs:
    """A port-labelled stream (one edge per time unit, ports uniform in
    10000-19999) under 1,024 single-edge predicate queries: the engines
    are trivial, the label-trie walk is the work."""
    total = warmup + batches * batch_edges
    head, body = _split(_port_stream(total, seed), warmup, batches,
                        batch_edges)
    return Inputs(predicate_queries(), 400.0, head, body)


def churn_names(batch: int) -> List[str]:
    """The cold queries deregistered and re-registered before measured
    batch ``batch`` of ``session_churn1k`` (a sliding block of the tail,
    so every cold query is churned many times over a pass)."""
    start = batch * CHURN_PAIRS_PER_BATCH
    return [f"cold{(start + i) % 1014:05d}"
            for i in range(CHURN_PAIRS_PER_BATCH)]


# --------------------------------------------------------------------- #
# Wire forms and digests
# --------------------------------------------------------------------- #

def edge_record(edge: StreamEdge) -> dict:
    """The JSON object a producer POSTs for one edge (tuples as arrays)."""
    label = list(edge.label) if isinstance(edge.label, tuple) else edge.label
    return {"src": edge.src, "dst": edge.dst, "src_label": edge.src_label,
            "dst_label": edge.dst_label, "timestamp": edge.timestamp,
            "label": label}


def post_body(batch: Sequence[StreamEdge]) -> bytes:
    """One ``POST /ingest`` body: a bare JSON array of edge objects."""
    return json.dumps([edge_record(edge) for edge in batch],
                      separators=(",", ":")).encode()


def query_texts(queries: Dict[str, QueryGraph]) -> Dict[str, str]:
    """DSL text per query, as a server config file carries them."""
    return {name: format_query(query) for name, query in queries.items()}


def match_key(name: str, edge_times: Iterable[Tuple[str, float]]) -> str:
    """Seed-independent identity of one match: the query name and, per
    query edge, the arrival timestamp of the data edge bound to it
    (timestamps are unique within a stream)."""
    inner = ",".join(f"{eid}@{ts!r}" for eid, ts in sorted(edge_times))
    return f"{name}|{inner}"


def answer_digest(keys: Iterable[str]) -> str:
    """sha256 over the sorted multiset of :func:`match_key` strings."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def shape_digest(inputs: Inputs) -> str:
    """sha256 of everything about ``inputs`` the seed does not choose:
    query texts, window, and per edge its timestamp, labels and the
    first-appearance ordinals of its endpoints."""
    digest = hashlib.sha256()
    for name, text in sorted(query_texts(inputs.queries).items()):
        digest.update(f"{name}\n{text}\n".encode())
    digest.update(f"window {inputs.window!r} warmup {len(inputs.warmup)} "
                  f"batches {[len(b) for b in inputs.batches]!r}\n".encode())
    order: Dict[object, int] = {}
    for edge in inputs.warmup + [e for b in inputs.batches for e in b]:
        src = order.setdefault(edge.src, len(order))
        dst = order.setdefault(edge.dst, len(order))
        digest.update(f"{src} {dst} {edge.timestamp!r} {edge.src_label!r} "
                      f"{edge.dst_label!r} {edge.label!r}\n".encode())
    return digest.hexdigest()
