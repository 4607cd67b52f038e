"""Python frames per served edge and per delivered match.

``tests/test_frame_budget.py`` pins the calls an in-process arrival
makes; this file pins the served path the same way, with no sockets: a
WAL tenant built as ``serve_wal_saturate``'s is, fed 48-edge JSON
bodies the way ``POST /ingest`` feeds the event loop —
``_parse_edge_body`` → ``Tenant.admit_json(wake=False)`` → the commit
(group fsync and release) → ``Tenant.apply_released``.  No worker thread
runs, so every batch is applied on the calling thread and counted.

The count is ``sys.setprofile``'s ``call`` events (Python frames; a C
call is not one), as in the in-process budget:

* per edge (20.18), on an in-test replica of ``serve_wal_saturate`` at
  ``bench_e2e``'s ``--quick`` sizes — ``session_exact16``'s 16
  exact-label queries on a 2,000-unit window, 6,144 warm-up edges and
  50 measured bodies of 48 — where few edges complete a match.  The
  served-only frames that decode a record are the next address, 9 of
  the 20.18: ``_decode_value`` and its generator expression (3 + 3 per
  edge: the label is a JSON array, decoded as a tuple, and each of its
  two parts is one more call), ``edge_from_json``,
  ``StreamEdge.__init__`` and the queue's ``_Entry.__init__``.  The
  other 11 are the in-process arrival's (route, admission, slide,
  engine).
* per delivered match (39.47), on the chain query of ``tests/service``
  (``a -> b -> c``, ``e1 ≺ e2``, window 6) over a stream where every
  ``b -> c`` edge completes a match with each of the 12 ``a -> b`` edges
  of its block: all calls over the matches delivered, so each match
  also carries a sixth of its edges' calls (≈ 2.6: every query edge
  constrains two label positions, so each arrival's route resolves its
  counted hits in ``PredicateRouter.resolve``, from the one probe
  ``targets`` made; 40.30 with a second ``buckets`` probe, through
  ``PredicateRouter.match``).  About 27 are the
  record path (ROADMAP item 12(b)): ``sinks._json_safe`` 6, ``json.dumps``
  and its encoder 4, the retry ladder, fault site and breaker 6,
  ``match_record`` and its comprehension 2, three ``matches.py``
  generator expressions and ``latest_timestamp``, the session's and the
  tenant's ``_deliver``, ``_write_match``, the sink and the hub's
  ``publish``.  About 8.5 are the engine's: the join check, the MS-tree
  node a match is stored as (built, linked, later unlinked) and
  ``_to_match``.

Each budget is the count on CPython 3.11; later versions inline
comprehensions (PEP 709), so there the count is lower and the budget an
upper bound.
"""

import json
import sys

from repro.io.dsl import format_query
from repro.service.config import TenantConfig, WalConfig
from repro.service.gateway import Tenant
from repro.service.http import _parse_edge_body

from .service.conftest import CHAIN_DSL
from .test_ablation_counts import collector_paused
from .test_frame_budget import exact_session_inputs

BODY_EDGES = 48


def edge_record(edge):
    """The JSON object a producer POSTs for one edge (tuples as
    arrays)."""
    label = list(edge.label) if isinstance(edge.label, tuple) else edge.label
    return {"src": edge.src, "dst": edge.dst, "src_label": edge.src_label,
            "dst_label": edge.dst_label, "timestamp": edge.timestamp,
            "label": label}


def bodies(edges):
    """``edges`` as ``POST /ingest`` bodies of :data:`BODY_EDGES`."""
    return [json.dumps([edge_record(edge)
                        for edge in edges[start:start + BODY_EDGES]],
                       separators=(",", ":")).encode()
            for start in range(0, len(edges), BODY_EDGES)]


def served_tenant(state_dir, queries, window):
    """A WAL tenant configured as the served benchmark's, with a
    subscriber on its hub and no worker thread."""
    config = TenantConfig(
        name="bench", queries=queries, window=window,
        queue_capacity=4096, backpressure="block", batch_size=512,
        wal=WalConfig()).validate()
    tenant = Tenant(config, str(state_dir))
    frames = []
    tenant.hub.subscribe(frames.append, encoded=True)
    return tenant, frames


def serve(tenant, body):
    """What the event loop does with one ``POST /ingest`` body."""
    records, request_id, dlq_replay = _parse_edge_body(body)
    ack, commit = tenant.admit_json(records, request_id=request_id,
                                    dlq_replay=dlq_replay, body=body,
                                    wake=False)
    if commit is not None:
        commit()
    tenant.apply_released()
    return ack


def counted(tenant, posts):
    """Serve ``posts`` under a profiler: the Python calls they made."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    with collector_paused():    # a finaliser would add frames
        sys.setprofile(profiler)
        try:
            for body in posts:
                serve(tenant, body)
        finally:
            sys.setprofile(previous)
    return calls


def test_served_edge(tmp_path):
    """``serve_wal_saturate``'s tenant at ``--quick`` sizes: the calls
    per served edge, parse to apply."""
    queries, stream = exact_session_inputs(6144 + 50 * BODY_EDGES)
    tenant, _ = served_tenant(
        tmp_path, {name: format_query(query)
                   for name, query in queries.items()}, 2000.0)
    try:
        for body in bodies(stream[:6144]):
            serve(tenant, body)
        measured = stream[6144:]
        calls = counted(tenant, bodies(measured))
        assert tenant.edges_offered == len(stream)
    finally:
        tenant.abort()
    assert calls / len(measured) <= 20.18


def chain_stream(blocks, fan_in):
    """Per block, ``fan_in`` edges ``a_i -> b`` then ``fan_in`` edges
    ``b -> c_j``, all on the block's own ``b``, one per 0.1 time unit: a
    block spans under the chain query's window, so every ``b -> c`` edge
    matches every ``a -> b`` edge of its block."""
    records, tick = [], 0
    for block in range(blocks):
        hub = f"b{block}"
        for i in range(fan_in):
            tick += 1
            records.append({"src": f"a{block}.{i}", "dst": hub,
                            "src_label": "A", "dst_label": "B",
                            "timestamp": tick / 10})
        for j in range(fan_in):
            tick += 1
            records.append({"src": hub, "dst": f"c{block}.{j}",
                            "src_label": "B", "dst_label": "C",
                            "timestamp": tick / 10})
    return records


def test_served_match(tmp_path):
    """The chain query, fed blocks of 12 ``a -> b`` then 12 ``b -> c``
    edges (144 matches a block, 6 per edge): the calls per delivered
    match, the edges' own calls included."""
    fan_in = 12
    records = chain_stream(40, fan_in)
    posts = [json.dumps(records[start:start + BODY_EDGES]).encode()
             for start in range(0, len(records), BODY_EDGES)]
    tenant, frames = served_tenant(tmp_path, {"chain": CHAIN_DSL}, 6.0)
    try:
        for body in posts[:10]:
            serve(tenant, body)
        before = tenant.matches_delivered
        calls = counted(tenant, posts[10:])
        delivered = tenant.matches_delivered - before
    finally:
        tenant.abort()
    blocks = (len(posts) - 10) * BODY_EDGES // (2 * fan_in)
    assert delivered == blocks * fan_in * fan_in
    assert len(frames) == tenant.matches_delivered
    assert calls / delivered <= 39.47
