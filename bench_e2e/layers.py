"""Per-layer metrics: each layer's public functions timed on pinned inputs.

A layer is a module of ``src/repro``; a metric's full name is the layer
prefix plus a suffix (``core.engine.push_us_per_edge``).  Times are
floors over ``repeats`` runs on the same seeded inputs; counts come out
identical on every run.  ``README.md`` says which end-to-end metric, on
which workload, each of these should move.

Two numbers need the live pipeline rather than an isolated call — queue
residence and the worker's busy share — and are taken from one in-process
gateway run with recorders around the worker's calls.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import statistics
import tempfile
import time
from typing import Dict, List

from repro import EngineConfig, Session, TimingMatcher

from . import inputs, serve, trace
from .harness import floor_of, percentile
from .trace import Tracer
from .workloads import RESULTS_DIR, SRC_DIR, _session_keys

REPEATS = 6
QUICK_REPEATS = 2
BOOTS = 3


def _sum_floor(columns: List[List[float]]) -> float:
    return sum(min(column) for column in zip(*columns))


def _engine(seed: int, repeats: int) -> Dict[str, float]:
    data = inputs.engine_join(seed, warmup=2000, batches=40, batch_edges=128)
    query = data.queries["join"]
    build_s, _ = floor_of(lambda: TimingMatcher.from_config(
        query, data.window, config=EngineConfig()), repeats)
    measured = [edge for batch in data.batches for edge in batch]

    def run():
        engine = TimingMatcher.from_config(query, data.window,
                                           config=EngineConfig())
        push = engine.push
        for edge in data.warmup:
            push(edge)
        start = time.perf_counter()
        for edge in measured:
            push(edge)
        return time.perf_counter() - start, engine.stats.as_dict()
    runs = [run() for _ in range(repeats)]
    stats = runs[0][1]
    if any(other != stats for _, other in runs):
        raise AssertionError("engine counters differ between repeats")
    edges = stats["edges_seen"]
    return {
        "build_ms": build_s * 1e3,
        "push_us_per_edge": min(t for t, _ in runs) / len(measured) * 1e6,
        "join_ops_per_edge": stats["join_operations"] / edges,
        "index_probes_per_edge": stats["index_probes"] / edges,
        "scan_fallbacks": stats["scan_fallbacks"],
        "partials_created_per_edge":
            stats["partial_matches_created"] / edges,
        "expired_partials_per_edge": stats["expired_partials"] / edges,
        "match_yield": stats["matches_emitted"]
            / stats["partial_matches_created"],
    }


def _labeltrie(seed: int, repeats: int) -> Dict[str, float]:
    from repro.core.labeltrie import PredicateRouter
    data = inputs.session_predicates1k(seed, warmup=0, batches=1,
                                       batch_edges=2000)
    entries = []
    for name, query in data.queries.items():
        for i, atoms in enumerate(sorted(query.label_signatures()[1],
                                         key=repr)):
            entries.append(((len(entries), name, i), atoms[:3], atoms[3]))
    triples = [(e.src_label, e.label, e.dst_label) for e in data.batches[0]]
    add_s, match_s, remove_s = [], [], []
    hits = nodes = 0
    for _ in range(repeats):
        router = PredicateRouter()
        start = time.perf_counter()
        for token, atoms, is_loop in entries:
            router.add(token, atoms, is_loop)
        add_s.append(time.perf_counter() - start)
        nodes = router.node_count()
        match = router.match
        start = time.perf_counter()
        hits = sum(len(match(s, l, d, False)) for s, l, d in triples)
        match_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        for token, _, _ in entries:
            router.remove(token)
        remove_s.append(time.perf_counter() - start)
    return {
        "match_us_per_edge": min(match_s) / len(triples) * 1e6,
        "add_us": min(add_s) / len(entries) * 1e6,
        "remove_us": min(remove_s) / len(entries) * 1e6,
        "hits_per_edge": hits / len(triples),
        "trie_nodes": nodes,
    }


def _shared_window(edges, window: float, repeats: int) -> Dict[str, float]:
    from repro.graph.shared_window import SharedSlidingWindow
    from repro.graph.window import SlidingWindow

    def run():
        shared = SharedSlidingWindow(SlidingWindow(window))
        push = shared.push
        return sum(len(push(edge)) for edge in edges), len(shared)
    seconds, (expired, cells) = floor_of(run, repeats)
    return {
        "push_us_per_edge": seconds / len(edges) * 1e6,
        "expired_per_edge": expired / len(edges),
        "cells": cells,
    }


def _session(seed: int, data: inputs.Inputs, repeats: int):
    """``(metrics, final session, tagged matches)`` on the 16 queries."""
    measured_edges = data.measured_edges

    def run():
        session = Session(window=data.window, config=EngineConfig())
        for name, query in data.queries.items():
            session.register(name, query)
        tagged = session.push_many(data.warmup)
        times = []
        for batch in data.batches:
            start = time.perf_counter()
            tagged.extend(session.push_many(batch))
            times.append(time.perf_counter() - start)
        return times, session, tagged
    runs = [run() for _ in range(repeats)]
    _, session, tagged = runs[-1]
    stats = session.session_stats()

    self_s = []
    # Self time of push_many: its spans minus the engine, trie and
    # window spans they contain.
    children = trace.targets(
        "api.session.push_many", "core.engine.insert", "core.engine.expire",
        "core.labeltrie.match", "graph.shared_window.push")
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(children):
            run()
        self_s.append(tracer.by_name()["api.session.push_many"]["self_s"])
    total_edges = len(data.warmup) + measured_edges

    churn = inputs.predicate_queries(256)

    def register_all():
        session = Session(window=400.0, config=EngineConfig())
        for name, query in churn.items():
            session.register(name, query)
        return session
    register_s, _ = floor_of(register_all, repeats)
    deregister_s = []
    for _ in range(repeats):
        victim = register_all()
        start = time.perf_counter()
        for name in churn:
            victim.deregister(name)
        deregister_s.append(time.perf_counter() - start)

    # Sink dispatch: the session's per-match delivery loop around a
    # do-nothing sink, on the match-dense predicate stream.
    dense = inputs.session_predicates1k(seed, warmup=0, batches=1,
                                        batch_edges=1500)
    dispatch = []
    deliver = trace.targets("api.session.deliver")
    for _ in range(2):
        session_d = Session(window=dense.window, config=EngineConfig())
        for name, query in dense.queries.items():
            session_d.register(name, query)
        session_d.add_sink(lambda _name, _match: None)
        tracer = Tracer()
        with tracer.installed(deliver):
            session_d.push_many(dense.batches[0])
        row = tracer.by_name()["api.session.deliver"]
        dispatch.append(row["total_s"] / row["calls"])
    routed = stats["routed_pushes"]
    metrics = {
        "push_us_per_edge":
            _sum_floor([times for times, _, _ in runs])
            / measured_edges * 1e6,
        "self_us_per_edge": min(self_s) / total_edges * 1e6,
        "routed_pushes_per_edge": routed / total_edges,
        "skipped_matchers_per_edge":
            stats["skipped_matchers"] / total_edges,
        "route_hit_ratio": routed / (routed + stats["skipped_matchers"]),
        "subplan_reuses": stats["subplan_reuses"],
        "register_ms_per_query": register_s / len(churn) * 1e3,
        "deregister_ms_per_query": min(deregister_s) / len(churn) * 1e3,
        "sink_dispatch_us_per_match": min(dispatch) * 1e6,
    }
    return metrics, session, tagged


def _codec(data: inputs.Inputs, tagged, repeats: int) -> Dict[str, float]:
    from repro.service.codec import (
        edge_from_json, edge_to_json, match_to_json,
    )
    edges = [edge for batch in data.batches for edge in batch]
    bodies = [inputs.post_body(batch) for batch in data.batches]
    records = [record for body in bodies for record in json.loads(body)]
    decode_s, _ = floor_of(
        lambda: [edge_from_json(record) for record in records], repeats)
    encode_s, _ = floor_of(
        lambda: [edge_to_json(edge) for edge in edges], repeats)
    match_s, _ = floor_of(
        lambda: [match_to_json(name, match) for name, match in tagged],
        repeats)
    return {
        "decode_us_per_edge": decode_s / len(edges) * 1e6,
        "encode_us_per_edge": encode_s / len(edges) * 1e6,
        "match_encode_us_per_match": match_s / len(tagged) * 1e6,
        "bytes_per_edge": sum(map(len, bodies)) / len(edges),
    }


def _wal(data: inputs.Inputs, scratch: str, repeats: int) -> Dict[str, float]:
    from repro.service.wal import WriteAheadLog
    payloads = [[{"e": inputs.edge_record(edge)} for edge in batch]
                for batch in data.batches]
    edges = data.measured_edges
    append_s, sync_s, replay_s = [], [], []
    counters = {}
    for r in range(repeats):
        wal = WriteAheadLog(os.path.join(scratch, f"wal-{r}"))
        appends, syncs = [], []
        for payload in payloads:
            start = time.perf_counter()
            _, ticket = wal.append(payload)
            middle = time.perf_counter()
            wal.sync(ticket)
            syncs.append(time.perf_counter() - middle)
            appends.append(middle - start)
        append_s.append(appends)
        sync_s.append(syncs)
        start = time.perf_counter()
        replayed = sum(frame["n"] for _, frame in wal.replay(0))
        replay_s.append(time.perf_counter() - start)
        if replayed != edges:
            raise AssertionError(f"WAL replayed {replayed} of {edges} edges")
        counters = wal.counters()
        wal.close()
    return {
        "append_us_per_edge": _sum_floor(append_s) / edges * 1e6,
        "fsync_ms_p50": percentile(
            [min(column) for column in zip(*sync_s)], 0.5) * 1e3,
        "fsyncs_per_batch": counters["fsyncs"] / counters["appends"],
        "bytes_per_edge": counters["bytes_written"] / edges,
        "replay_edges_per_s": edges / min(replay_s),
    }


def _queues(edges, repeats: int) -> Dict[str, float]:
    from repro.service.queues import BoundedEdgeQueue
    edges = edges[:serve.QUEUE_CAPACITY]
    put_s, get_s = [], []
    for _ in range(repeats):
        queue = BoundedEdgeQueue(serve.QUEUE_CAPACITY, policy="block")
        put = queue.put
        start = time.perf_counter()
        for edge in edges:
            put(edge)
        put_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        taken = 0
        while taken < len(edges):
            taken += len(queue.get_batch(serve.WORKER_BATCH, timeout=0)[0])
        get_s.append(time.perf_counter() - start)
    return {
        "put_us_per_edge": min(put_s) / len(edges) * 1e6,
        "get_batch_us_per_edge": min(get_s) / len(edges) * 1e6,
    }


def _post_all(port: int, posts) -> List[float]:
    times = []
    for head, body in posts:
        start = time.perf_counter()
        status, ack = serve.post(port, head, body)
        times.append(time.perf_counter() - start)
        if status != 200 or ack.get("invalid"):
            raise AssertionError(f"layer POST failed: {status} {ack}")
    return times


def _served(data: inputs.Inputs, scratch: str, boots: int):
    """HTTP and gateway numbers from real server subprocesses, then the
    same batches through an in-process gateway with recorders."""
    from repro.service.queues import BoundedEdgeQueue
    texts = inputs.query_texts(data.queries)
    path = f"/tenants/{serve.TENANT}/ingest"
    warm_body = inputs.post_body(data.warmup)
    bodies = [inputs.post_body(batch) for batch in data.batches]
    posts = [(serve.post_head(path, body), body) for body in bodies]
    sent = len(data.warmup) + data.measured_edges

    boot_s = []
    for boot in range(boots):
        start = time.perf_counter()
        with serve.Server(os.path.join(scratch, f"boot-{boot}"), texts,
                          data.window, SRC_DIR) as server:
            server.wait_ready()
            boot_s.append(time.perf_counter() - start)
            if boot < boots - 1:
                continue
            empty = _post_all(server.port, [
                (serve.post_head(path, b"[]"), b"[]")] * 30)
            _post_all(server.port,
                      [(serve.post_head(path, warm_body), warm_body)])
            http_ack = _post_all(server.port, posts)
            stats = serve.wait_drained(server.port, sent)
            if stats is None:
                raise AssertionError("layer server never drained")
            high_water = stats["queue"]["high_water"]
            connects = 30 + 1 + len(posts)

    # In-process: Tenant.ingest_json called directly, with recorders on
    # the worker's dequeue (queue residence, batch size) and processing.
    residence: List[float] = []
    sizes: List[int] = []
    original_get = BoundedEdgeQueue.get_batch

    def get_batch(self, *args, **kwargs):
        entries, closed = original_get(self, *args, **kwargs)
        if entries:
            now = time.monotonic()
            sizes.append(len(entries))
            residence.extend(now - entry.enqueued_at for entry in entries)
        return entries, closed

    tracer = Tracer()
    BoundedEdgeQueue.get_batch = get_batch
    try:
        with tracer.installed(trace.targets("service.gateway.process",
                                            "service.queues.put")), \
                serve.InProcessServer(os.path.join(scratch, "inproc"),
                                      texts, data.window) as host:
            tenant = host.gateway.tenant(serve.TENANT)
            tenant.ingest_json(json.loads(warm_body))
            batches = [json.loads(body) for body in bodies]
            direct_ack = []
            started = time.perf_counter()
            for records in batches:
                start = time.perf_counter()
                tenant.ingest_json(records)
                direct_ack.append(time.perf_counter() - start)
            if not host.gateway.wait_idle(serve.DRAIN_TIMEOUT):
                raise AssertionError("in-process gateway never drained")
            elapsed = time.perf_counter() - started
    finally:
        BoundedEdgeQueue.get_batch = original_get
    spans = tracer.by_name()
    puts = [end - start for _, name, _, _, start, end in tracer.spans
            if name == "service.queues.put"]
    http_p50 = percentile(http_ack, 0.5)
    direct_p50 = percentile(direct_ack, 0.5)
    batch_edges = len(data.batches[0])
    return {
        "service.http.roundtrip_empty_ms": min(empty) * 1e3,
        "service.http.self_ms_per_batch": (http_p50 - direct_p50) * 1e3,
        "service.http.connects": connects,
        "service.queues.high_water": high_water,
        "service.queues.blocked_puts": sum(1 for t in puts if t >= 1e-3),
        "service.queues.wait_ms_p50": percentile(residence, 0.5) * 1e3,
        "service.gateway.boot_s": min(boot_s),
        "service.gateway.ingest_json_us_per_edge":
            direct_p50 / batch_edges * 1e6,
        "service.gateway.worker_busy_share":
            spans["service.gateway.process"]["total_s"] / elapsed,
        "service.gateway.worker_batch_edges_p50":
            statistics.median(sizes),
    }


def _sinks(tagged, scratch: str, repeats: int) -> Dict[str, float]:
    from repro.sinks import RotatingJSONLSink
    write_s, size = [], 0
    for r in range(repeats):
        with RotatingJSONLSink(os.path.join(scratch, f"sink-{r}")) as sink:
            start = time.perf_counter()
            for name, match in tagged:
                sink(name, match)
            sink.flush()
            write_s.append(time.perf_counter() - start)
            size = sum(os.path.getsize(path)
                       for path in sink.segment_files())
    return {
        "write_us_per_match": min(write_s) / len(tagged) * 1e6,
        "bytes_per_match": size / len(tagged),
    }


def _persistence(session: Session, repeats: int) -> Dict[str, float]:
    def checkpoint():
        target = io.BytesIO()
        session.checkpoint(target)
        return target.getvalue()
    checkpoint_s, blob = floor_of(checkpoint, repeats)
    restore_s, restored = floor_of(
        lambda: Session.restore(io.BytesIO(blob)), repeats)
    if restored.space_cells() != session.space_cells():
        raise AssertionError("restored session holds different state")
    return {
        "checkpoint_ms": checkpoint_s * 1e3,
        "checkpoint_bytes": len(blob),
        "restore_ms": restore_s * 1e3,
    }


def _transport(data: inputs.Inputs, repeats: int) -> Dict[str, float]:
    from repro.concurrency.transport import BatchDecoder, BatchEncoder
    batches = [[(i, (e.src, e.dst, e.src_label, e.dst_label, e.timestamp,
                     e.label, e.edge_id), None)
                for i, e in enumerate(batch)] for batch in data.batches]
    edges = data.measured_edges
    encode_s, decode_s = [], []
    payloads: List[bytes] = []
    for _ in range(repeats):
        encoder, decoder = BatchEncoder(), BatchDecoder()
        payloads = []
        start = time.perf_counter()
        for seq, rows in enumerate(batches):
            payload, pending = encoder.encode(seq, rows)
            encoder.table.mark_shipped(pending)
            payloads.append(payload)
        encode_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        decoded = sum(len(decoder.decode(payload)[1])
                      for payload in payloads)
        decode_s.append(time.perf_counter() - start)
        if decoded != edges:
            raise AssertionError(f"transport decoded {decoded}/{edges} rows")
    pickled = sum(len(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
                  for rows in batches)
    return {
        "encode_us_per_edge": min(encode_s) / edges * 1e6,
        "decode_us_per_edge": min(decode_s) / edges * 1e6,
        "bytes_per_edge": sum(map(len, payloads)) / edges,
        "pickle_bytes_per_edge": pickled / edges,
    }


def run_all(seed: int, quick: bool = False) -> Dict[str, float]:
    """Every layer metric by full name (see ``BENCHMARK.json``)."""
    repeats = QUICK_REPEATS if quick else REPEATS
    data = inputs.session_exact16(seed, warmup=2048,
                                  batches=30 if quick else 100,
                                  batch_edges=64)
    edges = data.warmup + [e for batch in data.batches for e in batch]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="layers-", dir=RESULTS_DIR)
    try:
        session_metrics, session, tagged = _session(seed, data, repeats)
        if len(set(_session_keys(tagged))) != len(tagged):
            raise AssertionError("session emitted a match twice")
        groups = {
            "core.engine.": _engine(seed, repeats),
            "core.labeltrie.": _labeltrie(seed, repeats),
            "graph.shared_window.":
                _shared_window(edges, data.window, repeats),
            "api.session.": session_metrics,
            "service.codec.": _codec(data, tagged, repeats),
            "service.wal.": _wal(data, scratch, repeats),
            "service.queues.": _queues(edges, repeats),
            "": _served(data, scratch, 2 if quick else BOOTS),
            "sinks.": _sinks(tagged, scratch, repeats),
            "persistence.": _persistence(session, repeats),
            "concurrency.transport.": _transport(data, repeats),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {prefix + name: float(value)
            for prefix, group in groups.items()
            for name, value in group.items()}
