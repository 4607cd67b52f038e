"""Repeatable perf smokes: pinned workloads, JSON reports, CI gates.

Each suite is one ablation of the system against its reference mode, in
the style of the paper's Timing vs Timing-IND / -RD / -RJ comparisons
(§VII): the same pinned stream through both modes, the answers asserted
identical, and the *ratio* of the two gated.  A suite is an entry of
:data:`SUITES` — its committed baseline, workload builder, legs,
cross-leg invariants, gated ratio and extra gates — and one runner
(:func:`run_suite`), one checker (:func:`check_suite`) and one summary
(:func:`summarize`) serve all five.  Why each workload looks the way it
does is recorded next to its pinned parameters below; what each suite
runs and gates is the table.

Every leg is timed best-of-:data:`REPETITIONS` with its answer asserted
identical on every repetition: the gated quantities are ratios of
sub-second wall-clock runs, and a single sample of each is scheduler
noise.

Used two ways:

* locally: ``python -m repro.bench.perf_smoke --suite routing`` to
  (re)generate the committed baseline;
* in CI: ``python -m repro.bench.perf_smoke --suite routing --check
  BENCH_pr3.json`` re-runs the same workload and **fails** (exit 1) when
  the measured ratio regresses by more than ``--tolerance`` (default
  30%) against the committed baseline, drops below the suite's floor, or
  any extra gate of the suite breaks.  Only *ratios* are gated —
  absolute edges/second are machine-dependent and reported for
  information only.

Workloads are pinned (generator seeds, stream length, query variants,
window) so comparisons are between code versions, not between random
workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import platform
import random
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..api import EngineConfig, Session
from ..core.engine import TimingMatcher
from ..core.query import ANY, Prefix, QueryGraph
from ..datasets import (
    generate_netflow_stream, generate_query_set, window_slice,
)
from ..graph.edge import StreamEdge
from ..graph.ops import relabel_stream

#: Repetitions of every timed leg; the fastest one is reported.
REPETITIONS = 3


class Workload(NamedTuple):
    """What a suite's legs run: named queries (registration order is
    ordinal order), the window duration, the pinned edge list, and the
    pinned parameters — which are the report's ``workload`` block."""

    queries: Dict[str, QueryGraph]
    window: float
    edges: List[StreamEdge]
    params: dict


def _pick(mapping: dict, *keys: str) -> dict:
    return {key: mapping[key] for key in keys}


# --------------------------------------------------------------------- #
# Workloads: pinned parameters (which the report publishes) and builders
# --------------------------------------------------------------------- #

#: The fig15-style default workload (seeded NetworkFlow stream, one
#: generated 5-edge query, MS-tree storage).  ``query_variant`` selects
#: one query from the seeded generator's 5-variant set — variant 4 is a
#: k=4 decomposition whose expansion lists grow into the thousands on
#: this stream, making it a sensitive scan-vs-hash probe that still
#: completes in seconds.
INDEXING = {
    "dataset": "NetworkFlow", "storage": "mstree",
    "stream_edges": 8000, "stream_seed": 42, "num_ips": 120,
    "query_size": 5, "query_variant": 4, "window_units": 8000.0,
}


def build_indexing_workload() -> Workload:
    p = INDEXING
    stream = generate_netflow_stream(
        p["stream_edges"], seed=p["stream_seed"], num_ips=p["num_ips"])
    queries = generate_query_set(
        window_slice(stream, 300), sizes=[p["query_size"]], per_size=1,
        rng=random.Random(0),
        generalize_label=lambda lbl: (ANY, lbl[1], lbl[2]))
    return Workload(
        {"q": queries[p["query_variant"]]},
        stream.window_units_to_duration(p["window_units"]), list(stream), p)


#: Pinned multi-query workload (the sharding suite runs it too).  The
#: NetworkFlow stream is relabelled to drop the ephemeral
#: source port — ``(dst-port, protocol)`` term labels — so the generated
#: queries carry *concrete* label triples the session routing index can
#: discriminate on (the PR 2 workload wildcards the source port instead,
#: which forces every query onto the always-routed path and would
#: measure nothing here).  The port universe is widened and flattened
#: (200 extra ports, alpha 0.8) for the sparse-matching regime
#: multi-tenant monitoring lives in: most arrivals concern few of the 16
#: registered patterns, matches are rare events.  Of each generated
#: walk's five timing-order variants only the full order is registered —
#: the strongest timing pruning, keeping the (identical-in-both-modes)
#: join work from drowning out the fan-out overhead being measured.
ROUTING = {
    "dataset": "NetworkFlow (dst-port/protocol labels)", "storage": "mstree",
    "stream_edges": 24000, "stream_seed": 7, "num_ips": 150,
    "extra_ports": 200, "port_alpha": 0.8,
    "query_sizes": [4], "num_queries": 16, "window_units": 2000.0,
}


def _relabelled_netflow(p: dict):
    raw = generate_netflow_stream(
        p["stream_edges"], seed=p["stream_seed"], num_ips=p["num_ips"],
        extra_ports=p["extra_ports"], port_alpha=p["port_alpha"])
    return relabel_stream(raw, edge_label=lambda lbl: (lbl[1], lbl[2]))


def build_routing_workload(**extra_params) -> Workload:
    """The routing workload; ``extra_params`` are what a suite built on
    it pins on top (they join the report's ``workload`` block)."""
    p = ROUTING
    stream = _relabelled_netflow(p)
    variants = generate_query_set(
        window_slice(stream, 300), sizes=p["query_sizes"],
        per_size=p["num_queries"], rng=random.Random(3))
    # One query per walk: the full-timing-order variant (index 0 of each
    # walk's five-variant group, see generate_query_set).
    queries = variants[0::5][:p["num_queries"]]
    if len(queries) != p["num_queries"]:
        raise AssertionError(
            f"query generator produced {len(queries)} variants, "
            f"expected {p['num_queries']}")
    return Workload(
        {f"q{i:02d}": query for i, query in enumerate(queries)},
        stream.window_units_to_duration(p["window_units"]), list(stream),
        {**p, **extra_params})


#: Pinned overlapping-pattern-library workload.  The same relabelled
#: NetworkFlow regime as the routing suite, but the registered queries are
#: built to *overlap*: every variant contains the same 4-edge "attack
#: core" chain (concrete mid-frequency labels — ``core_ranks`` are their
#: frequency ranks — full timing order) plus one distinguishing edge with
#: a per-variant rare label, timing-unordered against the chain.  The
#: greedy decomposition therefore splits each query into [core chain,
#: distinguishing singleton] — 16 queries, one canonical core sub-plan.
#: ``subplan_sharing="shared"`` maintains that core's expansion lists once
#: per arrival; ``"private"`` pays for them 16 times, which is exactly the
#: Ω(Q·insert)/Ω(Q·store) overhead the sub-plan cache removes.
SHARING = {
    "dataset": "NetworkFlow (dst-port/protocol labels)", "storage": "mstree",
    "stream_edges": 16000, "stream_seed": 11, "num_ips": 100,
    "extra_ports": 200, "port_alpha": 0.8,
    "num_queries": 16, "core_ranks": [0, 1, 2, 3], "window_units": 4000.0,
}


def build_sharing_workload() -> Workload:
    p = SHARING
    stream = _relabelled_netflow(p)
    edges = list(stream)
    frequency = Counter(edge.label for edge in edges)
    ranked = [label for label, _ in frequency.most_common()]
    core_labels = [ranked[rank] for rank in p["core_ranks"]]
    # Distinguishing labels: the rarest that still occur a handful of
    # times, so every variant's private machinery does *some* work.
    rare = [label for label in reversed(ranked)
            if frequency[label] >= 4 and label not in core_labels]
    variant_labels = rare[:p["num_queries"]]
    if len(variant_labels) != p["num_queries"]:
        raise AssertionError(
            f"stream has only {len(variant_labels)} usable rare labels, "
            f"need {p['num_queries']}")
    queries = []
    core_len = len(core_labels)
    for label in variant_labels:
        query = QueryGraph()
        for i in range(core_len + 2):
            query.add_vertex(f"v{i}", "IP")
        for i, core_label in enumerate(core_labels):
            query.add_edge(f"c{i + 1}", f"v{i}", f"v{i + 1}",
                           label=core_label)
        # The tenant-specific edge: no timing constraint against the
        # chain, so it can never extend the core's timing sequence and
        # the decomposition is [c1 … cN][x] for every variant.
        query.add_edge("x", f"v{core_len}", f"v{core_len + 1}", label=label)
        query.add_timing_chain(*[f"c{i + 1}" for i in range(core_len)])
        queries.append(query)
    return Workload(
        {f"q{i:02d}": query for i, query in enumerate(queries)},
        stream.window_units_to_duration(p["window_units"]), edges, p)


#: Pinned predicate-routing workload: a port-labelled stream (ints in
#: ``port_range``, so prefixes discriminate on decimal text) and a query
#: population of single-edge prefix/wildcard queries — a fixed handful of
#: *hot* prefixes that match ~1% of the port space each, two any-label
#: queries, and a scalable tail of *cold* prefixes (distinct
#: ``3…``-prefixed patterns that can never match a ``1…`` port).  Scaling
#: the cold tail scales the registered-query count without changing the
#: answer, which is exactly what separates routing cost from match cost:
#: fanout pays O(Q) per arrival, the trie pays O(label length), and the
#: 8x query population of the scaling legs may cost at most 1.5x per edge
#: while producing the *identical* match multiset — the cold tail is
#: provably routed around, never mis-matched.  ``throughput_leg_edges``
#: is the fanout leg's stream slice: fanout at 1,024 queries pays the
#: full O(Q) per arrival, so the slice keeps the leg inside seconds.
PREDICATES = {
    "dataset": "synthetic port-labelled stream", "storage": "mstree",
    "stream_edges": 2500, "stream_seed": 19, "num_hosts": 64,
    "port_range": [10000, 19999], "window_units": 400.0,
    "hot_queries": 8, "wildcard_queries": 2,
    "throughput_queries": 1024, "throughput_leg_edges": 500,
    "scaling_queries": [256, 2048],
}


def _one_edge_query(label) -> QueryGraph:
    query = QueryGraph()
    query.add_vertex("a", ANY)
    query.add_vertex("b", ANY)
    query.add_edge("e", "a", "b", label)
    return query


def build_predicates_workload() -> Workload:
    """The port-labelled stream (one edge per time unit) and the largest
    query population.  Populations are nested — hot prefixes, wildcards,
    then the cold tail in order — so the first N of it is the N-query
    population and answers must agree across scales."""
    p = PREDICATES
    rng = random.Random(p["stream_seed"])
    edges = []
    for i in range(p["stream_edges"]):
        u = rng.randrange(p["num_hosts"])
        v = rng.randrange(p["num_hosts"])
        while v == u:
            v = rng.randrange(p["num_hosts"])
        edges.append(StreamEdge(
            f"h{u}", f"h{v}", src_label="ip", dst_label="ip",
            timestamp=float(i), label=rng.randint(*p["port_range"])))
    queries = {}
    for i in range(p["hot_queries"]):
        # "10i" prefixes: each matches ports 10i00-10i99 (~1% of ports).
        queries[f"hot{i}"] = _one_edge_query(Prefix(f"10{i}"))
    for i in range(p["wildcard_queries"]):
        queries[f"wild{i}"] = _one_edge_query(ANY)
    for i in range(max(p["scaling_queries"]) - len(queries)):
        # Distinct never-matching prefixes: ports never start with '3'.
        queries[f"cold{i:05d}"] = _one_edge_query(Prefix(f"3{i:06d}"))
    return Workload(queries, p["window_units"], edges, p)


# --------------------------------------------------------------------- #
# Legs: a function of the workload returning (run dict, answer)
# --------------------------------------------------------------------- #

def _timed(work: Callable, edges: List):
    """``work(edges)`` under the wall and CPU clocks: its result and the
    timing fields every run dict starts from."""
    cpu_started = time.process_time()
    started = time.perf_counter()
    result = work(edges)
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return result, {
        "elapsed_seconds": round(elapsed, 4),
        "cpu_seconds": round(cpu, 4),
        "throughput_edges_per_s": round(len(edges) / elapsed, 1),
        "per_edge_us": round(elapsed / len(edges) * 1e6, 2),
    }


def _engine_leg(workload: Workload, indexing: str):
    """The workload's one query on a bare engine, edge by edge."""
    (query,) = workload.queries.values()
    engine = TimingMatcher.from_config(
        query, workload.window, config=EngineConfig(indexing=indexing))

    def push_all(edges):
        matches = 0
        for edge in edges:
            matches += len(engine.push(edge))
        return matches

    matches, run = _timed(push_all, workload.edges)
    stats = engine.stats
    run.update(
        indexing=indexing, matches=matches, index_probes=stats.index_probes,
        scan_fallbacks=stats.scan_fallbacks,
        join_operations=stats.join_operations)
    return run, matches


def _session_leg(workload: Workload, config: EngineConfig,
                 fields: Callable[[Session], dict], *,
                 queries: Optional[int] = None, edges: Optional[int] = None):
    """Register the workload's (first ``queries``) queries on
    ``Session(config)`` and time one ``push_many`` of its (first
    ``edges``) edges.  The answer is the ``(name, match)`` multiset.
    ``fields`` adds the suite's own counters."""
    stream = workload.edges[:edges]
    session = Session(window=workload.window, config=config)
    try:
        for name, query in itertools.islice(workload.queries.items(),
                                            queries):
            session.register(name, query)
        tagged, run = _timed(session.push_many, stream)
        run["matches"] = len(tagged)
        run.update(fields(session))
    finally:
        if hasattr(session, "close"):   # process shards: workers and rings
            session.close()
    return run, Counter(tagged)


def _routing_fields(session: Session) -> dict:
    return {**_pick(session.session_stats(), "routing", "routed_pushes",
                    "skipped_matchers", "shared_window_cells",
                    "window_cells"),
            "space_cells": session.space_cells()}


def _sharing_fields(session: Session) -> dict:
    return {**_pick(session.session_stats(), "subplan_sharing",
                    "shared_subplans", "subplan_consumers",
                    "subplan_reuses"),
            "space_cells": session.space_cells(),
            "logical_space_cells": sum(session.matcher(name).space_cells()
                                       for name in session.names())}


def _predicates_leg(workload: Workload, routing: str, queries: int,
                    edges: Optional[int] = None):
    return _session_leg(
        workload, EngineConfig(routing=routing),
        lambda session: _pick(
            session.session_stats(), "routing", "queries",
            "predicate_entries", "predicate_trie_nodes"),
        queries=queries, edges=edges)


#: The sharded legs partition the routing workload across this many
#: process shards — the stable name hash splits q00…q15 into 4 queries
#: per shard exactly.
SHARDING_SHARDS = 4


def _sharded_fields(session) -> dict:
    stats = session.session_stats()
    per_shard = stats["per_shard"]
    return {**_pick(stats, "sharding", "shards", "transport",
                    "facade_cpu_seconds"),
            "shard_busy_seconds": [p["busy_seconds"] for p in per_shard],
            "queries_per_shard": [p["queries"] for p in per_shard],
            "edges_per_shard": [p["edges_received"] for p in per_shard]}


def _sharded_leg(workload: Workload, transport: str):
    """The routing workload on process shards.  Like the paper's
    ``Timing-N`` figures (which replay measured lock traces through
    :mod:`repro.concurrency.simulation` because the GIL hides thread
    speedup), each pipeline stage's real CPU cost is measured and
    steady-state throughput modeled as ``stream / max(stage cost)``;
    the wall clock of the same run is reported beside it."""
    run, answer = _session_leg(workload, EngineConfig(
        subplan_sharing="private", sharding="process",
        shards=SHARDING_SHARDS, transport=transport), _sharded_fields)
    run["elapsed_wall_seconds"] = run.pop("elapsed_seconds")
    run["throughput_wall_edges_per_s"] = run.pop("throughput_edges_per_s")
    critical = max(run["facade_cpu_seconds"], *run["shard_busy_seconds"])
    run["critical_stage_seconds"] = round(critical, 4)
    run["modeled_pipeline_edges_per_s"] = round(
        len(workload.edges) / critical, 1)
    return run, answer


# --------------------------------------------------------------------- #
# The suite table
# --------------------------------------------------------------------- #

class Leg(NamedTuple):
    """One mode of a suite.  ``name`` is its (dotted) key in the report,
    ``run(workload)`` returns ``(run dict, answer)``; every repetition
    must reproduce the answer of leg ``same_as`` (or, without one, of
    its own first repetition)."""

    name: str
    run: Callable[[Workload], Tuple[dict, object]]
    same_as: Optional[str] = None


class Gate(NamedTuple):
    """A bound on one (dotted) report key: ``kind`` is ``"min"``,
    ``"max"`` or ``"equals"``.  ``when`` names a report flag that must be
    true for the gate to apply; a ``tracked`` gate also fails when the
    value falls more than the tolerance below the baseline's."""

    key: str
    kind: str
    bound: object
    claim: str
    when: Optional[str] = None
    tracked: bool = False


class Suite(NamedTuple):
    """One ablation: what to build, run, hold, derive and gate.  Every
    key below is a dotted path into the report, where each leg's run
    sits under the leg's name."""

    baseline: str                   #: committed report, also the default --out
    benchmark: str                  #: the report's ``benchmark`` name
    build: Callable[[], Workload]
    legs: Tuple[Leg, ...]
    #: ``(key, numerator key, denominator key[, digits])`` report fields;
    #: ``speedup`` — the gated ratio — is one of them.
    ratios: Tuple[tuple, ...]
    claim: str                      #: what ``speedup`` measures
    floor: float                    #: hard floor on it, whatever the baseline
    pinned: str                     #: leg whose match count pins the workload
    #: ``(claim, holds(report))`` — exact relations between the legs' runs
    #: that make the timing comparison meaningful.
    invariants: Tuple[Tuple[str, Callable[[dict], bool]], ...] = ()
    #: Report fields that are not ratios of two run fields.
    extras: Callable[[dict], dict] = lambda report: {}
    gates: Tuple[Gate, ...] = ()


def _cpu_cores() -> int:
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


SUITES: Dict[str, Suite] = {
    "indexing": Suite(
        "BENCH_pr2.json", "pr2-indexing-perf-smoke", build_indexing_workload,
        legs=(
            Leg("hash", lambda w: _engine_leg(w, "hash")),
            Leg("scan", lambda w: _engine_leg(w, "scan"), same_as="hash"),
        ),
        ratios=(("speedup", "scan.elapsed_seconds", "hash.elapsed_seconds"),),
        claim="hash-over-scan speedup", floor=3.0, pinned="hash",
    ),
    "routing": Suite(
        "BENCH_pr3.json", "pr3-routing-perf-smoke", build_routing_workload,
        # Sub-plan sharing is pinned off so this suite keeps measuring
        # the routing ablation alone (and the exact space equality below
        # stays meaningful); the sharing suite measures the other knob.
        legs=(
            Leg("shared", lambda w: _session_leg(w, EngineConfig(
                routing="shared", subplan_sharing="private"),
                _routing_fields)),
            Leg("fanout", lambda w: _session_leg(w, EngineConfig(
                routing="fanout", subplan_sharing="private"),
                _routing_fields), same_as="shared"),
        ),
        ratios=(
            ("window_cells_ratio", "fanout.window_cells",
             "shared.window_cells"),
            ("speedup", "fanout.elapsed_seconds", "shared.elapsed_seconds"),
        ),
        claim="shared-over-fanout speedup", floor=3.0, pinned="shared",
        invariants=(
            ("routing leaves partial-match space unchanged", lambda r:
                r["shared"]["space_cells"] == r["fanout"]["space_cells"]),
            # The memory claim, asserted exactly: fanout keeps Q window
            # copies, shared keeps one — O(Q·|W|) collapses to O(|W|).
            ("a shared session keeps no private window copies", lambda r:
                r["shared"]["window_cells"]
                == r["shared"]["shared_window_cells"]),
            ("fanout keeps one window copy per query", lambda r:
                r["fanout"]["window_cells"] == ROUTING["num_queries"]
                * r["shared"]["shared_window_cells"]),
        ),
        gates=(Gate("window_cells_ratio", "min", ROUTING["num_queries"],
                    "shared-window memory is O(|W|), fanout's O(Q·|W|)"),),
    ),
    "sharing": Suite(
        "BENCH_pr4.json", "pr4-subplan-sharing-perf-smoke",
        build_sharing_workload,
        legs=(
            Leg("shared", lambda w: _session_leg(w, EngineConfig(
                subplan_sharing="shared"), _sharing_fields)),
            Leg("private", lambda w: _session_leg(w, EngineConfig(
                subplan_sharing="private"), _sharing_fields),
                same_as="shared"),
        ),
        ratios=(
            ("space_ratio", "private.space_cells", "shared.space_cells"),
            ("speedup", "private.elapsed_seconds", "shared.elapsed_seconds"),
        ),
        claim="shared-over-private speedup", floor=3.0, pinned="shared",
        invariants=(
            # Every engine reads the same expansion lists whether it owns
            # them or shares them.
            ("sharing leaves logical per-query space unchanged", lambda r:
                r["shared"]["logical_space_cells"]
                == r["private"]["logical_space_cells"]),
            ("the workload overlaps: some sub-plan record has more than "
             "one consumer", lambda r:
                r["shared"]["subplan_consumers"]
                > max(1, r["shared"]["shared_subplans"])),
            ("shared stores are reused", lambda r:
                r["shared"]["subplan_reuses"] > 0),
        ),
        # 16 queries, one core store: the shared-store cell count must be
        # sub-linear in the query count.
        gates=(Gate("space_ratio", "min", 2.0,
                    "shared-store cell count is sub-linear: private/shared "
                    "space ratio", tracked=True),),
    ),
    "sharding": Suite(
        "BENCH_pr9.json", "pr9-sharding-transport-perf-smoke",
        lambda: build_routing_workload(shards=SHARDING_SHARDS),
        # Sub-plan sharing is pinned off in every leg so the suite
        # measures the sharding ablation alone (under sharding it would
        # also change *where* stores live, confounding the stage costs).
        legs=(
            Leg("none", lambda w: _session_leg(w, EngineConfig(
                subplan_sharing="private"),
                lambda session: {"sharding": "none"})),
            Leg("sharded", lambda w: _sharded_leg(w, "shm"), same_as="none"),
            Leg("sharded_pipe", lambda w: _sharded_leg(w, "pipe"),
                same_as="none"),
        ),
        ratios=(
            ("wall_speedup", "none.elapsed_seconds",
             "sharded.elapsed_wall_seconds"),
            ("wall_speedup_pipe", "none.elapsed_seconds",
             "sharded_pipe.elapsed_wall_seconds"),
            ("shm_over_pipe", "sharded_pipe.elapsed_wall_seconds",
             "sharded.elapsed_wall_seconds"),
            ("speedup", "none.cpu_seconds", "sharded.critical_stage_seconds"),
        ),
        claim="modeled sharded-pipeline speedup", floor=2.0, pinned="none",
        invariants=(
            ("the pinned name hash balances the partition", lambda r:
                sorted(r["sharded"]["queries_per_shard"])
                == [4] * SHARDING_SHARDS),
        ),
        extras=lambda r: {
            "model": "pipeline: none cpu_seconds / max(facade_cpu_seconds, "
                     "max(shard_busy_seconds)); wall_speedup is measured "
                     "end-to-end wall clock, gated when cpu_cores >= shards",
            "wall_gate_enforced":
                r["environment"]["cpu_cores"] >= SHARDING_SHARDS,
        },
        gates=(
            Gate("sharded.transport", "equals", "shm",
                 "the shm leg runs on shared memory (required on gated "
                 "platforms), not a silent fallback"),
            # Only enforced when the machine has a core per shard: on
            # fewer the processes time-slice and no transport can make
            # sharding win on wall-clock.
            Gate("wall_speedup", "min", 2.0,
                 "measured wall-clock speedup at a core per shard",
                 when="wall_gate_enforced"),
            # Enforced everywhere, single-core included: the zero-pickle
            # ring must never make the hot path slower than pickling into
            # a pipe.  The slack below 1.0 absorbs scheduler noise on
            # sub-second runs.
            Gate("shm_over_pipe", "min", 0.9,
                 "the shm transport is no slower than the pipe fallback: "
                 "pipe/shm wall ratio"),
        ),
    ),
    "predicates": Suite(
        "BENCH_pr10.json", "pr10-predicate-routing-perf-smoke",
        build_predicates_workload,
        legs=(
            # Answer gate at 1,024 queries: trie and fanout must agree on
            # the exact (name, match) multiset over the slice.
            Leg("shared_slice", lambda w: _predicates_leg(
                w, "shared", PREDICATES["throughput_queries"],
                PREDICATES["throughput_leg_edges"])),
            Leg("fanout", lambda w: _predicates_leg(
                w, "fanout", PREDICATES["throughput_queries"],
                PREDICATES["throughput_leg_edges"]), same_as="shared_slice"),
            # Timing leg for the speedup: the same 1,024 queries over the
            # full stream — 5x the work of the slice, so the per-edge
            # figure is not dominated by timer noise the way a 20ms run
            # would be.  The gated speedup is the per-edge ratio against
            # fanout's slice run (fanout over the full stream would take
            # minutes for no extra signal).
            Leg("shared", lambda w: _predicates_leg(
                w, "shared", PREDICATES["throughput_queries"])),
            # Nested populations: hot+wildcard identical, cold tails
            # silent — so all full-stream runs must produce the same
            # multiset.
            Leg("scaling.small", lambda w: _predicates_leg(
                w, "shared", PREDICATES["scaling_queries"][0]),
                same_as="shared"),
            Leg("scaling.large", lambda w: _predicates_leg(
                w, "shared", PREDICATES["scaling_queries"][1]),
                same_as="shared"),
        ),
        ratios=(
            # Cold queries are silent at both scales, so the multiset
            # equality makes this a pure routing-cost ratio: match work
            # is pinned constant by construction.
            ("scaling.per_edge_ratio", "scaling.large.per_edge_us",
             "scaling.small.per_edge_us", 3),
            ("speedup", "fanout.per_edge_us", "shared.per_edge_us"),
        ),
        claim="trie-over-fanout speedup at "
              f"{PREDICATES['throughput_queries']} queries",
        floor=5.0, pinned="shared",
        gates=(Gate("scaling.per_edge_ratio", "max", 1.5,
                    "per-edge routing cost is flat in the query count: "
                    "{} -> {} queries per-edge ratio".format(
                        *PREDICATES["scaling_queries"])),),
    ),
}


# --------------------------------------------------------------------- #
# The runner, the checker, the summary
# --------------------------------------------------------------------- #

_HOLDS = {"min": operator.ge, "max": operator.le, "equals": operator.eq}


def _wall(run: dict) -> float:
    return run.get("elapsed_wall_seconds", run.get("elapsed_seconds"))


def _get(report: dict, key: str):
    """The value at a dotted key, ``None`` when any step is missing."""
    for part in key.split("."):
        if not isinstance(report, dict) or part not in report:
            return None
        report = report[part]
    return report


def _put(report: dict, key: str, value) -> None:
    *parents, leaf = key.split(".")
    for part in parents:
        report = report.setdefault(part, {})
    report[leaf] = value


def run_suite(suite: Suite) -> dict:
    """Run every leg of ``suite`` on its pinned workload; returns the
    report.  Raises ``AssertionError`` when a leg changes the answer or
    an invariant between legs breaks — a wrong answer is never timed."""
    workload = suite.build()
    report = {
        "benchmark": suite.benchmark,
        "workload": {**workload.params, "repetitions": REPETITIONS},
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_cores": _cpu_cores(),
        },
    }
    answers: Dict[str, object] = {}
    for leg in suite.legs:
        reference = answers.get(leg.same_as)
        best = None
        for _ in range(REPETITIONS):
            run, answer = leg.run(workload)
            if reference is None:
                reference = answer
            elif answer != reference:
                raise AssertionError(
                    f"{suite.benchmark}: leg {leg.name!r} changed the "
                    f"answer (reference: {leg.same_as or 'its first run'})")
            if best is None or _wall(run) < _wall(best):
                best = run
        _put(report, leg.name, best)
        answers[leg.name] = reference
    for claim, holds in suite.invariants:
        if not holds(report):
            raise AssertionError(f"{suite.benchmark}: broken invariant — "
                                 f"{claim}")
    for key, over, under, *digits in suite.ratios:
        _put(report, key, round(_get(report, over) / _get(report, under),
                                digits[0] if digits else 2))
    report.update(suite.extras(report))
    return report


def check_suite(suite: Suite, report: dict, baseline: dict,
                tolerance: float) -> List[str]:
    """Failure messages (empty = pass): the gated ratio against its floor
    and the baseline, the suite's extra gates, and workload drift."""
    failures = []
    ratio_gate = Gate("speedup", "min", suite.floor, suite.claim,
                      tracked=True)
    for gate in (ratio_gate,) + suite.gates:
        if gate.when is not None and not _get(report, gate.when):
            continue
        value = _get(report, gate.key)
        if not _HOLDS[gate.kind](value, gate.bound):
            failures.append(f"{gate.claim}: {gate.key} is {value!r}, the "
                            f"gate is {gate.kind} {gate.bound!r}")
        recorded = _get(baseline, gate.key)
        if gate.tracked and recorded is not None \
                and value < (1.0 - tolerance) * recorded:
            failures.append(
                f"{gate.claim} regressed >{tolerance:.0%}: measured "
                f"{value} vs committed baseline {recorded}")
    matches = _get(report, f"{suite.pinned}.matches")
    recorded = _get(baseline, f"{suite.pinned}.matches")
    if recorded is not None and matches != recorded:
        failures.append(f"workload drifted: {matches} matches vs baseline "
                        f"{recorded}")
    return failures


def summarize(suite: Suite, report: dict) -> str:
    """One line: each leg's wall seconds, the gated ratio, and the value
    under every extra gate."""
    legs = ", ".join(
        f"{leg.name} {_wall(_get(report, leg.name))}s"
        for leg in suite.legs)
    gated = "".join(f", {gate.key} {_get(report, gate.key)}"
                    for gate in suite.gates)
    return (f"{legs} → {suite.claim} {report['speedup']}{gated} "
            f"(best of {REPETITIONS}, "
            f"{report['environment']['cpu_cores']} cores)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perf_smoke",
        description="pinned perf smokes: one ablation per suite, its "
                    "gated ratio checked against a committed baseline")
    parser.add_argument("--suite", choices=sorted(SUITES),
                        default="indexing",
                        help="which smoke to run (default: indexing)")
    parser.add_argument("--out", default=None,
                        help="where to write the JSON report (default: "
                             "the suite's committed baseline name)")
    parser.add_argument("--check", default=None, metavar="BASELINE.json",
                        help="compare against a committed baseline report "
                             "and exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression of the gated "
                             "ratio vs the baseline (default 0.30)")
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    out = args.out if args.out is not None else suite.baseline

    # Read the baseline before writing anything: with the default --out
    # the two paths are the same file, and clobbering the baseline first
    # would make the regression gate compare the run against itself.
    baseline = None
    if args.check is not None:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)

    report = run_suite(suite)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{summarize(suite, report)}; wrote {out}")

    if baseline is not None:
        failures = check_suite(suite, report, baseline, args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("regression check passed (baseline speedup "
              f"{baseline['speedup']}x, tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
