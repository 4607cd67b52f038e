"""Each multi-query optimisation, argued by the work it saves.

The paper argues every optimisation by an ablation against a reference
mode (Timing vs Timing-IND / -RD / -RJ, §VII).  Here each layer runs
beside its reference (the ablation mode, or for routing one standalone
engine per query) on a small pinned stream, asserts identical answers,
and asserts the *count* that explains the speed-up — join predicate
checks, engine visits, window and store cells, executed lines — rather
than a wall-clock ratio.  A count is the same on every run, so a
regression in work fails here deterministically; wall time is measured
per change, with a noise band, by ``bench_e2e``.

* indexing: hash-indexed joins evaluate fewer join predicates than
  scans (an engine with its join-index maps emptied);
* decomposition and join order (Timing-RD / -RJ): the planned engine
  joins no more TC-subqueries than a random decomposition, and opens
  with a join at least as selective as a random order's;
* timing prune: an arrival skips each join its timing order rules out,
  one join and one probe per arrival that completes a marked sub-query;
* routing: one shared window and label routing, not one window and one
  visit per query;
* sharing: one store per canonical sub-plan, not one per query;
* predicates: per-arrival routing work that does not grow with the
  number of registered prefix/wildcard queries;
* registration: a deregister + register pair of a known query builds
  its engine once, on the shared window's view, and moves the prefix
  index by one pattern.
"""

import gc
import random
import sys
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro import EngineConfig, Session, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.core import engine as engine_module
from repro.core.join_order import is_prefix_connected_order, joint_number
from repro.core.query import ANY, Prefix, QueryGraph
from repro.datasets import (
    generate_lsbench_stream, generate_netflow_stream, generate_query_set,
    generate_wikitalk_stream, window_slice,
)
from repro.graph.edge import StreamEdge
from repro.graph.stream import GraphStream
from repro.graph.window import SlidingWindow
from repro.subplans import _SubplanProvider

from .conftest import FORK_PLAN, all_scan, fork_query, fork_stream

STORAGES = ["mstree", "independent"]
#: The three variants ``generate_query_set`` draws from one walk, in order.
VARIANTS = ["full", "empty", "random"]
SEEDS = range(20)


@contextmanager
def collector_paused():
    """No cyclic collection inside: a count needs none, the legs
    allocate tens of thousands of partial matches, and a finaliser run
    inside a traced push would add lines to its count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_session(queries, window, edges, **config):
    """A session over ``queries`` (name -> query) fed ``edges`` in one
    batch: the session and its ``(name, match)`` multiset."""
    session = Session(window=window, config=EngineConfig(**config))
    for name, query in queries.items():
        session.register(name, query)
    return session, Counter(session.push_many(edges))


def logical_space(session):
    """The sum of ``session``'s engines' logical space: a shared store
    counted once per engine that reads it."""
    return sum(session.matcher(name).space_cells()
               for name in session.names())


def run_standalone(queries, window, edges, **config):
    """The baseline a session is measured against: one standalone engine
    per query on its own window, each pushed every arrival — the engines
    (name -> engine) and the ``(name, match)`` multiset."""
    engines = {name: TimingMatcher(query, window,
                                   config=EngineConfig(**config))
               for name, query in queries.items()}
    return engines, Counter((name, match)
                            for name, engine in engines.items()
                            for match in engine.push_many(edges))


# --------------------------------------------------------------------- #
# Indexing and planning: the three paper datasets as the figure
# benchmarks build them (seed 42, 4,000-edge stream, first 1,000 edges,
# 300-unit window, the full / empty / random-order variants of one
# 5-edge query)
# --------------------------------------------------------------------- #

DATASETS = {
    "NetworkFlow": (generate_netflow_stream, {"num_ips": 120},
                    lambda label: (ANY, label[1], label[2])),
    "SocialStream": (generate_lsbench_stream, {}, None),
    "Wiki-talk": (generate_wikitalk_stream, {}, None),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    """``(queries, window, edges)`` of one paper dataset."""
    generator, options, generalize = DATASETS[request.param]
    stream = generator(4000, seed=42, **options)
    variants = generate_query_set(
        window_slice(stream, 300), sizes=[5], per_size=1,
        rng=random.Random(0), generalize_label=generalize)
    return (variants[:3], stream.window_units_to_duration(300),
            list(stream)[:1000])


def join_checks(query, window, edges, scan=False, **config):
    """The engine's matches over ``edges`` and how many join predicates
    (extension and union ``check`` calls) it evaluated for them; with
    ``scan`` every join is a full scan."""
    engine = TimingMatcher(query, window, config=EngineConfig(**config))
    if scan:
        all_scan(engine)
    calls = 0

    def counted(check):
        def counting(left, right):
            nonlocal calls
            calls += 1
            return check(left, right)
        # Once built, the engine reads nothing of a spec but ``check``.
        return SimpleNamespace(check=counting)

    for specs in (engine._ext_specs, engine._union_specs):
        for key, spec in specs.items():
            specs[key] = counted(spec.check)
    with collector_paused():
        matches = Counter(engine.push_many(edges))
    return matches, calls


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("variant", range(len(VARIANTS)), ids=VARIANTS)
def test_hash_joins_check_fewer_predicates_than_scans(dataset, variant,
                                                      storage):
    """A hash probe hands the residual check only its key's bucket; a
    scan checks every stored entry (Theorem 3's ``O(|Lᵢ₋₁|)``).  Counted
    as predicate checks, not ``TraceGuard`` costs: a scan join reports
    |Ω| for its |Δ|×|Ω| nested loop."""
    queries, window, edges = dataset
    query = queries[variant]
    hashed, hash_checks = join_checks(query, window, edges,
                                      storage=storage)
    scanned, scan_checks = join_checks(query, window, edges, scan=True,
                                       storage=storage)
    assert hashed == scanned
    assert 0 < hash_checks < scan_checks


def planned(query, window, seed=0, **config):
    """The engine's TC-subqueries in join order under ``config``."""
    return TimingMatcher(query, window,
                         config=EngineConfig(seed=seed, **config)).join_order


@pytest.mark.parametrize("variant", range(len(VARIANTS)), ids=VARIANTS)
def test_greedy_decomposition_joins_no_more_subqueries_than_random(
        dataset, variant):
    """Theorem 7's per-arrival cost grows with k, the number of
    TC-subqueries joined; Algorithm 6 takes the largest TC-subquery
    first, so no random decomposition (Timing-RD) of the same query has
    fewer parts."""
    queries, window, _ = dataset
    query = queries[variant]
    k = len(planned(query, window))
    drawn = [len(planned(query, window, seed, decomposition="random"))
             for seed in SEEDS]
    assert min(drawn) >= k >= 1


@pytest.mark.parametrize("variant", range(len(VARIANTS)), ids=VARIANTS)
def test_jn_order_opens_with_the_most_selective_join(dataset, variant):
    """The joint-number order (Definition 12) starts from the connected
    pair sharing the most vertices and cross timing constraints, so its
    first join is at least as selective as the first join of any random
    prefix-connected order (Timing-RJ) of the same decomposition.  A
    one-part plan has no join to order."""
    queries, window, _ = dataset
    query = queries[variant]
    order = planned(query, window)
    drawn = [planned(query, window, seed, join_order="random")
             for seed in SEEDS]
    assert is_prefix_connected_order(query, order)
    for other in drawn:
        assert sorted(other) == sorted(order)
        assert is_prefix_connected_order(query, other)
    if len(order) == 1:
        assert all(other == order for other in drawn)
        return
    opening = joint_number(query, order[0], order[1])
    assert all(joint_number(query, other[0], other[1]) <= opening
               for other in drawn)


def nothing_marked(query, ordered):
    """A ``timing_reach`` table marking no join: every sub-query's
    cascade may reach the last level."""
    return (len(ordered),) * len(ordered)


def pruned_and_unpruned(query, window, edges, **config):
    """``(stats, matches)`` of the engine as built, then of one built on
    :func:`nothing_marked`: the work the prune saves is the difference."""
    runs = []
    for prune in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not prune:
                patch.setattr(engine_module, "timing_reach", nothing_marked)
            engine = TimingMatcher(query, window,
                                   config=EngineConfig(**config))
        assert engine.join_order == FORK_PLAN
        with collector_paused():
            matches = Counter(engine.push_many(edges))
        runs.append((engine.stats, matches))
    return runs


@pytest.mark.parametrize("storage", STORAGES)
def test_timing_prune_skips_one_join_per_marked_completion(storage):
    """``engine_join``'s shape: ``e4 ≺ e3`` with ``Q³ = (e3)`` joined
    before ``Q⁴ = (e4)``.  An arrival completing ``Q⁴`` is the newest
    edge, so no ``L₀³`` entry — each holds an older ``e3`` edge — can
    join it: the probe of ``L₀³`` is skipped, one join operation and one
    index probe per such arrival, and the answers do not move."""
    query, window = fork_query(), 20.0
    edges = fork_stream(0, 600)
    marked = sum(query.edge_matches("e4", edge) for edge in edges)
    (pruned, answers), (unpruned, reference) = pruned_and_unpruned(
        query, window, edges, storage=storage)
    assert marked > 0 and sum(answers.values()) > 0
    assert unpruned.join_operations - pruned.join_operations == marked
    assert unpruned.index_probes - pruned.index_probes == marked
    assert pruned.partial_matches_created == unpruned.partial_matches_created
    scan = all_scan(TimingMatcher(query, window,
                                  config=EngineConfig(storage=storage)))
    naive = NaiveSnapshotMatcher(query, window)
    assert answers == reference == Counter(scan.push_many(edges)) \
        == Counter(naive.push_many(edges))


def test_timing_prune_leaves_an_unordered_shape_alone():
    """Without ``e4 ≺ e3`` no arrival's query edge must precede a slot
    on the other side of a join: nothing is marked and every count
    stays."""
    query, window = fork_query(e4_before_e3=False), 20.0
    edges = fork_stream(0, 600)
    (pruned, answers), (unpruned, reference) = pruned_and_unpruned(
        query, window, edges)
    assert answers == reference == Counter(
        NaiveSnapshotMatcher(query, window).push_many(edges))
    assert pruned.as_dict() == unpruned.as_dict()


# --------------------------------------------------------------------- #
# Routing and sharing: NetworkFlow relabelled to (dst-port, protocol)
# edge labels — concrete triples the session's route index discriminates
# on — over a widened, flattened port universe, so most arrivals concern
# few of the 16 registered patterns
# --------------------------------------------------------------------- #

QUERIES = 16
EDGES = 3000


def relabelled_netflow(num_edges, seed, num_ips):
    raw = generate_netflow_stream(num_edges, seed=seed, num_ips=num_ips,
                                  extra_ports=200, port_alpha=0.8)
    return GraphStream(
        StreamEdge(edge.src, edge.dst, src_label=edge.src_label,
                   dst_label=edge.dst_label, timestamp=edge.timestamp,
                   label=(edge.label[1], edge.label[2]))
        for edge in raw)


@pytest.fixture(scope="module")
def routing_workload():
    """16 generated 4-edge queries, one per walk, each the full-timing-
    order variant (the first of a walk's five), over a 2,000-unit
    window."""
    stream = relabelled_netflow(24000, seed=7, num_ips=150)
    variants = generate_query_set(window_slice(stream, 300), sizes=[4],
                                  per_size=QUERIES, rng=random.Random(3))
    queries = variants[0::5]
    assert len(queries) == QUERIES
    return ({f"q{i:02d}": query for i, query in enumerate(queries)},
            stream.window_units_to_duration(2000), list(stream)[:EDGES])


@pytest.mark.parametrize("storage", STORAGES)
def test_shared_routing_keeps_one_window_and_visits_only_consumers(
        routing_workload, storage):
    """Standalone engines keep a window per query and each sees every
    arrival; a session keeps one window and pushes an arrival only to the
    queries its labels can match.  Each engine's logical partial-match
    space is the same in both (the session's stores may be shared, which
    ``test_shared_subplans_store_the_core_once`` counts)."""
    queries, window, edges = routing_workload
    shared, answer = run_session(queries, window, edges, storage=storage)
    engines, baseline = run_standalone(queries, window, edges,
                                       storage=storage)
    assert answer == baseline and answer
    assert logical_space(shared) == sum(
        engine.space_cells() for engine in engines.values()) > 0

    cells = shared.session_stats()
    assert cells["window_cells"] == cells["shared_window_cells"] > 0
    assert sum(len(engine.window) for engine in engines.values()) \
        == QUERIES * cells["window_cells"]

    consumers = sum(1 for edge in edges for query in queries.values()
                    if query.matching_edge_ids(edge))
    assert sum(shared.matcher(name).stats.edges_seen
               for name in shared.names()) \
        == cells["routed_pushes"] == consumers
    assert sum(engine.stats.edges_seen for engine in engines.values()) \
        == QUERIES * len(edges)
    assert consumers < len(edges)


@pytest.fixture(scope="module")
def sharing_workload():
    """16 queries over one 4-edge core chain (the four most frequent
    labels, full timing order) plus one distinguishing edge each (a rare
    label, unordered against the chain), so the greedy decomposition is
    [core][edge] for every variant: one canonical core sub-plan."""
    stream = relabelled_netflow(16000, seed=11, num_ips=100)
    frequency = Counter(edge.label for edge in stream)
    ranked = [label for label, _ in frequency.most_common()]
    core = ranked[:4]
    rare = [label for label in reversed(ranked)
            if frequency[label] >= 4 and label not in core][:QUERIES]
    assert len(rare) == QUERIES
    queries = {}
    for i, label in enumerate(rare):
        query = QueryGraph()
        for v in range(len(core) + 2):
            query.add_vertex(f"v{v}", "IP")
        for c, core_label in enumerate(core):
            query.add_edge(f"c{c}", f"v{c}", f"v{c + 1}", label=core_label)
        query.add_edge("x", f"v{len(core)}", f"v{len(core) + 1}", label=label)
        query.add_timing_chain(*[f"c{c}" for c in range(len(core))])
        queries[f"q{i:02d}"] = query
    return (queries, stream.window_units_to_duration(4000),
            list(stream)[:EDGES])


@pytest.mark.parametrize("storage", STORAGES)
def test_shared_subplans_store_the_core_once(sharing_workload, storage):
    """Standalone engines keep private sub-plan stores, the core's
    expansion lists once per query; a session keeps them once, written
    by the first consumer of each arrival and replayed from the delta
    memo by the rest."""
    queries, window, edges = sharing_workload
    shared, answer = run_session(queries, window, edges, storage=storage)
    engines, baseline = run_standalone(queries, window, edges,
                                       storage=storage)
    assert answer == baseline and answer
    private = sum(engine.space_cells() for engine in engines.values())
    assert logical_space(shared) == private > 0
    assert private >= 2 * shared.space_cells() > 0
    stats = shared.session_stats()
    assert stats["subplan_consumers"] > stats["shared_subplans"]
    assert stats["subplan_reuses"] > 0


# --------------------------------------------------------------------- #
# Predicates: one-edge prefix/wildcard queries over a port-labelled
# stream.  The population is nested — 8 hot "10i" prefixes (each ~1% of
# the ports), 2 any-label queries, then a tail of cold "3…" prefixes no
# port can match — so its first N queries give the same answer at every
# N and only the routing work can grow with N
# --------------------------------------------------------------------- #

def port_stream(num_edges):
    rng = random.Random(19)
    edges = []
    for i in range(num_edges):
        u = rng.randrange(64)
        v = rng.randrange(64)
        while v == u:
            v = rng.randrange(64)
        edges.append(StreamEdge(
            f"h{u}", f"h{v}", src_label="ip", dst_label="ip",
            timestamp=float(i), label=rng.randint(10000, 19999)))
    return edges


def one_edge_query(label):
    query = QueryGraph()
    query.add_vertex("a", ANY)
    query.add_vertex("b", ANY)
    query.add_edge("e", "a", "b", label)
    return query


def predicate_queries(count):
    queries = {f"hot{i}": one_edge_query(Prefix(f"10{i}")) for i in range(8)}
    queries.update({f"wild{i}": one_edge_query(ANY) for i in range(2)})
    for i in range(count - len(queries)):
        queries[f"cold{i:05d}"] = one_edge_query(Prefix(f"3{i:06d}"))
    return queries


def traced(push):
    """``push()`` under a line tracer: its result and how many lines of
    Python it executed."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    with collector_paused():
        sys.settrace(tracer)
        try:
            result = push()
        finally:
            sys.settrace(None)
    return result, lines


def traced_push(count, edges):
    """Register the first ``count`` predicate queries, then ``push_many``
    the edges under the tracer: the session, its answer and the lines."""
    session = Session(window=400.0)
    for name, query in predicate_queries(count).items():
        session.register(name, query)
    tagged, lines = traced(lambda: session.push_many(edges))
    return session, Counter(tagged), lines


def traced_standalone(count, edges):
    """The same queries as standalone engines, each pushed every arrival
    under the tracer: their answer and the lines."""
    engines = {name: TimingMatcher(query, 400.0)
               for name, query in predicate_queries(count).items()}
    return traced(lambda: Counter(
        (name, match) for edge in edges
        for name, engine in engines.items() for match in engine.push(edge)))


@pytest.mark.skipif(sys.gettrace() is not None,
                    reason="another tracer (coverage, a debugger) is active")
def test_trie_routing_work_is_flat_in_the_query_count():
    """8x the registered prefix queries, the same arrivals: the trie walk
    costs O(label length) per arrival, so the executed-line count of the
    push is identical.  Counts are compared within one interpreter, never
    against a pinned absolute (line events differ across versions)."""
    edges = port_stream(500)
    small, small_answer, small_lines = traced_push(256, edges)
    large, large_answer, large_lines = traced_push(2048, edges)
    assert small_answer == large_answer and small_answer
    assert (small.session_stats()["routed_pushes"]
            == large.session_stats()["routed_pushes"])
    assert small_lines == large_lines


@pytest.mark.skipif(sys.gettrace() is not None,
                    reason="another tracer (coverage, a debugger) is active")
def test_line_count_sees_the_baseline_grow_with_the_query_count():
    """The instrument of the test above can see O(Q) routing: standalone
    engines, each pushed every arrival, execute twice the lines for twice
    the queries, the answer unchanged — and a session routing the larger
    population answers the same in fewer lines than the smaller
    baseline."""
    edges = port_stream(10)
    small_answer, small_lines = traced_standalone(256, edges)
    large_answer, large_lines = traced_standalone(512, edges)
    assert small_answer == large_answer and small_answer
    assert large_lines > 1.9 * small_lines
    _, answer, lines = traced_push(512, edges)
    assert answer == large_answer
    assert lines < small_lines


# --------------------------------------------------------------------- #
# Registration: the churn of a 1,024-query predicate session — cold
# queries deregistered and registered again between batches, as in
# bench_e2e's session_churn1k.  A pair pays only for what it changes.
# --------------------------------------------------------------------- #

CHURN_PAIRS = 12
COUNTED = ((SlidingWindow, "__init__"), (_SubplanProvider, "__init__"),
           (QueryGraph, "is_weakly_connected"))


def test_a_churn_pair_builds_each_object_once(monkeypatch):
    """A one-edge engine is built on its window group's view (no private
    window), takes no sub-plan provider (the stateless plan stores
    nothing to share), and a query object validated once is not checked
    for connectivity again.  The prefix index gains and loses one node
    per pattern, however little of the pattern it shares: the churned
    prefixes are cold ("2…", no port starts with it) and share only
    their first two characters.  The answer is the unchurned
    session's."""
    queries = predicate_queries(1024 - CHURN_PAIRS)
    churned = {f"stray{i:02d}": one_edge_query(Prefix(f"2{i:02d}9999"))
               for i in range(CHURN_PAIRS)}
    queries.update(churned)
    edges = port_stream(400)
    reference = Session(window=400.0)
    session = Session(window=400.0)
    for target in (reference, session):
        for name, query in queries.items():
            target.register(name, query)
    expected = Counter(reference.push_many(edges))
    answer = Counter(session.push_many(edges[:200]))
    counts = Counter()
    for owner, method in COUNTED:
        def counting(*args, _original=getattr(owner, method),
                     _key=f"{owner.__name__}.{method}", **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, method, counting)
    router = session._index.router
    steps = []
    for name in churned:
        before = router.node_count()
        session.deregister(name)
        removed = router.node_count()
        session.register(name, queries[name])
        steps += [before - removed, router.node_count() - removed]
    answer.update(session.push_many(edges[200:]))
    assert answer == expected and answer
    assert counts["SlidingWindow.__init__"] == 0, counts
    assert counts["_SubplanProvider.__init__"] == 0, counts
    assert counts["QueryGraph.is_weakly_connected"] == 0, counts
    assert steps == [1] * (2 * CHURN_PAIRS)
