"""Python frames per arrival: each stage of an arrival is one call.

Once routing is decided per bucket, what an arrival costs at this scale
is mostly calls that hand the edge on, so the hot path keeps one frame per
stage: the route (``RouteIndex.targets``, ``PredicateRouter.buckets``
probing inline only the label positions that hold a one-position
token), the admission and its slide (``Admission.admit``,
``WindowBuffer.push``), the expiry hand-off (``Session._on_expired``,
only while the group holds an arrival for expiry), an engine's
``_insert`` / ``_expire`` hooks (aliases of ``insert_edge`` /
``delete_edge``, not forwarding frames), its label match (one generated
probe, projection included), its join filters (plain loops, no
comprehension frame), and no ``Session._deliver`` call for a match
nobody listens to.  A match makes no frame of its own: a decided member's
and the engine's are built as ``Match.__new__`` plus their two slots,
never through ``Match.__init__``.  So a decided arrival on
``session_predicates1k`` is four frames: ``targets``, ``buckets``,
``admit`` and ``push``.

The count is ``sys.setprofile``'s ``call`` events — Python frames; a C
call is not one — per measured arrival, on in-test replicas of the four
in-process shapes the benchmark times, at its ``--quick`` sizes:
``bench_e2e``'s ``session_predicates1k``, ``session_churn1k``,
``session_exact16`` and ``engine_join``.  Each budget is the count that
workload's measured arrivals make on CPython 3.11 (4.05, 19.63, 12.54
and 13.06; with a frame per helper the first, third and fourth made
13.21, 15.89 and 18.40, 13.61 and 15.41 with ``matching_edge_ids`` and
comprehension filters in the engine, the first 7.14 with a hand-off per
slide of a group that holds nothing, and the first two 6.12 and 21.71
with a ``Match.__init__`` frame per match).  Python 3.12 and later
inline list comprehensions (PEP 709), so there the count is lower and
the budget an upper bound.  ``tests/test_served_frame_budget.py`` pins
the served path the same way.

Every edge of these streams is stamped (no explicit ``edge_id``), so
each shape also ends with no id index built in any window
(``tests/test_lazy_id_index.py``): no arrival pays for one.
"""

import random
import sys

from repro import EngineConfig, Session, StreamEdge, TimingMatcher
from repro.datasets import (
    generate_netflow_stream, generate_query_set, window_slice,
)
from repro.graph.stream import GraphStream

from .test_ablation_counts import (
    collector_paused, port_stream, predicate_queries,
)
from .test_logical_checkpoint import engine_join_inputs


def calls_per_arrival(feed, edges, warmup, batch):
    """Feed ``edges[:warmup]`` untraced, then the rest ``batch`` edges
    at a time under a profiler: the Python calls per measured arrival
    (the per-batch calls included)."""
    feed(edges[:warmup])
    measured = edges[warmup:]
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    with collector_paused():    # a finaliser would add frames
        sys.setprofile(profiler)
        try:
            for start in range(0, len(measured), batch):
                feed(measured[start:start + batch])
        finally:
            sys.setprofile(previous)
    return calls / len(measured)


def no_id_index(session):
    """Whether no window group of ``session`` has built its id index."""
    return all(group.window._bearers is None
               for group in session._admission.groups.values())


def test_prefix_and_wildcard_session():
    """1,024 one-edge prefix/wildcard queries on a 400-unit window, one
    port-labelled edge per time unit: an arrival is the route and the
    admission; its two ``Match`` objects (the wildcards') make no frame.
    No member stores an edge, so no slide hands an expired prefix
    down."""
    session = Session(window=400.0)
    for name, query in predicate_queries(1024).items():
        session.register(name, query)
    calls = calls_per_arrival(session.push_many, port_stream(6400),
                              4000, 48)
    assert calls <= 4.05
    assert no_id_index(session)


def test_churned_prefix_session():
    """``session_churn1k``'s shape: the same session and stream, 24 edges
    a batch, with 12 cold queries deregistered and registered again
    before each measured batch.  The churn's frames count per arrival
    too; a pair that empties no label position and fills none leaves
    the router's live positions as they are."""
    queries = predicate_queries(1024)
    session = Session(window=400.0)
    for name, query in queries.items():
        session.register(name, query)
    batches = iter(range(-1, 10**6))     # -1: the untraced warm-up

    def feed(batch):
        index = next(batches)
        if index >= 0:
            for i in range(12):
                name = f"cold{(index * 12 + i) % 1014:05d}"
                session.deregister(name)
                session.register(name, queries[name])
        session.push_many(batch)

    calls = calls_per_arrival(feed, port_stream(5200), 4000, 24)
    assert calls <= 19.63
    assert no_id_index(session)


def exact_session_inputs(length):
    """``session_exact16``'s 16 four-edge, full-timing-order queries with
    concrete ``(dst-port, protocol)`` labels, walked out of the first
    24,000 edges of its netflow stream (same pinned generator seeds), and
    the first ``length`` edges of that stream."""
    raw = generate_netflow_stream(length, seed=7, num_ips=150,
                                  extra_ports=200, port_alpha=0.8)
    stream = [StreamEdge(e.src, e.dst, src_label=e.src_label,
                         dst_label=e.dst_label, timestamp=e.timestamp,
                         label=(e.label[1], e.label[2])) for e in raw]
    population = window_slice(GraphStream(stream[:24000]), 300)
    variants = generate_query_set(population, sizes=[4], per_size=16,
                                  rng=random.Random(3))
    queries = {f"q{i:02d}": query
               for i, query in enumerate(variants[0::5][:16])}
    assert len(queries) == 16
    return queries, stream


def test_exact_label_session():
    """16 exact-label stored-plan queries on a 2,000-unit window: most
    arrivals reach no engine, and those that do pay the engine's own
    Algorithm 1 and 2 frames, not a hook forwarding to them."""
    queries, stream = exact_session_inputs(30400)
    session = Session(window=2000.0, config=EngineConfig())
    for name, query in queries.items():
        session.register(name, query)
    calls = calls_per_arrival(session.push_many, stream, 24000, 128)
    assert calls <= 12.54
    assert no_id_index(session)


def test_standalone_join_engine():
    """``engine_join``'s shape: one k≥2 Timing engine over a 1,500-unit
    window, its source ports wildcarded, pushed edge by edge."""
    query, window, stream = engine_join_inputs(14000)
    engine = TimingMatcher(query, window, config=EngineConfig())
    assert engine.k >= 2

    def feed(batch):
        for edge in batch:
            engine.push(edge)

    calls = calls_per_arrival(feed, stream, 10000, 80)
    assert engine.stats.expired_edges > 10000
    assert calls <= 13.06
    assert engine.window._bearers is None
