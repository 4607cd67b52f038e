"""repro — Time-Constrained Continuous Subgraph Search over Streaming Graphs.

A from-scratch Python reproduction of Li, Zou, Özsu & Zhao (ICDE 2019):
continuous subgraph-isomorphism search over sliding-window streaming graphs
with timing-order constraints on query edges — grown into a small streaming
pattern-matching system with a unified API.

Quickstart (the :class:`Session` facade)::

    from repro import Session, ListSink

    PATTERN = '''
    vertex a A
    vertex b B
    vertex c C
    edge e1 a -> b
    edge e2 b -> c
    order e1 < e2        # e1's match must arrive before e2's
    window 10
    '''

    session = Session()
    session.register("two-hop", PATTERN)       # from DSL text (or a
    alerts = session.add_sink(ListSink())      # QueryGraph / a .tq file)
    session.push_many(stream_edges)            # any edge iterable / CSV
    for name, match in alerts:
        print(name, match)

Single-query usage (the :class:`~repro.matcher.Matcher` protocol)::

    from repro import EngineConfig, QueryGraph, TimingMatcher

    matcher = TimingMatcher.from_config(query, window=10.0)
    for edge in stream_edges:
        for match in matcher.push(edge):
            print("new match:", match)

All four engines (Timing and the SJ-tree / IncMat / naive baselines)
conform to the same ``Matcher`` protocol, so they interchange anywhere a
matcher is expected — the benchmark harness, and by name in
``Session.register(..., backend=...)``.  Engine knobs live in one :class:`EngineConfig` dataclass.

Subpackages
-----------
``repro.api``
    The session facade: ``Session``, ``ThreadSafeSession`` (re-exports
    ``repro.matcher``).
``repro.matcher``
    The engine-level protocol, below the engines: ``Matcher``,
    ``MatcherBase``, ``EngineConfig``.
``repro.graph``
    Streaming substrate: edges, streams, sliding windows, snapshots.
``repro.core``
    The paper's contribution: TC decomposition, expansion lists, MS-tree,
    the Timing engine.
``repro.isomorphism``
    Static subgraph-isomorphism algorithms (QuickSI/TurboISO/BoostISO
    flavours) used by the baselines.
``repro.baselines``
    SJ-tree, IncMat and naive comparators behind the same ``Matcher``
    protocol.
``repro.sinks``
    Match consumers for sessions: collectors, JSONL writers, printers.
``repro.concurrency``
    S/X-lock concurrency manager (§V) and the speed-up simulator.
``repro.datasets``
    Seeded synthetic workload generators and the query-set generator.
``repro.bench``
    Measurement harness regenerating the paper's figures.
"""

from .api import (
    BACKENDS, DUPLICATE_POLICIES, EngineConfig, EngineStats, Matcher,
    MatcherBase, Session, SharedSubplanStore, ThreadSafeSession, as_window,
)
from .core.engine import TimingMatcher
from .core.matches import Match, verify_match
from .core.plan import explain
from .core.query import ANY, Prefix, QueryGraph
from .core.timing import TimingOrder
from .graph.count_window import CountSlidingWindow
from .graph.edge import StreamEdge
from .graph.shared_window import SharedSlidingWindow, SharedWindowView
from .graph.snapshot import SnapshotGraph
from .graph.stream import GraphStream
from .graph.window import SlidingWindow
from .persistence import load_session, load_session_meta, save_session
from .sinks import JSONLSink, ListSink, RotatingJSONLSink, printing_sink

__version__ = "2.0.0"

__all__ = [
    # queries and streams
    "QueryGraph", "TimingOrder", "ANY", "Prefix",
    "StreamEdge", "GraphStream", "SlidingWindow", "CountSlidingWindow",
    "SharedSlidingWindow", "SharedWindowView", "SnapshotGraph",
    # the unified API
    "Matcher", "MatcherBase", "EngineConfig", "EngineStats", "Session",
    "SharedSubplanStore", "ThreadSafeSession", "BACKENDS",
    "DUPLICATE_POLICIES", "as_window",
    # engines and results
    "TimingMatcher", "Match", "verify_match", "explain",
    # sinks
    "ListSink", "JSONLSink", "RotatingJSONLSink", "printing_sink",
    # persistence
    "save_session", "load_session", "load_session_meta",
    "__version__",
]
