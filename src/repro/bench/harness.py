"""Comparative benchmark harness: build engines, sweep parameters, average.

The paper's evaluation protocol (§VII-C): for each (dataset, window size,
query size) cell, run every method over the generated query set and report
the *average* throughput and per-window space.  This module provides the
method registry and the sweep loop shared by all figure benchmarks in
``benchmarks/``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..api import EngineConfig, Matcher
from ..baselines.incmat import IncMatMatcher
from ..baselines.sjtree import SJTreeMatcher
from ..core.engine import TimingMatcher
from ..core.query import QueryGraph
from ..graph.stream import GraphStream
from ..isomorphism import BoostISO, QuickSI, TurboISO
from .metrics import RunResult, run_stream

EngineFactory = Callable[[QueryGraph, float], Matcher]


def _timing(config: EngineConfig) -> EngineFactory:
    return lambda q, w: TimingMatcher.from_config(q, w, config)


def _incmat(algorithm_cls) -> EngineFactory:
    return lambda q, w: IncMatMatcher(q, w, algorithm_cls())


#: The paper's six comparative methods (Figs. 15–18, 23–24).  IncMat
#: variants are labelled by their static algorithm, as in the figures.
METHODS: Dict[str, EngineFactory] = {
    "Timing": _timing(EngineConfig(storage="mstree")),
    "Timing-IND": _timing(EngineConfig(storage="independent")),
    "SJ-tree": lambda q, w: SJTreeMatcher(q, w),
    "QuickSI": _incmat(QuickSI),
    "TurboISO": _incmat(TurboISO),
    "BoostISO": _incmat(BoostISO),
}

#: The §VII-E ablation variants (Fig. 21).
ABLATIONS: Dict[str, EngineFactory] = {
    "Timing": _timing(EngineConfig()),
    "Timing-RJ": _timing(EngineConfig(join_order="random", seed=11)),
    "Timing-RD": _timing(EngineConfig(decomposition="random", seed=13)),
    "Timing-RDJ": _timing(EngineConfig(
        decomposition="random", join_order="random", seed=17)),
}

class SweepResult:
    """Per-method series over the sweep's x-axis."""

    def __init__(self, xs: Sequence) -> None:
        self.xs = list(xs)
        self.throughput: Dict[str, List[float]] = {}
        self.space_kb: Dict[str, List[float]] = {}
        self.answers: Dict[str, List[float]] = {}

    def record(self, method: str, runs: List[RunResult]) -> None:
        """Average a batch of per-query runs into the next series point."""
        if not runs:
            raise ValueError("cannot record an empty batch")
        self.throughput.setdefault(method, []).append(
            sum(r.throughput for r in runs) / len(runs))
        self.space_kb.setdefault(method, []).append(
            sum(r.avg_space_kb for r in runs) / len(runs))
        self.answers.setdefault(method, []).append(
            sum(r.matches_emitted for r in runs) / len(runs))


def run_method_over_queries(
    factory: EngineFactory, queries: Sequence[QueryGraph],
    stream: GraphStream, window_units: float, *,
    name: str, max_edges: Optional[int] = None,
) -> List[RunResult]:
    """Run one method over each query in the set, on the same stream."""
    duration = stream.window_units_to_duration(window_units)
    edges = list(stream)
    if max_edges is not None:
        edges = edges[:max_edges]
    runs = []
    for query in queries:
        engine = factory(query, duration)
        runs.append(run_stream(engine, edges, name=name))
    return runs


def comparative_sweep(
    methods: Dict[str, EngineFactory],
    queries_for_x: Callable[[object], Sequence[QueryGraph]],
    stream: GraphStream,
    xs: Sequence,
    window_units_for_x: Callable[[object], float], *,
    max_edges: Optional[int] = None,
) -> SweepResult:
    """Generic sweep: for each x, run every method over its query set.

    ``queries_for_x`` / ``window_units_for_x`` abstract over whether the
    x-axis is window size (fixed queries) or query size (fixed window).
    """
    result = SweepResult(xs)
    for x in xs:
        queries = queries_for_x(x)
        units = window_units_for_x(x)
        for method, factory in methods.items():
            runs = run_method_over_queries(
                factory, queries, stream, units,
                name=method, max_edges=max_edges)
            result.record(method, runs)
    return result
