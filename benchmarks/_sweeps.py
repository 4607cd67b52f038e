"""Memoised parameter sweeps shared between figure benchmarks.

Figure pairs share their underlying experiment (15/17 = one window sweep
measuring throughput *and* space; 16/18 = one query-size sweep; 23/24 = one
decomposition-size sweep), exactly as in the paper where each run reports
both metrics.  The sweeps are computed once per dataset and cached for the
whole pytest session.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.harness import ABLATIONS, METHODS, SweepResult
from repro.concurrency.simulation import ConcurrencySimulator, collect_trace
from repro.core.engine import TimingMatcher

from .conftest import (
    DEFAULT_SIZE, DEFAULT_WINDOW, K_VALUES, QUERY_SIZES, WINDOW_UNITS,
    Workload,
)

_cache: Dict[Tuple, object] = {}


def _sweep(workload: Workload, methods, xs, queries_for_x,
           window_units_for_x) -> SweepResult:
    result = SweepResult(xs)
    edges = workload.run_edges()
    for x in xs:
        queries = queries_for_x(x)
        units = window_units_for_x(x)
        duration = workload.window_duration(units)
        for name, factory in methods.items():
            runs = []
            for query in queries:
                engine = factory(query, duration)
                from repro.bench.metrics import run_stream
                runs.append(run_stream(engine, edges, name=name))
            result.record(name, runs)
    return result


def window_sweep(workload: Workload) -> SweepResult:
    """Figs. 15 & 17: all methods, window ∈ WINDOW_UNITS, fixed query size."""
    key = ("window", workload.name)
    if key not in _cache:
        _cache[key] = _sweep(
            workload, METHODS, WINDOW_UNITS,
            queries_for_x=lambda x: workload.queries(DEFAULT_SIZE),
            window_units_for_x=lambda x: x)
    return _cache[key]


def size_sweep(workload: Workload) -> SweepResult:
    """Figs. 16 & 18: all methods, query size ∈ QUERY_SIZES, fixed window."""
    key = ("size", workload.name)
    if key not in _cache:
        _cache[key] = _sweep(
            workload, METHODS, QUERY_SIZES,
            queries_for_x=lambda x: workload.queries(x),
            window_units_for_x=lambda x: DEFAULT_WINDOW)
    return _cache[key]


def k_sweep(workload: Workload) -> SweepResult:
    """Figs. 23 & 24: all methods, decomposition size k, fixed size 6."""
    key = ("k", workload.name)
    if key not in _cache:
        xs = [k for k in K_VALUES
              if workload.queries_with_k(6, k)]
        _cache[key] = _sweep(
            workload, METHODS, xs,
            queries_for_x=lambda k: workload.queries_with_k(6, k),
            window_units_for_x=lambda k: DEFAULT_WINDOW)
    return _cache[key]


def ablation_sweep(workload: Workload) -> SweepResult:
    """Fig. 21: Timing vs Timing-RJ/RD/RDJ at the fixed default window."""
    key = ("ablation", workload.name)
    if key not in _cache:
        _cache[key] = _sweep(
            workload, ABLATIONS, [DEFAULT_WINDOW],
            queries_for_x=lambda x: workload.queries(DEFAULT_SIZE),
            window_units_for_x=lambda x: x)
    return _cache[key]


def speedup_curves(workload: Workload, *, x_axis: str,
                   threads=(1, 2, 3, 4, 5)) -> Dict:
    """Figs. 19 & 20: simulated speed-up per protocol over window/query size."""
    key = ("speedup", workload.name, x_axis)
    if key not in _cache:
        xs = WINDOW_UNITS if x_axis == "window" else QUERY_SIZES
        fine: Dict[int, List[float]] = {n: [] for n in threads}
        coarse: Dict[int, List[float]] = {n: [] for n in threads}
        edges = workload.run_edges()
        for x in xs:
            units = x if x_axis == "window" else DEFAULT_WINDOW
            size = DEFAULT_SIZE if x_axis == "window" else x
            query = workload.queries(size)[2]     # the random-order variant
            matcher = TimingMatcher(query, workload.window_duration(units))
            traces = collect_trace(matcher, edges)
            sim = ConcurrencySimulator(traces)
            base = sim.makespan(1)
            for n in threads:
                fine[n].append(base / sim.makespan(n))
                coarse[n].append(base / sim.makespan(n, all_locks=True))
        _cache[key] = {"xs": xs, "fine": fine, "coarse": coarse}
    return _cache[key]
