"""Integration: every engine agrees with the oracle on realistic workloads.

This is the heavyweight cross-validation pass — real dataset generators,
generated queries with mixed timing orders, every engine in the registry —
run at small scale so it stays fast.
"""

import random

import pytest

from repro import EngineConfig, TimingMatcher
from repro.baselines.incmat import IncMatMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.baselines.sjtree import SJTreeMatcher
from repro.isomorphism import QuickSI
from repro.datasets import (
    generate_lsbench_stream, generate_netflow_stream,
    generate_wikitalk_stream, generate_query_set, window_slice,
)


def engines_for(query, window):
    return {
        "Timing": TimingMatcher(query, window),
        "Timing-IND": TimingMatcher(
            query, window, config=EngineConfig(storage="independent")),
        "SJ-tree": SJTreeMatcher(query, window),
        "IncMat-QuickSI": IncMatMatcher(query, window, QuickSI()),
    }


GENERATORS = {
    "wikitalk": (generate_wikitalk_stream, {}, None),
    "lsbench": (generate_lsbench_stream, {}, None),
    "netflow": (generate_netflow_stream, {"num_ips": 40},
                lambda lbl: (__import__("repro").ANY, lbl[1], lbl[2])),
}


@pytest.mark.parametrize("dataset", sorted(GENERATORS))
def test_all_engines_agree_with_oracle(dataset):
    generator, kwargs, generalize = GENERATORS[dataset]
    stream = generator(500, seed=21, **kwargs)
    rng = random.Random(5)
    queries = generate_query_set(window_slice(stream, 150), sizes=[3],
                                 per_size=1, rng=rng,
                                 generalize_label=generalize)
    duration = stream.window_units_to_duration(150)
    edges = list(stream)[:350]
    for query in queries:
        oracle = NaiveSnapshotMatcher(query, duration)
        engines = engines_for(query, duration)
        for edge in edges:
            expected = set(oracle.push(edge))
            for name, engine in engines.items():
                got = set(engine.push(edge))
                assert got == expected, (dataset, name, edge)


def test_mixed_timing_orders_stress():
    """One graph, all five timing-order variants, longer stream, Timing vs
    oracle at every step including current-result parity."""
    stream = generate_wikitalk_stream(900, seed=33)
    rng = random.Random(6)
    queries = generate_query_set(window_slice(stream, 250), sizes=[4],
                                 per_size=1, rng=rng)
    duration = stream.window_units_to_duration(250)
    for query in queries:
        timing = TimingMatcher(query, duration)
        oracle = NaiveSnapshotMatcher(query, duration)
        for edge in list(stream)[:450]:
            assert set(timing.push(edge)) == set(oracle.push(edge))
        assert set(timing.current_matches()) == set(oracle.current_matches())
