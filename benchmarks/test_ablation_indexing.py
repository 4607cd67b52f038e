"""Indexing ablation: hash join-key indexes vs paper-faithful full scans.

This repo's addition to the paper's ablation family (fig21-style): the same
Timing engine with ``indexing="hash"`` (join-key buckets, O(candidates) per
arrival) against ``indexing="scan"`` (Theorem 3's O(|Lᵢ₋₁|) full scans),
on both storage layouts, swept over fig15's window axis where scan cost
grows and index cost does not.

Expected shape: identical answer counts everywhere (the index is a pure
optimisation), with the hash engines' throughput advantage widening as the
window grows.  At this suite's deliberately tiny scale the advantage is
modest.  This is the only place the hash/scan wall-clock ratio is still
recorded, and only when the figure suite is run; what tier-1 gates is
the work behind it — ``tests/test_ablation_counts.py`` asserts hash
evaluates fewer join predicates than scan on these same datasets.
"""

import pytest

from repro.bench.reporting import format_series_table, write_result

from ._sweeps import indexing_sweep
from ._util import gmean_tail, timing_micro_run

PAIRS = [("Timing", "Timing-SCAN"), ("Timing-IND", "Timing-IND-SCAN")]


@pytest.mark.benchmark(group="ablation-indexing")
def test_indexing_ablation(all_workloads, benchmark):
    throughput = {}
    names = [name for pair in PAIRS for name in pair]
    for wl in all_workloads:
        sweep = indexing_sweep(wl)
        # Deterministic part of the claim: indexing never changes the
        # answer — per window size and per query, the emitted match counts
        # of the hash and scan variants are identical.
        for hashed, scanned in PAIRS:
            assert sweep.answers[hashed] == sweep.answers[scanned], wl.name
        for name in names:
            throughput.setdefault(name, []).append(
                gmean_tail(sweep.throughput[name]))
    xs = [wl.name for wl in all_workloads]
    table = format_series_table(
        "Indexing ablation — throughput", "dataset", xs, throughput,
        note="edges/second, window-sweep tail geometric mean")
    print("\n" + table)
    write_result("ablation_indexing", table)

    # Measured part (soft, noise-tolerant at this scale): the indexed
    # engines are competitive with or better than their scanning twins.
    for hashed, scanned in PAIRS:
        mean_hash = sum(throughput[hashed]) / len(xs)
        mean_scan = sum(throughput[scanned]) / len(xs)
        assert mean_hash > 0.75 * mean_scan, (hashed, mean_hash, mean_scan)

    benchmark.pedantic(timing_micro_run(all_workloads[0]),
                       rounds=3, iterations=1)
