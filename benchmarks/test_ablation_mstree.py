"""Ablation: MS-tree prefix compression measured directly.

DESIGN.md calls out the MS-tree as a distinct design choice; this bench
isolates its effect from the engine benchmarks by comparing, on identical
streams and queries, the stored-cell counts of the two storage backends and
the trie's sharing factor (partial matches per stored node).  The paper's
§IV claim: the MS-tree stores each shared prefix once, so its advantage
grows exactly when expansion lists get deep and bushy (large windows).
"""

import pytest

from repro.bench.metrics import cells_to_kb
from repro.bench.reporting import format_series_table, write_result
from repro.core.engine import EngineConfig, TimingMatcher

from .conftest import DEFAULT_SIZE, WINDOW_UNITS, workload
from ._util import timing_micro_run


@pytest.mark.benchmark(group="ablation")
def test_mstree_compression_grows_with_window(benchmark):
    wl = workload("Wiki-talk")
    edges = wl.run_edges()
    query = wl.queries(DEFAULT_SIZE)[2]          # the random-order variant

    ms_kb, ind_kb, sharing = [], [], []
    for units in WINDOW_UNITS:
        duration = wl.window_duration(units)
        ms = TimingMatcher(query, duration,
                           config=EngineConfig(storage="mstree"))
        ind = TimingMatcher(query, duration,
                            config=EngineConfig(storage="independent"))
        ms_samples, ind_samples, share_samples = [], [], []
        for index, edge in enumerate(edges):
            ms.push(edge)
            ind.push(edge)
            if index % 100 == 0:
                ms_samples.append(ms.space_cells())
                ind_samples.append(ind.space_cells())
                stored = sum(ms.store_profile().values())
                nodes = sum(s.entry_count() for s in ms._tc_stores)
                if ms._global is not None:
                    nodes += ms._global.entry_count()
                share_samples.append(stored / max(1, nodes))
        ms_kb.append(cells_to_kb(int(sum(ms_samples) / len(ms_samples))))
        ind_kb.append(cells_to_kb(int(sum(ind_samples) / len(ind_samples))))
        sharing.append(sum(share_samples) / len(share_samples))

    table = format_series_table(
        "Ablation — MS-tree compression vs independent storage (Wiki-talk)",
        "window (units)", WINDOW_UNITS,
        {"MS-tree KB": ms_kb, "independent KB": ind_kb,
         "matches/node": sharing},
        value_format="{:>12.2f}",
        note="same stream+query per row; matches/node ≥ 1 means prefixes "
             "are shared")
    print("\n" + table)
    write_result("ablation_mstree_compression", table)

    # With deep expansion lists the trie must win, and by more at larger
    # windows (relative savings grow with bushiness).
    assert ms_kb[-1] < ind_kb[-1]
    savings = [1 - m / i for m, i in zip(ms_kb, ind_kb) if i > 0]
    assert savings[-1] >= savings[0] - 0.05
    # matches/node would be exactly 1.0 for a chain trie with no sharing and
    # no auxiliary nodes; global-tree anchor nodes (one per Q¹ match that
    # joined) pull it below 1, prefix sharing pushes it above.  It must stay
    # in a sane band — a collapse would mean the trie stores dead weight.
    assert all(0.7 <= s <= 3.0 for s in sharing)

    benchmark.pedantic(timing_micro_run(wl), rounds=3, iterations=1)
