"""Property-based store equivalence: MS-tree ≡ independent, op by op.

Drives both storage backends through identical random operation sequences
(level inserts forming valid prefix extensions, interleaved with FIFO edge
deletions — the oldest live edge, the stores' ``delete_edge`` contract,
which every window delivers) and asserts their observable state —
per-level flat-tuple sets — never diverges.  This isolates the storage
layer from the engine, so a divergence here pins the bug precisely.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mstree import GlobalMSTreeStore, MSTreeTCStore
from repro.core.stores import GlobalIndependentStore, IndependentTCStore
from repro.graph.edge import StreamEdge


def make_edge(serial: int) -> StreamEdge:
    return StreamEdge(f"u{serial}", f"v{serial}", src_label="A",
                      dst_label="B", timestamp=float(serial))


def level_sets(store, length):
    return [frozenset(flat for _, flat in store.read(level))
            for level in range(1, length + 1)]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       length=st.integers(min_value=1, max_value=4),
       n_ops=st.integers(min_value=5, max_value=60))
def test_tc_stores_equivalent_under_random_ops(seed, length, n_ops):
    rng = random.Random(seed)
    ms = MSTreeTCStore(length)
    ind = IndependentTCStore(length)
    # Parallel handle maps: ms handle ↔ ind handle per stored entry.
    entries: List[List[Tuple[object, object, Tuple[StreamEdge, ...]]]] = [
        [] for _ in range(length)]
    live_edges: List[StreamEdge] = []
    serial = 0

    for _ in range(n_ops):
        action = rng.random()
        if action < 0.7 or not live_edges:
            # Insert: pick a level; level 1 is unconditional, deeper levels
            # extend a random existing parent entry.
            level = rng.randint(1, length)
            serial += 1
            edge = make_edge(serial)
            if level == 1:
                hm = ms.insert(1, ms.root, (), edge)
                hi = ind.insert(1, ind.root, (), edge)
                entries[0].append((hm, hi, (edge,)))
                live_edges.append(edge)
            else:
                parents = entries[level - 2]
                if not parents:
                    continue
                hm_p, hi_p, flat = parents[rng.randrange(len(parents))]
                if not all(e in live_edges for e in flat):
                    continue
                hm = ms.insert(level, hm_p, flat, edge)
                hi = ind.insert(level, hi_p, flat, edge)
                entries[level - 1].append((hm, hi, flat + (edge,)))
                live_edges.append(edge)
        else:
            victim = live_edges.pop(0)      # FIFO: the oldest live edge
            ms.delete_edge(victim)
            ind.delete_edge(victim)
            for level_entries in entries:
                level_entries[:] = [
                    (hm, hi, flat) for hm, hi, flat in level_entries
                    if victim not in flat]
        assert level_sets(ms, length) == level_sets(ind, length) == [
            frozenset(flat for _, _, flat in level_entries)
            for level_entries in entries]
        assert [ms.count(l) for l in range(1, length + 1)] == \
            [ind.count(l) for l in range(1, length + 1)]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_global_stores_equivalent_under_random_ops(seed):
    """Two subqueries of lengths 1 and 2; random complete-match inserts into
    the global level-2 list interleaved with FIFO deletions.  Either
    sub-match of an entry may be the older one."""
    rng = random.Random(seed)
    ms_subs = [MSTreeTCStore(1), MSTreeTCStore(2)]
    ind_subs = [IndependentTCStore(1), IndependentTCStore(2)]
    ms_global = GlobalMSTreeStore(ms_subs)
    ind_global = GlobalIndependentStore(ind_subs)

    serial = 0
    q1_matches: List[Tuple[object, object, Tuple[StreamEdge, ...]]] = []
    q2_matches: List[Tuple[object, object, Tuple[StreamEdge, ...]]] = []
    live: List[StreamEdge] = []

    def new_edge():
        nonlocal serial
        serial += 1
        edge = make_edge(serial)
        live.append(edge)
        return edge

    for _ in range(40):
        roll = rng.random()
        if roll < 0.3:
            edge = new_edge()
            hm = ms_subs[0].insert(1, ms_subs[0].root, (), edge)
            hi = ind_subs[0].insert(1, ind_subs[0].root, (), edge)
            q1_matches.append((hm, hi, (edge,)))
        elif roll < 0.6:
            first, second = new_edge(), new_edge()
            hm1 = ms_subs[1].insert(1, ms_subs[1].root, (), first)
            hi1 = ind_subs[1].insert(1, ind_subs[1].root, (), first)
            hm2 = ms_subs[1].insert(2, hm1, (first,), second)
            hi2 = ind_subs[1].insert(2, hi1, (first,), second)
            q2_matches.append((hm2, hi2, (first, second)))
        elif roll < 0.85 and q1_matches and q2_matches:
            hm1, hi1, flat1 = q1_matches[rng.randrange(len(q1_matches))]
            hm2, hi2, flat2 = q2_matches[rng.randrange(len(q2_matches))]
            if all(e in live for e in flat1 + flat2):
                ms_global.insert(2, hm1, flat1, hm2, flat2)
                ind_global.insert(2, hi1, flat1, hi2, flat2)
        elif live:
            victim = live.pop(0)            # FIFO: the oldest live edge
            for store in ms_subs:
                store.delete_edge(victim)
            for store in ind_subs:
                store.delete_edge(victim)
            ind_global.delete_edge(victim)   # MS cascade is automatic
            q1_matches[:] = [(a, b, f) for a, b, f in q1_matches
                             if victim not in f]
            q2_matches[:] = [(a, b, f) for a, b, f in q2_matches
                             if victim not in f]
        got_ms = frozenset(flat for _, flat in ms_global.read(2))
        got_ind = frozenset(flat for _, flat in ind_global.read(2))
        assert got_ms == got_ind
