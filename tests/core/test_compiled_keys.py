"""Generated join-key functions and lazily built fields, differentially.

A join shape's key function is generated once from its ``refs`` and must
equal the interpreted ``tuple(flat[pos].src if is_src else flat[pos].dst
…)`` on every input; a restored engine is built again from its recipe, so
it generates the functions anew and goes on probing the buckets the replay
filled.  ``Match`` builds its identity key on first use and an MS-tree
node its child set with the first child — neither may show in equality,
hashing or (for a match, which crosses the shard pipe) a pickle round
trip.
"""

import io
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig, Session, TimingMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.core.index import (
    LevelIndex, compile_edge_key, compile_flat_key, key_from_edge,
    key_from_flat,
)
from repro.core.matches import Match
from repro.core.mstree import MSTreeTCStore

from ..conftest import make_edge
from .test_serial_path import STREAM, WINDOW, query

WIDTH = 5
flats = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=WIDTH, max_size=WIDTH,
).map(lambda ends: tuple(make_edge(f"v{u}", f"w{v}", float(i + 1))
                         for i, (u, v) in enumerate(ends)))


class TestGeneratedKeyEqualsInterpretedKey:
    @settings(max_examples=200, deadline=None)
    @given(refs=st.lists(st.tuples(st.integers(0, WIDTH - 1), st.booleans()),
                         max_size=6), flat=flats)
    def test_flat_key(self, refs, flat):
        assert compile_flat_key(tuple(refs))(flat) \
            == key_from_flat(refs, flat)
        index = LevelIndex(refs)
        index.add("h", flat)
        assert index.probe(key_from_flat(refs, flat)) == [("h", flat)]
        index.discard("h", flat)
        assert len(index) == 0 and index.bucket_count == 0

    @settings(max_examples=100, deadline=None)
    @given(flags=st.lists(st.booleans(), max_size=4), flat=flats)
    def test_edge_key(self, flags, flat):
        assert compile_edge_key(tuple(flags))(flat[0]) \
            == key_from_edge(flags, flat[0])

    def test_refs_are_positions_not_source(self):
        with pytest.raises(ValueError):
            compile_flat_key((("0].src, __import__('os'", True),))


def all_indexes(engine):
    return [*engine._ext_indexes.values(),
            *engine._union_prefix_indexes.values(),
            *engine._union_omega_indexes.values()]


class TestCheckpointRebuildsTheFunctions:
    CUT = 100     # six matches straddle it

    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_engine_restored_mid_stream(self, storage):
        def build():
            session = Session(window=WINDOW,
                              config=EngineConfig(storage=storage))
            session.register("q", query())
            return session

        whole = build()
        expected = whole.push_many(STREAM)
        first = build()
        got = first.push_many(STREAM[:self.CUT])
        blob = io.BytesIO()
        first.checkpoint(blob)
        blob.seek(0)
        compile_flat_key.cache_clear()      # restore must generate anew
        compile_edge_key.cache_clear()
        resumed = Session.restore(blob)
        second = resumed.matcher("q")
        # Every rebuilt index answers a probe for an entry the replay
        # stored, and holds what the interrupted engine's held.
        restored = all_indexes(second)
        assert len(restored) == 5 and sum(map(len, restored)) > 0
        for before, after in zip(all_indexes(first.matcher("q")), restored):
            assert after.refs == before.refs and len(after) == len(before)
            for bucket in after._buckets.values():
                for handle, flat in bucket.items():
                    assert (handle, flat) in after.probe(
                        key_from_flat(after.refs, flat))
        probes = second.stats.index_probes
        got += resumed.push_many(STREAM[self.CUT:])
        assert second.stats.index_probes > probes
        assert Counter(got) == Counter(expected)
        # … and some later match joined partials stored before the cut.
        cut_at = STREAM[self.CUT].timestamp
        assert any(m.earliest_timestamp() < cut_at <= m.latest_timestamp()
                   for _, m in got)
        assert second.store_profile() == whole.matcher("q").store_profile()
        assert second.stats.as_dict() == whole.matcher("q").stats.as_dict()

    def test_session_restored_mid_stream(self, tmp_path):
        def build():
            session = Session(window=WINDOW)
            session.register("q", query())
            session.register("twin", query())   # shares every sub-plan store
            return session

        expected = build().push_many(STREAM)
        first = build()
        got = first.push_many(STREAM[:self.CUT])
        path = str(tmp_path / "session.ckpt")
        first.checkpoint(path)
        second = Session.restore(path)
        assert sum(map(len, all_indexes(second.matcher("q")))) > 0
        got += second.push_many(STREAM[self.CUT:])
        assert got == expected
        assert second.matcher("twin").stats.subplan_reuses > 0


class TestLazyFields:
    def test_match_identity_across_engines(self):
        timing = TimingMatcher(query(), WINDOW).push_many(STREAM)
        naive = NaiveSnapshotMatcher(query(), WINDOW).push_many(STREAM)
        assert timing and all(m._key is None for m in timing + naive)
        hashed = set(timing)            # materialises timing's keys only
        assert all(m._key is None for m in naive)
        assert all(m in hashed for m in naive) and len(hashed) == len(naive)
        assert Counter(naive) == Counter(timing)
        assert sorted(map(hash, naive)) == sorted(map(hash, timing))

    @pytest.mark.parametrize("materialise_first", [False, True])
    def test_match_pickle_round_trip(self, materialise_first):
        edges = {"e0": make_edge("a1", "b1", 1.0),
                 "e1": make_edge("b1", "c1", 2.0)}
        match, same = Match(edges), Match(dict(reversed(edges.items())))
        other = Match({"e0": edges["e0"], "e1": make_edge("b1", "c2", 3.0)})
        if materialise_first:
            hash(match)
        copy = pickle.loads(pickle.dumps(match))
        assert copy == match == same and hash(copy) == hash(same)
        assert copy != other and match != other
        assert copy.edge_map == match.edge_map
        assert {copy, match, same, other} == {match, other}
        assert match != "not a match"

    def test_child_set_is_created_with_the_first_child(self):
        store = MSTreeTCStore(2)
        edge, later = make_edge("a1", "b1", 1.0), make_edge("b1", "c1", 2.0)
        leaf = store.insert(1, store.root, (), edge)
        assert leaf.children is None and store.root.children == {leaf}
        (node, flat), = store.read(1)
        assert node is leaf and flat == (edge,)
        child = store.insert(2, node, flat, later)      # first child, late
        assert node.children == {child}
        assert store.delete_edge(edge) == 2 and store.is_empty()
