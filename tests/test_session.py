"""Session facade: registration, fan-out, sinks, ingestion, checkpointing.

The acceptance round-trip for the API redesign lives here: register a DSL
query → push edges → sink receives matches → checkpoint → restore →
identical ``current_matches()``.
"""

import io
import json

import pytest

from repro import (
    EngineConfig, EngineStats, JSONLSink, ListSink, Session, StreamEdge,
    TimingMatcher,
)
from repro.io.csv_stream import write_stream
from repro.persistence import load_session, save_session

from .conftest import (
    fig3_stream, fig5_query, make_edge, observe, path_query,
)

TWO_HOP_DSL = """
# two-hop chain with a timing order
vertex a A
vertex b B
vertex c C
edge e1 a -> b
edge e2 b -> c
order e1 < e2
window 6
"""


def two_hop_stream():
    rows = [("a1", "b1", 1.0, "A", "B"), ("b1", "c1", 2.0, "B", "C"),
            ("a2", "b1", 3.0, "A", "B"), ("b1", "c2", 4.0, "B", "C")]
    return [StreamEdge(src, dst, src_label=sl, dst_label=dl, timestamp=ts)
            for src, dst, ts, sl, dl in rows]


class TestRegistration:
    def test_register_from_query_graph(self):
        session = Session(window=9.0)
        engine = session.register("fig5", fig5_query())
        assert "fig5" in session and len(session) == 1
        assert session.matcher("fig5") is engine

    def test_register_from_dsl_text_uses_window_hint(self):
        session = Session()
        engine = session.register("chain", TWO_HOP_DSL)
        assert engine.window.duration == 6.0

    def test_explicit_window_overrides_dsl_hint(self):
        session = Session()
        engine = session.register("chain", TWO_HOP_DSL, window=2.5)
        assert engine.window.duration == 2.5

    def test_register_from_file(self, tmp_path):
        path = tmp_path / "chain.tq"
        path.write_text(TWO_HOP_DSL)
        session = Session()
        engine = session.register_file("chain", str(path))
        assert engine.window.duration == 6.0

    def test_no_window_anywhere_is_an_error(self):
        session = Session()
        with pytest.raises(ValueError, match="no window"):
            session.register("fig5", fig5_query())

    def test_duplicate_name_rejected(self):
        session = Session(window=9.0)
        session.register("q", fig5_query())
        with pytest.raises(ValueError, match="already registered"):
            session.register("q", fig5_query())

    def test_deregister(self):
        session = Session(window=9.0)
        session.register("q", fig5_query())
        session.deregister("q")
        assert len(session) == 0
        with pytest.raises(KeyError):
            session.deregister("q")

    def test_nonpositive_default_window_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Session(window=0)

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, window):
        """Both at construction and per query: a window that never
        expires anything would hold every arrival forever."""
        with pytest.raises(ValueError, match="positive and finite"):
            Session(window=window)
        session = Session(window=9.0)
        with pytest.raises(ValueError, match="positive and finite"):
            session.register("q", fig5_query(), window=window)
        assert len(session) == 0

    def test_policy_object_default_names_the_group(self):
        """A policy object as the default window only names the window
        group: every query reads the group's shared buffer, and the
        object itself stays empty."""
        from repro import CountSlidingWindow
        policy = CountSlidingWindow(10)
        session = Session(window=policy)
        session.register("a", path_query(1, labels="ab"))
        session.register("b", path_query(1, labels="ab"))
        session.push(make_edge("a1", "b1", 1.0))
        assert list(session._admission.groups) == [("count", 10)]
        assert len(policy) == 0
        assert session.result_counts() == {"a": 1, "b": 1}
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert type(restored.default_window) is CountSlidingWindow
        assert restored.default_window.capacity == 10
        restored.register("c", path_query(1, labels="ab"))
        assert list(restored._admission.groups) == [("count", 10)]

    def test_one_policy_object_backs_two_queries(self):
        """One registered object backs two queries in one window group,
        and the session round-trips a checkpoint."""
        from repro import CountSlidingWindow
        shared = CountSlidingWindow(10)
        session = Session()
        a = session.register("a", TWO_HOP_DSL, window=shared)
        b = session.register("b", TWO_HOP_DSL, window=shared)
        assert a.window is not shared and b.window is not shared
        session.push_many(two_hop_stream())
        assert len(shared) == 0
        assert list(session._admission.groups) == [("count", 10)]
        assert session.result_counts() == {"a": 3, "b": 3}
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert list(restored._admission.groups) == [("count", 10)]
        assert restored.current_matches() == session.current_matches()

    @pytest.mark.parametrize("case, error, message", [
        ("bool", TypeError, "window must be a duration or a window policy"),
        ("negative", ValueError, "window duration must be positive"),
        ("none", ValueError, "no window for query 'q'"),
        ("taken", ValueError, "query already registered: 'first'"),
    ])
    def test_registration_mistakes_raise_typed_errors(
            self, case, error, message):
        """Registration resolution is one function, and a mistake names
        itself without touching the registered queries."""
        from repro import CountSlidingWindow
        session = Session()
        policy = CountSlidingWindow(10)
        session.register("first", path_query(1), window=policy)
        name, window = {
            "bool": ("q", True), "negative": ("q", -1),
            "none": ("q", None),
            "taken": ("first", 5.0)}[case]
        with pytest.raises(error, match=message):
            session.register(name, path_query(1), window=window)
        # The DSL's own window line is honoured, too.
        session.register("chain", TWO_HOP_DSL)
        assert session.matcher("chain").window.duration == 6.0
        assert session.names() == ["first", "chain"]

    def test_window_factory_gives_each_engine_its_own(self):
        from repro import CountSlidingWindow
        session = Session(window=lambda: CountSlidingWindow(10))
        a = session.register("a", path_query(1, labels="ab"))
        b = session.register("b", path_query(1, labels="ab"))
        assert a.window is not b.window
        session.push(make_edge("a1", "b1", 1.0))    # must not collide


class TestBackends:
    def test_all_builtin_backends_agree(self):
        session = Session(window=6.0)
        for backend in ("timing", "sjtree", "incmat", "naive"):
            session.register(backend, TWO_HOP_DSL, window=6.0,
                             backend=backend)
        sink = session.add_sink(ListSink())
        session.push_many(two_hop_stream())
        per_backend = {name: set(sink.for_query(name))
                       for name in session.names()}
        reference = per_backend.pop("timing")
        assert len(reference) == 3
        for name, matches in per_backend.items():
            assert matches == reference, name

    @pytest.mark.parametrize("backend", ["timing", "sjtree", "incmat",
                                         "naive"])
    def test_per_query_duplicate_policy_overrides_session(self, backend):
        session = Session(window=6.0, duplicate_policy="raise")
        # The Timing engine takes its knobs as a config; the baselines
        # as constructor options.
        override = ({"config": EngineConfig(duplicate_policy="skip")}
                    if backend == "timing" else {"duplicate_policy": "skip"})
        engine = session.register("q", TWO_HOP_DSL, backend=backend,
                                  **override)
        assert engine.duplicate_policy == "skip"

    @pytest.mark.parametrize("factory, options", [
        (lambda q, w: MinimalMatcher(), {}),
        (lambda q, w: TimingMatcher(q, w), {"duplicate_policy": "skip"}),
    ], ids=["protocol", "engine-with-options"])
    def test_a_callable_backend_is_refused(self, factory, options):
        """A session member joins a window group and is checkpointed by
        its backend's name, which no factory has: registration refuses
        one — with or without engine options — before anything changes,
        and names what a factory's caller can use instead."""
        session = Session(window=6.0)
        session.register("chain", TWO_HOP_DSL)
        session.push_many(two_hop_stream()[:2])
        before = observe(session)
        with pytest.raises(ValueError) as info:
            session.register("q", TWO_HOP_DSL, backend=factory, **options)
        assert str(info.value) == (
            "backend for query 'q' must be one of ('timing', 'sjtree', "
            "'incmat', 'naive'), not a factory: a session member is "
            "checkpointed by its backend's name.  Standalone engines "
            "(TimingMatcher.from_config, the repro.baselines classes) still "
            "take any window policy")
        assert observe(session) == before
        assert session._next_ordinal == 1

    def test_per_query_config_picks_the_engine(self):
        session = Session(window=6.0)
        engine = session.register(
            "custom", TWO_HOP_DSL,
            config=EngineConfig(storage="independent"))
        assert not engine.use_mstree
        assert session.matcher("custom") is engine

    def test_unknown_backend_rejected(self):
        session = Session(window=6.0)
        with pytest.raises(ValueError, match="unknown backend"):
            session.register("q", TWO_HOP_DSL, backend="quantum")


class MinimalMatcher:
    """A ``Matcher``-conforming object outside ``MatcherBase``."""

    def __init__(self):
        self.stats = EngineStats()

    def push(self, edge):
        return []

    def advance_time(self, timestamp):
        pass


class TestSinksAndCallbacks:
    def test_list_sink_collects_tagged_matches(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        sink = session.add_sink(ListSink())
        returned = session.push_many(two_hop_stream())
        assert sink.records == returned
        assert [name for name, _ in sink.records] == ["chain"] * 3

    def test_query_filtered_sink(self):
        session = Session(window=9.0)
        session.register("fig5", fig5_query())
        session.register("ab", path_query(1, labels="ab"))
        only_fig5 = session.add_sink(ListSink(), query="fig5")
        everything = session.add_sink(ListSink())
        session.push_many(fig3_stream())
        assert {name for name, _ in everything.records} == {"fig5", "ab"}
        assert all(name == "fig5" for name, _ in only_fig5.records)
        assert only_fig5.for_query("fig5") == only_fig5.matches

    def test_deregister_drops_query_filtered_sinks(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        filtered = session.add_sink(ListSink(), query="chain")
        unfiltered = session.add_sink(ListSink())
        session.deregister("chain")
        session.register("chain", TWO_HOP_DSL)   # same name, fresh query
        session.push_many(two_hop_stream())
        assert len(filtered) == 0                # old sink must not revive
        assert len(unfiltered) == 3

    def test_remove_sink(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        sink = session.add_sink(ListSink())
        session.remove_sink(sink)
        session.push_many(two_hop_stream())
        assert len(sink) == 0
        with pytest.raises(ValueError, match="not attached"):
            session.remove_sink(sink)

    def test_set_callback_rewires_after_restore(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL,
                         callback=lambda name, m: None)
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        seen = []
        restored.set_callback("chain",
                              lambda name, m: seen.append((name, m)))
        restored.push_many(two_hop_stream())
        assert len(seen) == 3
        with pytest.raises(KeyError):
            restored.set_callback("ghost", None)

    def test_per_query_callback(self):
        seen = []
        session = Session()
        session.register("chain", TWO_HOP_DSL,
                         callback=lambda name, m: seen.append((name, m)))
        session.push_many(two_hop_stream())
        assert len(seen) == 3

    def test_jsonl_sink_round_trips(self):
        buffer = io.StringIO()
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        sink = session.add_sink(JSONLSink(buffer))
        session.push_many(two_hop_stream())
        records = [json.loads(line)
                   for line in buffer.getvalue().strip().splitlines()]
        assert sink.count == len(records) == 3
        assert {r["query"] for r in records} == {"chain"}
        first = min(records, key=lambda r: r["matched_at"])
        assert first["matched_at"] == 2.0
        assert first["edges"]["e1"]["src"] == "a1"
        assert first["edges"]["e2"]["dst"] == "c1"


class TestStreaming:
    def test_lock_step_timestamps(self):
        session = Session(window=9.0)
        session.register("q", path_query(1))
        session.push(make_edge("a1", "b1", 5.0))
        with pytest.raises(ValueError, match="strictly increase"):
            session.push(make_edge("a2", "b2", 5.0))
        with pytest.raises(ValueError, match="time moves backwards"):
            session.advance_time(4.0)

    def test_ingest_counts_without_materialising(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        sink = session.add_sink(ListSink())
        assert session.ingest(two_hop_stream()) == 3
        assert len(sink) == 3

    def test_ingest_csv(self, tmp_path):
        path = str(tmp_path / "stream.csv")
        write_stream(two_hop_stream(), path)
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        results = session.ingest_csv(path)
        assert len(results) == 3

    def test_ingest_csv_with_edge_id_column_applies_duplicate_policy(
            self, tmp_path):
        path = tmp_path / "dups.csv"
        path.write_text(
            "src,dst,timestamp,src_label,dst_label,label,edge_id\n"
            "a1,b1,1.0,A,B,,flow7\n"
            "a2,b2,2.0,A,B,,flow7\n")     # reused exporter flow id
        session = Session(window=6.0, duplicate_policy="count")
        session.register("chain", TWO_HOP_DSL)
        session.ingest_csv(str(path), collect=False)
        assert session.stats()["chain"]["edges_skipped"] == 1

    def test_write_stream_edge_ids_round_trip(self, tmp_path):
        from repro.io.csv_stream import read_stream
        path = str(tmp_path / "ids.csv")
        edges = [StreamEdge("a1", "b1", src_label="A", dst_label="B",
                            timestamp=1.0, edge_id="flow1"),
                 StreamEdge("a2", "b2", src_label="A", dst_label="B",
                            timestamp=2.0, edge_id="flow2")]
        write_stream(edges, path, edge_ids=True)
        assert [e.edge_id for e in read_stream(path)] == ["flow1", "flow2"]

    def test_ingest_csv_collect_false_returns_count(self, tmp_path):
        path = str(tmp_path / "stream.csv")
        write_stream(two_hop_stream(), path)
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        sink = session.add_sink(ListSink())
        assert session.ingest_csv(path, collect=False) == 3
        assert len(sink) == 3

    def test_duplicate_raise_is_atomic_across_queries(self):
        """A rejected arrival must not be half-ingested: engines with
        shorter windows (whose bearer already expired) stay in lock-step
        with the one that raised."""
        session = Session()
        short = session.register("short", path_query(1, labels="AB"),
                                 window=5.0)
        long = session.register("long", path_query(1, labels="AB"),
                                window=50.0)
        dup = StreamEdge("a1", "b1", src_label="A", dst_label="B",
                         timestamp=0.0, edge_id="X")
        session.push(dup)
        late = StreamEdge("a2", "b2", src_label="A", dst_label="B",
                          timestamp=10.0, edge_id="X")
        # short's bearer would expire by t=10; long's is live and raises.
        with pytest.raises(ValueError, match="no query ingested"):
            session.push(late)
        # The rejection was entirely side-effect-free: windows untouched,
        # clock untouched.
        assert len(short.window) == len(long.window) == 1
        assert short.stats.edges_seen == long.stats.edges_seen == 1
        assert session.current_time == 0.0
        # A corrected feed may retry any later timestamp with a fresh id.
        retry = StreamEdge("a2", "b2", src_label="A", dst_label="B",
                           timestamp=5.5, edge_id="Y")
        session.push(retry)
        assert short.stats.edges_seen == long.stats.edges_seen == 2
        assert len(short.window) == 1          # t=0 bearer expired now
        assert len(long.window) == 2           # both arrivals in-window

    def test_session_duplicate_policy_reaches_engines(self):
        session = Session(window=6.0, duplicate_policy="count")
        session.register("chain", TWO_HOP_DSL)
        session.push(StreamEdge("a1", "b1", src_label="A", dst_label="B",
                                timestamp=1.0, edge_id="dup"))
        session.push(StreamEdge("a2", "b2", src_label="A", dst_label="B",
                                timestamp=2.0, edge_id="dup"))
        assert session.stats()["chain"]["edges_skipped"] == 1

    def test_advance_time_drains_all(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL)
        session.push_many(two_hop_stream())
        session.advance_time(100.0)
        assert session.space_cells() == 0
        assert all(count == 0 for count in session.result_counts().values())


class TestCheckpointRestore:
    def test_acceptance_round_trip(self, tmp_path):
        """register DSL → push → sink receives → checkpoint → restore →
        identical current_matches()."""
        path = str(tmp_path / "session.ckpt")
        stream = two_hop_stream()

        session = Session()
        session.register("chain", TWO_HOP_DSL)
        sink = session.add_sink(ListSink())
        session.push_many(stream[:2])
        assert len(sink) == 1                      # the t=2 match arrived
        session.checkpoint(path)

        restored = Session.restore(path)
        assert restored.names() == ["chain"]
        assert restored.current_time == session.current_time
        assert set(restored.current_matches()["chain"]) == \
            set(session.current_matches()["chain"])

        # The restored session continues exactly like the uninterrupted one.
        late_sink = restored.add_sink(ListSink())
        restored_results = restored.push_many(stream[2:])
        assert restored_results == session.push_many(stream[2:])
        assert late_sink.records == restored_results
        assert set(restored.current_matches()["chain"]) == \
            set(session.current_matches()["chain"])

    def test_sinks_and_callbacks_are_not_pickled(self):
        session = Session()
        session.register("chain", TWO_HOP_DSL,
                         callback=lambda name, m: None)
        session.add_sink(ListSink())
        buffer = io.BytesIO()
        save_session(session, buffer)      # lambdas would break pickle
        buffer.seek(0)
        restored = load_session(buffer)
        assert restored._sinks == []
        assert [(name, record.callback)
                for name, record in restored._queries.items()] \
            == [("chain", None)]

    def test_checkpoint_with_window_factory(self):
        """Runtime wiring (a window factory) is dropped, not a pickle
        crash — sinks already set that precedent."""
        from repro import CountSlidingWindow
        session = Session(window=lambda: CountSlidingWindow(10))
        session.register("chain", TWO_HOP_DSL)
        buffer = io.BytesIO()
        session.checkpoint(buffer)               # a lambda inside
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert restored.default_window is None   # factory not captured

    def test_mixed_backend_session_checkpoint(self):
        session = Session(window=6.0)
        session.register("timing", TWO_HOP_DSL)
        session.register("sjtree", TWO_HOP_DSL, backend="sjtree")
        session.push_many(two_hop_stream())
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert restored.result_counts() == session.result_counts()

    def test_engine_checkpoint_accepts_baselines(self):
        """A one-query session is the one checkpoint kind, whatever the
        backend."""
        for backend in ("sjtree", "incmat", "naive"):
            session = Session(window=6.0)
            session.register("q", path_query(2), backend=backend)
            session.push_many(two_hop_stream())
            buffer = io.BytesIO()
            session.checkpoint(buffer)
            buffer.seek(0)
            resumed = Session.restore(buffer)
            assert type(resumed.matcher("q")) is type(session.matcher("q"))
            assert set(resumed.current_matches()["q"]) == \
                set(session.current_matches()["q"])


class TestPaperStream:
    def test_fig3_stream_tags_matches_like_standalone_engines(self):
        """Two queries over the paper's Fig. 3 stream: every result is
        tagged with its query, equals what a standalone engine finds, and
        per-query stats reflect routing."""
        ab = path_query(1, labels="ab")
        session = Session(window=9.0)
        session.register("fig5", fig5_query(),
                         config=EngineConfig(storage="independent"))
        session.register("ab", ab)
        solo = {"fig5": TimingMatcher(fig5_query(), 9.0),
                "ab": TimingMatcher(ab, 9.0)}
        tagged, expected = [], []
        for arrival in fig3_stream():
            tagged.extend(session.push(arrival))
            for name, engine in solo.items():
                expected.extend((name, m) for m in engine.push(arrival))
        assert tagged == expected
        names = [name for name, _ in tagged]
        assert names.count("fig5") == 1       # the paper's match at t=8
        assert names.count("ab") == 2         # a2→b3 (t=6) and a1→b3 (t=8)
        stats = session.stats()["fig5"]
        # 9 of the 10 arrivals: σ10 (d5→e7) hits no (src, dst) label pair
        # of Q, so routing never delivers it to the engine.
        assert stats["edges_seen"] == 9
        assert stats["matches_emitted"] == 1
