"""Differential property suite: sharded sessions ≡ ``sharding="none"``.

A :class:`~repro.concurrency.sharding.ShardedSession` is a deployment
transformation — partitioning matchers across worker shards must change
*where* engines run, never *what* they produce.  This suite streams the
scenarios of the routing suite through twin sessions (unsharded vs
``"thread"`` and ``"process"`` shards) and asserts identical ordered
``(name, match)`` streams, result counts, per-engine stats and space,
across both storages, time- and count-based windows, duplicate policies,
mid-stream churn (including a shard whose *last* matcher deregisters),
sub-plan sharing, and checkpoint/restore.

Thread shards carry most scenarios (cheap to spawn); process shards are
exercised on the representative ones — the worker protocol is identical,
only the transport differs.
"""

import io
import os
from collections import Counter

import pytest

from repro import (
    CountSlidingWindow, EngineConfig, Session, ShardedSession, StreamEdge,
)
from repro.concurrency.sharding import shard_of

from .test_session_routing import (
    labeled_path_query, labeled_stream, query_set,
)

MODES = ["thread", "process"]

#: CI sets REPRO_TEST_TRANSPORT=shm|pipe to run the whole differential
#: suite's process-mode scenarios over one shard transport; unset, the
#: engine default applies.
TRANSPORT = os.environ.get("REPRO_TEST_TRANSPORT")


def make_session(mode, shards=2, **kwargs):
    if mode is None:
        return Session(**kwargs)
    if mode == "process" and TRANSPORT and "transport" not in kwargs:
        kwargs["transport"] = TRANSPORT
    return Session(sharding=mode, shards=shards, **kwargs)


def close(session):
    if isinstance(session, ShardedSession):
        session.close()


def run_stream(session, edges, queries=None, **register_options):
    if queries is not None:
        for name, query in queries.items():
            session.register(name, query, **register_options)
    tagged = session.push_many(edges)
    summary = {
        "tagged": tagged,
        "counts": session.result_counts(),
        "matches": {name: Counter(ms)
                    for name, ms in session.current_matches().items()},
        "stats": session.stats(),
        "space": session.space_cells(),
    }
    return summary


def assert_equivalent(base, sharded):
    assert base["tagged"] == sharded["tagged"]          # ordered, not just multiset
    assert base["counts"] == sharded["counts"]
    assert base["matches"] == sharded["matches"]
    assert base["space"] == sharded["space"]
    for name, stats in base["stats"].items():
        other = sharded["stats"][name]
        # Engine-level counters the sharded path must preserve exactly.
        for key in ("edges_matched", "matches_emitted", "edges_skipped",
                    "partial_matches_created"):
            assert stats[key] == other[key], (name, key)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_time_windows_randomized(self, mode, storage):
        edges = labeled_stream(7, 400)
        config = EngineConfig(storage=storage)
        base = run_stream(make_session(None, window=6.0, config=config),
                          edges, query_set())
        session = make_session(mode, window=6.0, config=config)
        sharded = run_stream(session, edges, query_set())
        close(session)
        assert sum(base["counts"].values()) > 0         # non-vacuous
        assert_equivalent(base, sharded)

    @pytest.mark.parametrize("mode", MODES)
    def test_count_windows_randomized(self, mode):
        edges = labeled_stream(11, 400)
        window = lambda: CountSlidingWindow(40)             # noqa: E731
        base = run_stream(make_session(None, window=window), edges,
                          query_set())
        session = make_session(mode, window=window)
        sharded = run_stream(session, edges, query_set())
        close(session)
        assert sum(base["counts"].values()) > 0
        assert_equivalent(base, sharded)

    def test_mixed_window_groups(self):
        """Time and count groups in one session: expiry fan-out and the
        per-group mirrors must not interfere."""
        edges = labeled_stream(13, 350)

        def build(mode):
            session = make_session(mode, shards=3)
            for i, (name, query) in enumerate(query_set().items()):
                window = 5.0 if i % 2 == 0 else CountSlidingWindow(30)
                session.register(name, query, window=window)
            return session

        base_session, sharded_session = build(None), build("thread")
        base = run_stream(base_session, edges)
        sharded = run_stream(sharded_session, edges)
        close(sharded_session)
        assert sum(base["counts"].values()) > 0
        assert_equivalent(base, sharded)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", ["skip", "count"])
    def test_duplicate_policies(self, mode, policy):
        """Replayed in-window ids: stream-level judgement must match the
        unsharded shared session's, including skip accounting."""
        edges = labeled_stream(17, 400, id_pool=25)
        base = run_stream(
            make_session(None, window=8.0, duplicate_policy=policy),
            edges, query_set())
        session = make_session(mode, window=8.0, duplicate_policy=policy)
        sharded = run_stream(session, edges, query_set())
        close(session)
        skipped = sum(s["edges_skipped"] for s in base["stats"].values())
        if policy == "count":
            assert skipped > 0                          # non-vacuous
        assert_equivalent(base, sharded)

    def test_raise_rejection_is_side_effect_free(self):
        session = make_session("thread", window=10.0)
        session.register("q", labeled_path_query(1, elabels=("x",)))
        session.push(StreamEdge("d0", "d1", src_label="A", dst_label="B",
                                timestamp=1.0, label="x", edge_id="dup"))
        with pytest.raises(ValueError, match="duplicate in-window"):
            session.push(StreamEdge(
                "d1", "d2", src_label="B", dst_label="C",
                timestamp=2.0, label="y", edge_id="dup"))
        # The rejected arrival advanced nothing: the clock still accepts
        # any later timestamp and the window holds one edge.
        assert session.current_time == 1.0
        session.push(StreamEdge("d0", "d1", src_label="A", dst_label="B",
                                timestamp=2.5, label="x", edge_id="ok"))
        assert session.result_counts() == {"q": 2}
        close(session)


class TestChurn:
    @pytest.mark.parametrize("mode", MODES)
    def test_register_deregister_midstream(self, mode):
        """Live churn: a query registered mid-stream starts empty, a
        deregistered one stops producing — identically in both layouts."""
        edges = labeled_stream(23, 450)
        thirds = [edges[:150], edges[150:300], edges[300:]]

        def drive(session):
            queries = query_set()
            for name in ("p1x", "p2y", "p2xy", "wild"):
                session.register(name, queries[name])
            tagged = list(session.push_many(thirds[0]))
            session.deregister("p2y")
            session.register("p3", queries["p3"])
            tagged += session.push_many(thirds[1])
            session.deregister("wild")
            tagged += session.push_many(thirds[2])
            summary = {
                "tagged": tagged,
                "counts": session.result_counts(),
                "matches": {n: Counter(ms) for n, ms
                            in session.current_matches().items()},
                "stats": session.stats(),
                "space": session.space_cells(),
            }
            return summary

        base = drive(make_session(None, window=6.0))
        session = make_session(mode, window=6.0, shards=3)
        sharded = drive(session)
        close(session)
        assert sum(base["counts"].values()) > 0
        assert_equivalent(base, sharded)

    def test_last_matcher_on_shard_deregisters(self):
        """A shard emptied mid-stream drains, releases its subscriptions,
        and stops receiving arrivals — results stay equivalent."""
        shards = 2
        # Craft names so one shard holds exactly one query.
        pool = [f"q{i}" for i in range(40)]
        majority = [n for n in pool if shard_of(n, shards) == 0][:3]
        minority = [n for n in pool if shard_of(n, shards) == 1][:1]
        assert len(majority) == 3 and len(minority) == 1
        edges = labeled_stream(29, 400)

        def drive(session):
            for name in majority:
                session.register(name, labeled_path_query(2, elabels=("x", "y")))
            session.register(minority[0], labeled_path_query(1, elabels=("z",)))
            tagged = list(session.push_many(edges[:200]))
            session.deregister(minority[0])
            tagged += session.push_many(edges[200:])
            return tagged, session.result_counts(), session.space_cells()

        base = drive(make_session(None, window=6.0))

        session = make_session("thread", shards=shards, window=6.0)
        for name in majority:
            session.register(name, labeled_path_query(2, elabels=("x", "y")))
        session.register(minority[0], labeled_path_query(1, elabels=("z",)))
        tagged = list(session.push_many(edges[:200]))
        session.deregister(minority[0])
        at_dereg = session.session_stats()["per_shard"][1]
        assert at_dereg["queries"] == 0
        assert at_dereg["edges_received"] > 0       # it was participating
        tagged += session.push_many(edges[200:])
        sharded = (tagged, session.result_counts(), session.space_cells())
        after = session.session_stats()["per_shard"][1]
        # The emptied shard stopped receiving arrivals the moment its
        # routing entries died with its last matcher.
        assert after["edges_received"] == at_dereg["edges_received"]
        close(session)
        assert base == sharded

    def test_mid_stream_registrant_with_duplicates(self):
        """Sharded and unsharded sessions share the *stream-level*
        duplicate view, so churn plus id re-use stays equivalent (the
        refinement that distinguishes shared routing from fanout)."""
        edges = labeled_stream(31, 300, id_pool=40)

        def drive(session):
            queries = query_set()
            counting = session.config.replace(duplicate_policy="count")
            session.register("p1x", queries["p1x"], config=counting)
            tagged = list(session.push_many(edges[:150]))
            session.register("p2xy", queries["p2xy"], config=counting)
            tagged += session.push_many(edges[150:])
            return tagged, session.result_counts(), session.stats()

        base = drive(make_session(None, window=8.0))
        session = make_session("thread", window=8.0)
        sharded = drive(session)
        close(session)
        assert base == sharded


class TestBackendsAndSharing:
    @pytest.mark.parametrize("backend", ["sjtree", "incmat", "naive"])
    def test_baseline_backends(self, backend):
        edges = labeled_stream(37, 200)
        queries = {"a": labeled_path_query(1, elabels=("x",)),
                   "b": labeled_path_query(2, elabels=("x", "y"))}
        base = run_stream(make_session(None, window=5.0), edges,
                          dict(queries), backend=backend)
        session = make_session("thread", window=5.0)
        sharded = run_stream(session, edges, dict(queries), backend=backend)
        close(session)
        assert base["tagged"] == sharded["tagged"]
        assert base["counts"] == sharded["counts"]

    @pytest.mark.parametrize("sharing", ["shared", "private"])
    def test_subplan_sharing_within_shards(self, sharing):
        """Sub-plan sharing keeps working inside each shard (stores never
        cross a shard boundary) and stays answer-invariant."""
        edges = labeled_stream(41, 350)
        config = EngineConfig(subplan_sharing=sharing)
        # Same-shaped queries so same-shard ones share their TC-subquery.
        queries = {f"q{i}": labeled_path_query(2, elabels=("x", "y"))
                   for i in range(6)}
        base = run_stream(make_session(None, window=6.0, config=config),
                          edges, dict(queries))
        session = make_session("thread", window=6.0, config=config)
        sharded = run_stream(session, edges, dict(queries))
        stats = session.session_stats()
        close(session)
        assert base["tagged"] == sharded["tagged"]
        assert base["counts"] == sharded["counts"]
        assert base["matches"] == sharded["matches"]
        if sharing == "private":
            # Private stores are per-engine either way: identical space.
            assert base["space"] == sharded["space"]
        else:
            # Sharing is per *shard*: one store copy per shard hosting a
            # consumer, instead of one session-wide — more than the
            # unsharded shared footprint, never more than private.
            assert stats["shared_subplans"] >= 1
            assert stats["subplan_consumers"] == 6
            assert base["space"] <= sharded["space"]


class TestFacadeSurface:
    def test_dispatch_via_config_and_shorthand(self):
        session = Session(config=EngineConfig(sharding="thread", shards=2))
        assert isinstance(session, ShardedSession)
        close(session)
        session = Session(sharding="thread")
        assert isinstance(session, ShardedSession)
        close(session)
        assert not isinstance(Session(), ShardedSession)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sharding"):
            EngineConfig(sharding="cluster").validate()
        with pytest.raises(ValueError, match="shards"):
            EngineConfig(sharding="thread", shards=0).validate()
        with pytest.raises(ValueError, match="routing"):
            EngineConfig(sharding="thread", routing="fanout").validate()

    def test_registration_restrictions(self):
        session = make_session("thread")
        with pytest.raises(ValueError, match="factory backends"):
            session.register("f", labeled_path_query(1),
                             window=5.0, backend=lambda q, w: None)
        prefilled = CountSlidingWindow(10)
        prefilled.push(StreamEdge("a", "b", src_label="A", dst_label="B",
                                  timestamp=1.0))
        with pytest.raises(ValueError, match="shareable window"):
            session.register("p", labeled_path_query(1), window=prefilled)
        window = CountSlidingWindow(10)
        session.register("ok", labeled_path_query(1), window=window)
        with pytest.raises(ValueError, match="already used"):
            session.register("reuse", labeled_path_query(1), window=window)
        with pytest.raises(ValueError, match="already registered"):
            session.register("ok", labeled_path_query(1), window=5.0)
        close(session)

    def test_assignments_are_stable_hashes(self):
        session = make_session("thread", shards=3)
        names = [f"q{i}" for i in range(7)]
        for name in names:
            session.register(name, labeled_path_query(1), window=5.0)
        assert session.names() == names
        assert len(session) == 7 and "q3" in session
        assert session.shard_assignments() == {
            name: shard_of(name, 3) for name in names}
        close(session)

    def test_matcher_access(self):
        for mode in MODES:
            session = make_session(mode, window=6.0)
            session.register("q", labeled_path_query(1, elabels=("x",)))
            session.push_many(labeled_stream(3, 60))
            matcher = session.matcher("q")
            assert matcher.result_count() == \
                session.result_counts()["q"]
            with pytest.raises(KeyError):
                session.matcher("nope")
            close(session)

    def test_register_return_value(self):
        session = make_session("thread")
        matcher = session.register("q", labeled_path_query(1), window=5.0)
        assert matcher is not None and matcher.query is not None
        close(session)
        session = make_session("process")
        assert session.register("q", labeled_path_query(1),
                                window=5.0) is None
        close(session)

    def test_close_is_idempotent_and_blocks_use(self):
        session = make_session("thread")
        session.register("q", labeled_path_query(1), window=5.0)
        session.close()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.push_many(labeled_stream(5, 10))
        with pytest.raises(RuntimeError, match="closed"):
            session.register("r", labeled_path_query(1), window=5.0)

    def test_context_manager(self):
        with make_session("thread") as session:
            session.register("q", labeled_path_query(1), window=5.0)
            session.push_many(labeled_stream(5, 50))
        with pytest.raises(RuntimeError, match="closed"):
            session.result_counts()

    def test_sinks_and_callbacks(self):
        heard = []
        session = make_session("thread", window=6.0)
        session.register("q", labeled_path_query(1, elabels=("x",)),
                         callback=lambda n, m: heard.append(("cb", n)))
        session.add_sink(lambda n, m: heard.append(("sink", n)))
        delivered = session.ingest(labeled_stream(5, 80))
        assert delivered > 0
        assert heard.count(("cb", "q")) == delivered
        assert heard.count(("sink", "q")) == delivered
        close(session)

    def test_empty_shards_are_harmless(self):
        edges = labeled_stream(9, 120)
        base = run_stream(make_session(None, window=5.0), edges,
                          {"only": labeled_path_query(1, elabels=("x",))})
        session = make_session("thread", shards=4, window=5.0)
        sharded = run_stream(
            session, edges,
            {"only": labeled_path_query(1, elabels=("x",))})
        close(session)
        assert len(base["tagged"]) > 0
        assert_equivalent(base, sharded)


class TestTransports:
    """The shm ring and the pipe fallback must be answer-identical —
    the transport moves bytes, never meaning."""

    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_transport_differential(self, transport):
        edges = labeled_stream(47, 400)
        base = run_stream(make_session(None, window=6.0), edges,
                          query_set())
        session = make_session("process", window=6.0,
                               transport=transport)
        sharded = run_stream(session, edges, query_set())
        stats = session.session_stats()
        close(session)
        assert stats["transport"] == transport
        assert all(p["transport"] == transport
                   for p in stats["per_shard"])
        assert sum(base["counts"].values()) > 0
        assert_equivalent(base, sharded)

    def test_transport_validation_and_shorthand(self):
        with pytest.raises(ValueError, match="transport"):
            EngineConfig(transport="carrier-pigeon").validate()
        session = Session(sharding="process", transport="pipe")
        try:
            assert session.config.transport == "pipe"
            assert session.session_stats()["transport"] == "pipe"
        finally:
            close(session)

    def test_thread_mode_reports_inline_transport(self):
        session = make_session("thread")
        try:
            assert session.session_stats()["transport"] == "inline"
        finally:
            close(session)

    def test_oversized_batch_rides_the_pipe_same_answer(self):
        # Unique multi-KiB vertex ids make one 1024-edge batch outgrow
        # the 1 MiB data ring: the facade must fall back to pickling
        # that batch without reordering it against ring traffic.
        big = "vertex-" * 480                       # ~3.4 KiB per id
        edges = [StreamEdge(big + f"s{i}", big + f"t{i}", src_label="A",
                            dst_label="B", timestamp=float(i), label="x")
                 for i in range(300)]
        queries = {"fat": labeled_path_query(1, elabels=("x",))}
        base = run_stream(make_session(None, window=50.0), edges,
                          dict(queries))
        session = make_session("process", window=50.0, transport="shm")
        sharded = run_stream(session, edges, dict(queries))
        close(session)
        assert len(base["tagged"]) > 0
        assert_equivalent(base, sharded)


class TestCheckpoint:
    @pytest.mark.parametrize("mode", MODES)
    def test_roundtrip_matches_uninterrupted_run(self, mode):
        edges = labeled_stream(43, 300)
        base = run_stream(make_session(None, window=6.0), edges,
                          query_set())

        session = make_session(mode, window=6.0, shards=2)
        for name, query in query_set().items():
            session.register(name, query)
        tagged = list(session.push_many(edges[:150]))
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        close(session)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert isinstance(restored, ShardedSession)
        assert restored.shard_assignments() == {
            name: shard_of(name, 2) for name in query_set()}
        tagged += restored.push_many(edges[150:])
        assert tagged == base["tagged"]
        assert restored.result_counts() == base["counts"]
        assert restored.space_cells() == base["space"]
        close(restored)

    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_restore_preserves_transport(self, transport):
        """Rings die with their processes; restore re-creates them (or
        stays on the pipe) per the checkpointed config."""
        edges = labeled_stream(53, 200)
        base = run_stream(make_session(None, window=6.0), edges,
                          query_set())
        session = make_session("process", window=6.0,
                               transport=transport)
        for name, query in query_set().items():
            session.register(name, query)
        tagged = list(session.push_many(edges[:100]))
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        close(session)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert restored.session_stats()["transport"] == transport
        tagged += restored.push_many(edges[100:])
        close(restored)
        assert tagged == base["tagged"]

    def test_checkpoint_drops_sinks_and_callbacks(self):
        session = make_session("thread", window=6.0)
        session.register("q", labeled_path_query(1, elabels=("x",)),
                         callback=lambda n, m: None)
        session.add_sink(lambda n, m: None)
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        close(session)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert restored._sinks == []
        assert [(name, record.callback)
                for name, record in restored._queries.items()] \
            == [("q", None)]
        restored.set_callback("q", lambda n, m: None)
        close(restored)
