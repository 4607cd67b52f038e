"""The sharded facade's own surface.

That a :class:`~repro.concurrency.sharding.ShardedSession` — thread or
process shards, either transport, killed and restored — answers exactly
what the naive matcher answers is ``tests/test_session_model.py``'s job.
Pinned here: dispatch and configuration, what registration refuses, stable
shard assignment, matcher access, closing, sinks and callbacks, an emptied
shard, per-shard sharing, the transports' reporting and the oversized-batch
fallback, and what a checkpoint drops.
"""

import io

import pytest

from repro import (
    CountSlidingWindow, EngineConfig, Session, ShardedSession, StreamEdge,
)
from repro.concurrency.sharding import shard_of

from .conftest import labeled_path_query, labeled_stream

def make_session(mode, shards=2, **kwargs):
    return Session(sharding=mode, shards=shards, **kwargs)


class TestFacadeSurface:
    def test_dispatch_via_config_and_shorthand(self):
        session = Session(config=EngineConfig(sharding="thread", shards=2))
        assert isinstance(session, ShardedSession)
        session.close()
        session = Session(sharding="thread")
        assert isinstance(session, ShardedSession)
        session.close()
        assert not isinstance(Session(), ShardedSession)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sharding"):
            EngineConfig(sharding="cluster").validate()
        with pytest.raises(ValueError, match="shards"):
            EngineConfig(sharding="thread", shards=0).validate()

    def test_registration_restrictions(self):
        session = make_session("thread")
        with pytest.raises(ValueError, match="factory backends"):
            session.register("f", labeled_path_query(1),
                             window=5.0, backend=lambda q, w: None)
        class OwnWindow(CountSlidingWindow):
            pass

        with pytest.raises(ValueError, match="shareable window"):
            session.register("p", labeled_path_query(1),
                             window=OwnWindow(10))
        prefilled = CountSlidingWindow(10)
        prefilled.push(StreamEdge("a", "b", src_label="A", dst_label="B",
                                  timestamp=1.0))
        with pytest.raises(ValueError, match="already holds 1 edge"):
            session.register("p", labeled_path_query(1), window=prefilled)
        assert session.names() == []
        session.close()

    def test_assignments_are_stable_hashes(self):
        session = make_session("thread", shards=3)
        names = [f"q{i}" for i in range(7)]
        for name in names:
            session.register(name, labeled_path_query(1), window=5.0)
        assert session.names() == names
        assert len(session) == 7 and "q3" in session
        assert session.shard_assignments() == {
            name: shard_of(name, 3) for name in names}
        session.close()

    def test_matcher_access(self):
        for mode in ("thread", "process"):
            session = make_session(mode, window=6.0)
            session.register("q", labeled_path_query(1, elabels=("x",)))
            session.push_many(labeled_stream(3, 60))
            matcher = session.matcher("q")
            assert matcher.result_count() == \
                session.result_counts()["q"]
            with pytest.raises(KeyError):
                session.matcher("nope")
            session.close()

    def test_register_return_value(self):
        session = make_session("thread")
        matcher = session.register("q", labeled_path_query(1), window=5.0)
        assert matcher is not None and matcher.query is not None
        session.close()
        session = make_session("process")
        assert session.register("q", labeled_path_query(1),
                                window=5.0) is None
        session.close()

    def test_close_is_idempotent_and_blocks_use(self):
        with make_session("thread") as session:
            session.register("q", labeled_path_query(1), window=5.0)
            session.push_many(labeled_stream(5, 50))
        session.close()
        for use in (lambda: session.push_many(labeled_stream(5, 10)),
                    lambda: session.register("r", labeled_path_query(1),
                                             window=5.0),
                    session.result_counts):
            with pytest.raises(RuntimeError, match="closed"):
                use()

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
        session.close()


class TestShards:
    def test_last_matcher_on_shard_deregisters(self):
        """A shard emptied mid-stream releases its subscriptions and
        stops receiving arrivals."""
        # Craft names so one shard holds exactly one query.
        pool = [f"q{i}" for i in range(40)]
        majority = [n for n in pool if shard_of(n, 2) == 0][:3]
        (minority,) = [n for n in pool if shard_of(n, 2) == 1][:1]
        edges = labeled_stream(29, 400)
        session = make_session("thread", window=6.0)
        for name in majority:
            session.register(name, labeled_path_query(2, elabels=("x", "y")))
        session.register(minority, labeled_path_query(1, elabels=("z",)))
        session.push_many(edges[:200])
        session.deregister(minority)
        at_dereg = session.session_stats()["per_shard"][1]
        assert at_dereg["queries"] == 0
        assert at_dereg["edges_received"] > 0       # it was participating
        session.push_many(edges[200:])
        after = session.session_stats()["per_shard"][1]
        # The emptied shard stopped receiving arrivals the moment its
        # routing entries died with its last matcher.
        assert after["edges_received"] == at_dereg["edges_received"]
        session.close()

    def test_subplan_sharing_is_per_shard(self):
        """Stores never cross a shard boundary: one record per shard
        hosting a consumer of the shape."""
        names = [f"q{i}" for i in range(6)]
        session = make_session("thread", window=6.0)
        for name in names:
            session.register(name, labeled_path_query(2, elabels=("x", "y")))
        session.push_many(labeled_stream(41, 350))
        stats = session.session_stats()
        assert stats["shared_subplans"] == len(
            {shard_of(name, 2) for name in names})
        assert stats["subplan_consumers"] == 6
        session.close()


class TestTransports:
    def test_transport_validation_and_shorthand(self):
        with pytest.raises(ValueError, match="transport"):
            EngineConfig(transport="carrier-pigeon").validate()
        session = Session(sharding="process", transport="pipe")
        try:
            assert session.config.transport == "pipe"
            assert session.session_stats()["transport"] == "pipe"
            assert all(shard["transport"] == "pipe"
                       for shard in session.session_stats()["per_shard"])
        finally:
            session.close()

    def test_thread_mode_reports_inline_transport(self):
        session = make_session("thread")
        try:
            assert session.session_stats()["transport"] == "inline"
        finally:
            session.close()

    def test_oversized_batch_rides_the_pipe_in_order(self):
        # Unique multi-KiB vertex ids make one batch outgrow the 1 MiB
        # data ring: the facade must fall back to pickling that batch
        # without reordering it against ring traffic.
        big = "vertex-" * 480                       # ~3.4 KiB per id
        edges = [StreamEdge(big + f"s{i}", big + f"t{i}", src_label="A",
                            dst_label="B", timestamp=float(i), label="x")
                 for i in range(300)]
        session = make_session("process", window=50.0, transport="shm")
        session.register("fat", labeled_path_query(1, elabels=("x",)))
        tagged = session.push_many(edges[:5])
        tagged += session.push_many(edges[5:])
        assert [match.earliest_timestamp() for _, match in tagged] \
            == [edge.timestamp for edge in edges]
        assert session.result_counts() == {"fat": 50}
        session.close()


class TestCheckpoint:
    def test_checkpoint_drops_sinks_and_callbacks(self):
        session = make_session("thread", window=6.0)
        session.register("q", labeled_path_query(1, elabels=("x",)),
                         callback=lambda n, m: None)
        session.add_sink(lambda n, m: None)
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        session.close()
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert restored._sinks == []
        assert [(name, record.callback)
                for name, record in restored._queries.items()] \
            == [("q", None)]
        restored.set_callback("q", lambda n, m: None)
        restored.close()
