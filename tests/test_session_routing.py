"""Differential property suite: ``routing="shared"`` ≡ ``routing="fanout"``.

The shared-stream fast path (session routing index, shared window buffers,
expiry delivered to exactly the engines that ingested the dropped edge) is
a performance transformation — the two modes must produce identical ``(name, match)`` multisets, identical result
counts, and identical per-engine partial-match space.  This suite streams
randomized multi-query scenarios through twin sessions and checks exactly
that, across mixed query sizes, both Timing storages, time- and
count-based windows, expiry, duplicate policies, mid-stream churn, and
checkpoint/restore.  It also pins the invariant the shared path keeps by
construction: no engine ever holds an edge its window has dropped.

One documented exception: shared routing judges in-window duplicate ids
against the *stream* (the shared buffer), so a query registered mid-stream
drops a replayed id it never saw the original of, where fanout's
per-matcher buffering would alert.  That refinement is pinned explicitly
in ``test_mid_stream_registrant_inherits_stream_duplicate_view``; the
differential scenarios therefore never combine mid-stream registration
with in-window id re-use.
"""

import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ANY, CountSlidingWindow, EngineConfig, QueryGraph, Session, StreamEdge,
    TimingMatcher,
)

VLABELS = "ABC"
ELABELS = ("x", "y", "z")


def labeled_stream(seed, n, *, n_vertices=12, dt=0.4, id_pool=None):
    """Seeded stream over a small population with concrete edge labels
    (so label-triple routing has something to discriminate on).  With
    ``id_pool``, edge ids repeat — exercising the duplicate policies."""
    rng = random.Random(seed)
    t = 0.0
    edges = []
    for i in range(n):
        t += rng.random() * dt + 0.01
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u:
            v = rng.randrange(n_vertices)
        edge_id = f"id{i % id_pool}" if id_pool else None
        edges.append(StreamEdge(
            f"d{u}", f"d{v}", src_label=VLABELS[u % 3],
            dst_label=VLABELS[v % 3], timestamp=round(t, 3),
            label=rng.choice(ELABELS), edge_id=edge_id))
    return edges


def labeled_path_query(n_edges, *, vstart=0, elabels=("x",),
                       timing="chain"):
    q = QueryGraph()
    for i in range(n_edges + 1):
        q.add_vertex(f"v{i}", VLABELS[(vstart + i) % 3])
    for i in range(n_edges):
        q.add_edge(f"e{i}", f"v{i}", f"v{i + 1}",
                   label=elabels[i % len(elabels)])
    if timing == "chain":
        q.add_timing_chain(*[f"e{i}" for i in range(n_edges)])
    return q


def query_set():
    """Mixed sizes, mixed label selectivity, one wildcard-bearing query
    (always routed) — fresh QueryGraph objects on every call."""
    return {
        "p1x": labeled_path_query(1, vstart=0, elabels=("x",)),
        "p2y": labeled_path_query(2, vstart=1, elabels=("y",)),
        "p2xy": labeled_path_query(2, vstart=0, elabels=("x", "y")),
        "p3": labeled_path_query(3, vstart=2, elabels=("x", "y", "z")),
        "wild": labeled_path_query(2, vstart=0, elabels=(ANY,)),
    }


def twin_sessions(make_session):
    return {routing: make_session(routing)
            for routing in ("shared", "fanout")}


def assert_sessions_equivalent(shared, fanout):
    assert shared.result_counts() == fanout.result_counts()
    for name in fanout.names():
        sm, fm = shared.matcher(name), fanout.matcher(name)
        assert Counter(sm.current_matches()) == Counter(fm.current_matches()), name
        if isinstance(sm, TimingMatcher):
            # Identical logical partial-match space, per engine.
            assert sm.space_cells() == fm.space_cells(), name
        else:
            # Snapshot baselines drop unroutable edges from their
            # snapshots: same answers, never more memory.
            assert sm.space_cells() <= fm.space_cells(), name


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("storage", ["mstree", "independent"])
    def test_time_windows_randomized(self, storage):
        results = {}
        sessions = twin_sessions(lambda routing: Session(
            window=6.0,
            config=EngineConfig(storage=storage, routing=routing)))
        edges = labeled_stream(7, 400)
        for routing, session in sessions.items():
            for name, query in query_set().items():
                session.register(name, query)
            results[routing] = Counter(session.push_many(edges))
        assert results["shared"] == results["fanout"]
        assert sum(results["shared"].values()) > 0      # non-vacuous
        assert_sessions_equivalent(sessions["shared"], sessions["fanout"])

    def test_count_windows_randomized(self):
        results = {}
        sessions = twin_sessions(lambda routing: Session(
            window=lambda: CountSlidingWindow(40), routing=routing))
        edges = labeled_stream(11, 300)
        for routing, session in sessions.items():
            for name, query in query_set().items():
                session.register(name, query)
            results[routing] = Counter(session.push_many(edges))
        assert results["shared"] == results["fanout"]
        assert_sessions_equivalent(sessions["shared"], sessions["fanout"])

    def test_mixed_time_and_count_windows(self):
        results = {}
        sessions = twin_sessions(
            lambda routing: Session(window=5.0, routing=routing))
        edges = labeled_stream(13, 300)
        for routing, session in sessions.items():
            queries = query_set()
            session.register("p1x", queries["p1x"])
            session.register("p2y", queries["p2y"],
                             window=CountSlidingWindow(30))
            session.register("p2xy", queries["p2xy"], window=9.0)
            session.register("wild", queries["wild"],
                             window=CountSlidingWindow(30))
            results[routing] = Counter(session.push_many(edges))
        shared = sessions["shared"]
        assert results["shared"] == results["fanout"]
        assert_sessions_equivalent(shared, sessions["fanout"])
        # Same-policy queries share one buffer; distinct policies don't.
        assert len(shared._admission.groups) == 3

    def test_baseline_backends_participate(self):
        results = {}
        sessions = twin_sessions(
            lambda routing: Session(window=4.0, routing=routing))
        edges = labeled_stream(17, 120, n_vertices=8)
        for routing, session in sessions.items():
            queries = query_set()
            session.register("timing", queries["p2xy"])
            session.register("naive", labeled_path_query(
                2, vstart=0, elabels=("x", "y")), backend="naive")
            session.register("sjtree", labeled_path_query(
                2, vstart=0, elabels=("x", "y")), backend="sjtree")
            results[routing] = Counter(session.push_many(edges))
        assert results["shared"] == results["fanout"]
        # All three backends agree with each other, too.
        by_name = {}
        for (name, match), count in results["shared"].items():
            by_name.setdefault(name, Counter())[match] += count
        assert by_name.get("timing") == by_name.get("naive") \
            == by_name.get("sjtree")
        assert_sessions_equivalent(sessions["shared"], sessions["fanout"])

    def test_drain_after_advance_time(self):
        sessions = twin_sessions(
            lambda routing: Session(window=6.0, routing=routing))
        edges = labeled_stream(19, 150)
        for session in sessions.values():
            for name, query in query_set().items():
                session.register(name, query)
            session.push_many(edges)
            session.advance_time(edges[-1].timestamp + 100.0)
        assert sessions["shared"].space_cells() == \
            sessions["fanout"].space_cells() == 0
        assert sessions["shared"].shared_window_cells() == 0


class TestWindowMemory:
    def test_shared_window_is_O_of_W_not_Q_times_W(self):
        """The headline space claim: Q same-policy queries keep ONE
        buffer under shared routing and Q copies under fanout."""
        sessions = twin_sessions(
            lambda routing: Session(window=50.0, routing=routing))
        edges = labeled_stream(23, 200)
        num_queries = 6
        for session in sessions.values():
            for i in range(num_queries):
                session.register(f"q{i}", labeled_path_query(
                    2, vstart=i % 3, elabels=(ELABELS[i % 3],)))
            session.push_many(edges)
        shared, fanout = sessions["shared"], sessions["fanout"]
        in_window = len(shared._admission.groups[("time", 50.0)].window)
        assert in_window > 0
        assert shared.shared_window_cells() == in_window
        assert shared.window_cells() == in_window
        assert fanout.window_cells() == num_queries * in_window

    def test_non_routed_matchers_are_skipped_and_discardable(self):
        session = Session(window=50.0)      # shared by default
        session.register("p1x", labeled_path_query(1, elabels=("x",)))
        session.register("p1y", labeled_path_query(1, elabels=("y",)))
        edges = labeled_stream(29, 120)
        session.push_many(edges)
        stats = session.session_stats()
        assert stats["routing"] == "shared"
        assert stats["edges_pushed"] == len(edges)
        assert stats["skipped_matchers"] > 0
        assert stats["routed_pushes"] + stats["skipped_matchers"] == \
            2 * len(edges)
        # Routing skips exactly the label-level-discardable arrivals.
        for edge in edges[:40]:
            routed = {record.name
                      for _, record in session._index.targets(edge)}
            for name in session.names():
                if name not in routed:
                    assert session.matcher(name).is_discardable(edge)


class TestDuplicatePolicies:
    @pytest.mark.parametrize("policy", ["skip", "count"])
    def test_drop_policies_agree(self, policy):
        results = {}
        sessions = twin_sessions(lambda routing: Session(
            window=3.0, duplicate_policy=policy, routing=routing))
        edges = labeled_stream(31, 250, id_pool=10)
        for routing, session in sessions.items():
            for name, query in query_set().items():
                session.register(name, query)
            results[routing] = Counter(session.push_many(edges))
        assert results["shared"] == results["fanout"]
        if policy == "count":
            # edges_seen legitimately differs (shared mode only visits
            # routed matchers) but every dropped duplicate is counted by
            # every count-policy matcher, identically in both modes.
            shared_stats = sessions["shared"].stats()
            for name, fanout_stats in sessions["fanout"].stats().items():
                assert shared_stats[name]["edges_skipped"] == \
                    fanout_stats["edges_skipped"], name
            assert fanout_stats["edges_skipped"] > 0    # non-vacuous
        assert_sessions_equivalent(sessions["shared"], sessions["fanout"])

    def test_reused_id_after_expiry_streams_identically(self):
        """An id whose previous bearer has left the window is a fresh
        arrival — including when the expiry is triggered by the re-using
        push itself (regression: the shared buffer once rejected this)."""
        results = {}
        for routing in ("shared", "fanout"):
            session = Session(window=10.0, routing=routing)
            session.register("p1x", labeled_path_query(1, elabels=("x",)))

            def flow(src, dst, ts):
                return StreamEdge(src, dst, src_label="A", dst_label="B",
                                  timestamp=ts, label="x", edge_id="flow")

            out = [session.push(flow("d0", "d1", 1.0))]
            out.append(session.push(flow("d2", "d3", 20.0)))   # bearer gone
            results[routing] = out
        assert results["shared"] == results["fanout"]
        assert len(results["shared"][1]) == 1       # the t=20 match

    def test_mid_stream_registrant_inherits_stream_duplicate_view(self):
        """The one deliberate semantic refinement of shared routing: an
        in-window id collision is judged against the *stream* (the shared
        buffer), so a query registered mid-stream drops a replayed id
        whose original bearer it never saw, instead of alerting on the
        replay the way fanout's per-matcher buffering does.  Pinned here
        so the divergence stays intentional and documented."""
        session = Session(window=10.0, duplicate_policy="skip")
        session.register("early", labeled_path_query(1, elabels=("x",)))
        session.push(StreamEdge("d0", "d1", src_label="A", dst_label="B",
                                timestamp=1.0, label="x", edge_id="X"))
        session.register("late", labeled_path_query(1, elabels=("x",)))
        replay = StreamEdge("d2", "d3", src_label="A", dst_label="B",
                            timestamp=2.0, label="x", edge_id="X")
        assert session.push(replay) == []           # dropped stream-wide
        assert session.result_counts() == {"early": 1, "late": 0}
        # Once the bearer expires, the id is fresh for everyone again.
        fresh = StreamEdge("d4", "d5", src_label="A", dst_label="B",
                           timestamp=20.0, label="x", edge_id="X")
        assert [name for name, _ in session.push(fresh)] == \
            ["early", "late"]

    def test_raise_policy_rejects_identically_and_atomically(self):
        sessions = twin_sessions(
            lambda routing: Session(window=100.0, routing=routing))
        errors = {}
        for routing, session in sessions.items():
            session.register("p1x", labeled_path_query(1, elabels=("x",)))
            session.register("wild", labeled_path_query(1, elabels=(ANY,)))
            session.push(StreamEdge("d0", "d1", src_label="A",
                                    dst_label="B", timestamp=1.0,
                                    label="x", edge_id="dup"))
            with pytest.raises(ValueError) as exc:
                session.push(StreamEdge("d3", "d4", src_label="A",
                                        dst_label="B", timestamp=2.0,
                                        label="x", edge_id="dup"))
            errors[routing] = str(exc.value)
            # All-or-nothing: the rejected arrival left no trace.
            assert session.current_time == 1.0
        assert errors["shared"] == errors["fanout"]
        assert "p1x" in errors["shared"] and "wild" in errors["shared"]


class TestChurn:
    def test_register_deregister_mid_stream(self):
        """Routing index and shared-window subscriptions stay consistent
        through live churn, and both modes keep agreeing."""
        results = {}
        sessions = twin_sessions(
            lambda routing: Session(window=6.0, routing=routing))
        edges = labeled_stream(37, 360)
        third = len(edges) // 3
        for routing, session in sessions.items():
            queries = query_set()
            session.register("p1x", queries["p1x"])
            session.register("p2y", queries["p2y"])
            session.register("wild", queries["wild"])
            tagged = Counter(session.push_many(edges[:third]))
            session.deregister("p2y")
            session.register("late", labeled_path_query(
                2, vstart=0, elabels=("x", "y")))
            tagged += Counter(session.push_many(edges[third:2 * third]))
            session.deregister("wild")
            # Re-use a retired name with a different query.
            session.register("p2y", labeled_path_query(
                1, vstart=1, elabels=("y",)))
            tagged += Counter(session.push_many(edges[2 * third:]))
            results[routing] = tagged
        assert results["shared"] == results["fanout"]
        assert_sessions_equivalent(sessions["shared"], sessions["fanout"])

    def test_deregister_leaves_no_index_or_subscription_residue(self):
        session = Session(window=6.0)
        session.register("a", labeled_path_query(2, elabels=("x", "y")))
        session.register("w", labeled_path_query(1, elabels=(ANY,)))
        edges = labeled_stream(41, 60)
        session.push_many(edges[:30])
        group_key = ("time", 6.0)
        group_window = session._admission.groups[group_key].window
        session.deregister("a")
        session.deregister("w")
        assert session._index.exact == {}
        assert len(session._index.router) == 0
        assert session._index.always == []
        assert session._queries == {}
        assert session._retaining == 0
        assert session._index.entries == {}
        # Last member out frees the group and its buffer.
        assert group_key not in session._admission.groups
        assert session.shared_window_cells() == 0
        # A fresh registration after total churn keeps streaming.
        session.register("b", labeled_path_query(1, elabels=("x",)))
        session.push_many(edges[30:])
        assert session._admission.groups[group_key].window is not group_window

    def test_mid_stream_registration_sees_only_future(self):
        results = {}
        sessions = twin_sessions(
            lambda routing: Session(window=50.0, routing=routing))
        edges = labeled_stream(43, 100)
        for routing, session in sessions.items():
            session.register("early", labeled_path_query(1, elabels=("x",)))
            session.push_many(edges[:50])
            session.register("late", labeled_path_query(1, elabels=("x",)))
            results[routing] = Counter(session.push_many(edges[50:]))
        assert results["shared"] == results["fanout"]
        shared = sessions["shared"]
        late_count = shared.result_counts()["late"]
        early_count = shared.result_counts()["early"]
        assert late_count <= early_count


class TestCheckpointRestore:
    def test_shared_session_round_trip_equals_continuous_run(self):
        edges = labeled_stream(47, 240)
        half = len(edges) // 2

        continuous = Session(window=6.0, routing="fanout")
        for name, query in query_set().items():
            continuous.register(name, query)
        reference = Counter(continuous.push_many(edges))

        session = Session(window=6.0)       # shared by default
        for name, query in query_set().items():
            session.register(name, query)
        first = Counter(session.push_many(edges[:half]))
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        restored = Session.restore(buffer)
        assert restored.session_stats()["routing"] == "shared"
        second = Counter(restored.push_many(edges[half:]))
        assert first + second == reference
        assert restored.result_counts() == continuous.result_counts()
        # Restored views still alias the restored shared buffers.
        record = restored._queries["p1x"]
        assert record.matcher.window.shared is \
            restored._admission.groups[record.group_key].window
        # ... and the index and the roster hold the restored record itself.
        assert restored._index.entries["p1x"][0][1] is record
        assert (record.ordinal, record) in \
            restored._admission.groups[record.group_key].members

    def test_checkpoint_mid_batch_state_is_flushed(self):
        """There is nothing to flush: engines are at the stream position
        whenever anyone looks, so a checkpoint taken from inside a sink
        callback in the middle of one ``push_many`` restores to exactly
        what the live session reports at that moment."""
        session = Session(window=2.0)
        for name, query in query_set().items():
            session.register(name, query)
        captured = []

        def checkpointing_sink(name, match):
            if len(captured) < 5:
                buffer = io.BytesIO()
                session.checkpoint(buffer)
                captured.append((buffer.getvalue(), session.result_counts(),
                                 session.current_time))

        session.add_sink(checkpointing_sink)
        edges = labeled_stream(53, 200)
        session.push_many(edges)
        assert len(captured) == 5
        assert captured[-1][2] < edges[-1].timestamp    # genuinely mid-batch
        for blob, live_counts, live_time in captured:
            restored = Session.restore(io.BytesIO(blob))
            assert restored.current_time == live_time
            assert restored.result_counts() == live_counts


# One shared 3-unit window, three two-edge chains A-l->B-l->C that share no
# edge label: an arrival labelled ``l`` routes to exactly one engine.
POSITION_WINDOW = 3.0
position_streams = st.lists(
    st.tuples(st.sampled_from(ELABELS), st.integers(0, 1),
              st.sampled_from([0.25, 1.0, 2.5])),
    min_size=4, max_size=60)


class TestEnginesAtStreamPosition:
    @settings(max_examples=80, deadline=None)
    @given(position_streams)
    def test_no_engine_holds_an_edge_its_window_dropped(self, steps):
        """Whenever a match is delivered — mid-batch, to a sink — every
        engine read *directly* (no ``session.matcher()`` /
        ``result_counts()`` hop) answers over the current window only,
        including the engines the current arrival was not routed to."""
        session = Session(window=POSITION_WINDOW)
        for label in ELABELS:
            session.register(label, labeled_path_query(2, elabels=(label,)))
        checked = []

        def every_engine_is_current(name, match):
            horizon = session.current_time - POSITION_WINDOW
            for other in session.names():
                engine = session._queries[other].matcher
                for held in engine.current_matches():
                    assert held.earliest_timestamp() > horizon, \
                        (name, other, held, horizon)
            checked.append(name)

        session.add_sink(every_engine_is_current)
        t, edges = 0.0, []
        for label, hop, dt in steps:
            t += dt
            edges.append(StreamEdge(
                f"d{hop}", f"d{hop + 1}", src_label=VLABELS[hop],
                dst_label=VLABELS[hop + 1], timestamp=t, label=label))
        delivered = session.push_many(edges)        # ONE batch
        assert len(checked) == len(delivered)


# (edge label, first hop or second, time step, id from a small pool — so
# in-window duplicates occur — or None for a fresh id)
pairing_steps = st.lists(
    st.tuples(st.sampled_from(("x", "y")), st.integers(0, 1),
              st.sampled_from([0.25, 1.0, 2.5]),
              st.one_of(st.none(), st.integers(0, 3))),
    min_size=6, max_size=60)


class TestExpiryPairsWithIngestion:
    @settings(max_examples=80, deadline=None)
    @given(pairing_steps,
           st.sampled_from([lambda: 3.0, lambda: CountSlidingWindow(5)]),
           st.sampled_from(["skip", "count"]))
    def test_every_expire_follows_its_insert_exactly_once(
            self, steps, window, policy):
        """What a member is told to forget is exactly what it was given:
        every ``_expire(e)`` follows an ``_insert(e)`` on that member, no
        edge is expired twice, and every inserted edge has been expired
        once the window dropped it — for a Timing stored plan and the
        ``sjtree`` backend, time and count windows, dropped duplicates,
        and a query that joins while matching edges are already buffered
        (which it must never hear of).  A stateless member hears of no
        expiry at all."""
        session = Session(duplicate_policy=policy)
        log = {}

        def enroll(name, n_edges, elabel, **options):
            engine = session.register(
                name, labeled_path_query(n_edges, elabels=(elabel,)),
                window=window(), **options)
            events = log[name] = []
            insert, expire = engine._insert, engine._expire

            def recording_insert(edge):
                events.append(("insert", edge.edge_id, edge.timestamp))
                return insert(edge)

            def recording_expire(edge):
                events.append(("expire", edge.edge_id, edge.timestamp))
                return expire(edge)

            engine._insert, engine._expire = recording_insert, recording_expire

        enroll("timing", 2, "x")
        enroll("sjtree", 2, "y", backend="sjtree")
        enroll("one-edge", 1, "x")
        t, edges = 0.0, []
        for i, (label, hop, dt, reused) in enumerate(steps):
            t += dt
            edges.append(StreamEdge(
                f"d{hop}", f"d{hop + 1}", src_label=VLABELS[hop],
                dst_label=VLABELS[hop + 1], timestamp=t, label=label,
                edge_id=f"fresh{i}" if reused is None else f"pool{reused}"))
        half = len(edges) // 2
        session.push_many(edges[:half])
        enroll("late", 2, "x")
        session.push_many(edges[half:])

        assert session.names() == list(log)
        assert not [e for e in log["one-edge"] if e[0] == "expire"]
        assert [e for e in log["late"] if e[0] == "insert"] \
            == [e for e in log["timing"] if e[0] == "insert"
                and e[2] > edges[half - 1].timestamp]
        for name in ("timing", "sjtree", "late"):
            held = set()
            expired = []
            for kind, edge_id, timestamp in log[name]:
                if kind == "insert":
                    held.add((edge_id, timestamp))
                else:
                    assert (edge_id, timestamp) in held, (name, edge_id)
                    held.remove((edge_id, timestamp))   # never twice
                    expired.append(timestamp)
            assert expired == sorted(expired)
            buffered = {(edge.edge_id, edge.timestamp)
                        for edge in session.matcher(name).window}
            assert held <= buffered, (name, held - buffered)


class TestSinkDeregistersLaterTarget:
    @pytest.mark.parametrize("routing", ["shared", "fanout"])
    def test_deregistered_query_emits_nothing(self, routing):
        """A sink callback may deregister a query the *same* arrival is
        still to be delivered to: the target list is a snapshot, so the
        deregistered query must be skipped, not looked up."""
        session = Session(window=50.0, routing=routing)
        for name in ("first", "second", "third"):
            session.register(name, labeled_path_query(1, elabels=("x",)))
        seen = []

        def sink(name, match):
            seen.append(name)
            if name == "first" and "second" in session:
                session.deregister("second")

        session.add_sink(sink)
        edges = [edge for edge in labeled_stream(59, 60)
                 if edge.label == "x" and edge.src_label == "A"
                 and edge.dst_label == "B"]
        assert len(edges) >= 2
        results = session.push_many(edges)
        assert session.names() == ["first", "third"]
        assert "second" not in seen
        assert [name for name, _ in results] == seen \
            == ["first", "third"] * len(edges)
        assert session.result_counts() == {
            "first": len(edges), "third": len(edges)}
