"""The window's id index is built only once a duplicate is possible.

An edge built without an ``edge_id`` is *stamped*: its id is ``(src,
dst, timestamp)``, and since timestamps strictly increase it can share
no id with an earlier stamped edge.  So a window keeps no ``edge_id →
timestamp`` index while every buffered edge is stamped, and builds it
from the buffer at the first explicit-id arrival or the first read of
``bearers`` / ``bearer_live_at`` / ``bearer_timestamp`` (a standalone
engine's probe of an arrival that is not past the clock reads it).

* The differential: a standalone engine and a session, driven by
  generated streams that mix stamped and explicit ids (explicit ids
  equal to an earlier, a later and the edge's own default id), re-pushes
  at the clock and advances, over time and count windows and all three
  duplicate policies, give every verdict, skip, count, exception type
  and message that a brute-force scan of the live buffer gives, and the
  same matches as a twin whose index was built before the stream.
* The round trips: a stamped edge stays stamped through the service
  codec, WAL replay and checkpoint restore, and a restored window of
  stamped edges holds no index.

``tests/test_frame_budget.py`` checks that the four in-process benchmark
shapes end with no index built.
"""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, Session, StreamEdge, TimingMatcher
from repro.graph.count_window import CountSlidingWindow
from repro.graph.window import SlidingWindow, WindowBuffer, check_time
from repro.service.codec import edge_from_json, edge_to_json
from repro.service.config import TenantConfig, WalConfig
from repro.service.gateway import Tenant

from .conftest import checkpoint, make_edge, path_query
from .service.conftest import CHAIN_DSL
from .test_frame_budget import exact_session_inputs
from .test_logical_checkpoint import engine_join_inputs

POLICIES = ("raise", "skip", "count")


# --------------------------------------------------------------------- #
# The brute-force reference
# --------------------------------------------------------------------- #
class ScanWindow:
    """A window as a plain list, every duplicate question answered by
    scanning it (no index at all)."""

    def __init__(self, duration=None, capacity=None):
        self.duration, self.capacity = duration, capacity
        self.edges = []
        self.clock = -math.inf

    def bearer(self, edge_id):
        """The latest live bearer's timestamp of ``edge_id``, or None."""
        found = None
        for edge in self.edges:
            if edge.edge_id == edge_id:
                found = edge.timestamp
        return found

    def live_at(self, edge_id, timestamp):
        bearer = self.bearer(edge_id)
        return bearer is not None and (
            self.duration is None or bearer > timestamp - self.duration)

    def push(self, edge):
        check_time(edge.timestamp, self.clock,
                   self.edges[-1].timestamp if self.edges else None)
        self.clock = edge.timestamp
        if self.duration is not None:
            self._drop(edge.timestamp)
        elif len(self.edges) >= self.capacity:
            del self.edges[0]
        self.edges.append(edge)

    def advance(self, timestamp):
        check_time(timestamp, self.clock)
        self.clock = timestamp
        if self.duration is not None:
            self._drop(timestamp)

    def _drop(self, timestamp):
        while self.edges and \
                self.edges[0].timestamp <= timestamp - self.duration:
            del self.edges[0]

    def index(self):
        return {edge.edge_id: self.bearer(edge.edge_id)
                for edge in self.edges}


class EngineModel:
    """``MatcherBase.push``'s documented duplicate rules over a scan."""

    def __init__(self, window, policy):
        self.window, self.policy = window, policy
        self.skipped = 0

    def push(self, edge):
        window, edge_id = self.window, edge.edge_id
        if window.bearer(edge_id) is not None:
            if self.policy == "raise" and \
                    window.live_at(edge_id, edge.timestamp):
                raise ValueError(f"duplicate in-window edge id: {edge_id!r}")
            window.advance(edge.timestamp)
            if window.bearer(edge_id) is not None:
                if self.policy == "count":
                    self.skipped += 1
                return
        window.push(edge)


class SessionModel:
    """``Admission.admit``'s stream-level duplicate rules over scans:
    ``members`` are ``(name, group key, policy)`` in registration
    order."""

    def __init__(self, members):
        self.members = members
        self.windows = {key: scan_window(key) for _, key, _ in members}
        self.skipped = {name: 0 for name, _, _ in members}
        self.clock = -math.inf
        self.pushed = 0

    def push(self, edge):
        check_time(edge.timestamp, self.clock, self.clock)
        live = {key for key, window in self.windows.items()
                if window.live_at(edge.edge_id, edge.timestamp)}
        names = [name for name, key, policy in self.members
                 if key in live and policy == "raise"]
        if names:
            raise ValueError(
                f"duplicate in-window edge id: {edge.edge_id!r} "
                f"(rejected by {names}; no query ingested it)")
        self.clock = edge.timestamp
        self.pushed += 1
        for key, window in self.windows.items():
            if key in live:
                window.advance(edge.timestamp)
            else:
                window.push(edge)
        for name, key, policy in self.members:
            if key in live and policy == "count":
                self.skipped[name] += 1

    def advance(self, timestamp):
        check_time(timestamp, self.clock)
        self.clock = timestamp
        for window in self.windows.values():
            window.advance(timestamp)


def scan_window(key):
    kind, bound = key
    return ScanWindow(duration=bound) if kind == "time" \
        else ScanWindow(capacity=bound)


def engine_window(key):
    kind, bound = key
    return SlidingWindow(bound) if kind == "time" \
        else CountSlidingWindow(bound)


# --------------------------------------------------------------------- #
# Generated streams
# --------------------------------------------------------------------- #
SOURCES = ("a0", "a1", "b0")
TARGETS = ("b0", "b1", "c0", "a1")
#: How an arrival's id is chosen: stamped, a free explicit name, or an
#: explicit id equal to a default id — the previous arrival's, the
#: edge's own, that of its endpoints a tick earlier or a tick later.
IDS = ("stamped",) * 5 + ("previous",) * 3 + ("x", "own", "earlier",
                                              "later")
STEPS = (-1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 5.0)

operations = st.lists(st.one_of(
    st.tuples(st.just("push"), st.sampled_from(SOURCES),
              st.sampled_from(TARGETS), st.sampled_from(STEPS),
              st.sampled_from(IDS)),
    st.just(("repush",)),
    st.tuples(st.just("advance"), st.sampled_from((-1.0, 0.0, 1.0, 4.0)))),
    min_size=2, max_size=40)

KEYS = (("time", 2.0), ("time", 4.0), ("count", 2), ("count", 3))
WINDOWS = st.sampled_from(KEYS)


def script(ops):
    """The generated operations as ``("push", edge)`` / ``("advance",
    t)`` steps: every arrival and advance moves a running time by its
    step (which may go backwards), and ``repush`` offers the previous
    arrival's very object again, at its own timestamp."""
    now, last, steps = 0.0, None, []
    for op in ops:
        if op[0] == "repush":
            if last is not None:
                steps.append(("push", last))
            continue
        if op[0] == "advance":
            now += op[1]
            steps.append(("advance", now))
            continue
        _, src, dst, step, how = op
        now += step
        edge_id = {"stamped": None, "x": "x", "y": "y",
                   "previous": last.edge_id if last is not None else None,
                   "own": (src, dst, now),
                   "earlier": (src, dst, now - 1.0),
                   "later": (src, dst, now + 1.0)}[how]
        last = StreamEdge(src, dst, src_label=src[0], dst_label=dst[0],
                          timestamp=now, edge_id=edge_id)
        steps.append(("push", last))
    return steps


def outcome(call, *args):
    """What a call did: ``("ok", value)`` or the exception it raised."""
    try:
        return ("ok", call(*args))
    except Exception as exc:    # noqa: BLE001 - the type is compared
        return (type(exc), str(exc))


def verdict(result):
    """An outcome without its value (the reference computes none)."""
    return "ok" if result[0] == "ok" else result


def found(matches):
    """Match results as comparable data."""
    return sorted(map(repr, matches))


def buffered(window):
    return [(edge.edge_id, edge.timestamp) for edge in window]


def check_index(window: WindowBuffer, reference: ScanWindow):
    """No index means every buffered edge is stamped; a built index is
    the scan's."""
    if window._bearers is None:
        assert all(type(edge) is StreamEdge for edge in window)
    else:
        assert window._bearers == reference.index()


# --------------------------------------------------------------------- #
# The differential
# --------------------------------------------------------------------- #
class TestLazyIndexEqualsScan:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("key", KEYS,
                             ids=lambda key: f"{key[0]}{key[1]:g}")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ops=operations, edges=st.sampled_from((1, 2)))
    def test_standalone_engine(self, key, policy, ops, edges):
        """Each push and advance of a lazy engine, an engine whose index
        was built first, and the scan model, per window and policy."""
        query = path_query(edges, labels="abc", timing="empty")
        config = EngineConfig(duplicate_policy=policy)
        lazy = TimingMatcher(query, engine_window(key), config=config)
        eager = TimingMatcher(query, engine_window(key), config=config)
        assert eager.window.bearers == {}       # built before the stream
        model = EngineModel(scan_window(key), policy)
        for kind, arg in script(ops):
            if kind == "push":
                got = outcome(lambda: found(lazy.push(arg)))
                assert got == outcome(lambda: found(eager.push(arg)))
                assert verdict(got) == verdict(outcome(model.push, arg))
            else:
                got = outcome(lazy.advance_time, arg)
                assert got == outcome(eager.advance_time, arg)
                assert got == outcome(model.window.advance, arg)
            assert buffered(lazy.window) == buffered(model.window.edges)
            assert lazy.stats.edges_skipped == model.skipped \
                == eager.stats.edges_skipped
            check_index(lazy.window, model.window)
            check_index(eager.window, model.window)
        assert found(lazy.current_matches()) == \
            found(eager.current_matches())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ops=operations,
           members=st.lists(st.tuples(WINDOWS, st.sampled_from(POLICIES),
                                      st.sampled_from((1, 2))),
                            min_size=1, max_size=4))
    def test_session(self, ops, members):
        """Each push and advance of a lazy session, a session whose
        groups built their index first, and the scan model: one member
        per drawn (window, policy, query size)."""
        roster = [(f"q{i}", key, policy)
                  for i, (key, policy, _) in enumerate(members)]
        lazy, eager = Session(), Session()
        for (name, key, policy), (_, _, edges) in zip(roster, members):
            for session in (lazy, eager):
                session.register(
                    name, path_query(edges, labels="abc", timing="empty"),
                    window=engine_window(key),
                    config=EngineConfig(duplicate_policy=policy))
        for group in eager._admission.groups.values():
            assert group.window.bearers == {}
        model = SessionModel(roster)
        for kind, arg in script(ops):
            if kind == "push":
                got = outcome(lambda: found(lazy.push(arg)))
                assert got == outcome(lambda: found(eager.push(arg)))
                assert verdict(got) == verdict(outcome(model.push, arg))
            else:
                got = outcome(lazy.advance_time, arg)
                assert got == outcome(eager.advance_time, arg)
                assert got == outcome(model.advance, arg)
            for key, group in lazy._admission.groups.items():
                reference = model.windows[key]
                assert buffered(group.window) == buffered(reference.edges)
                check_index(group.window, reference)
            for name, _, _ in roster:
                assert lazy.matcher(name).stats.edges_skipped \
                    == model.skipped[name] \
                    == eager.matcher(name).stats.edges_skipped
            assert lazy._admission.edges_pushed == model.pushed
        assert {name: found(matches) for name, matches
                in lazy.current_matches().items()} == \
            {name: found(matches) for name, matches
             in eager.current_matches().items()}


class TestWhatBuildsTheIndex:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Every index build, as the window that built it."""
        built = []
        index = WindowBuffer._index

        def counted(window):
            built.append(window)
            return index(window)

        monkeypatch.setattr(WindowBuffer, "_index", counted)
        return built

    def test_one_explicit_arrival_builds_it_once(self, builds):
        """``engine_join``'s engine and ``session_exact16``'s session:
        stamped arrivals build nothing; one explicit-id arrival builds
        each window's index once, and it is kept after that."""
        query, window, stream = engine_join_inputs(3000)
        engine = TimingMatcher(query, window, config=EngineConfig())
        engine.push_many(stream[:1000])
        assert builds == [] and engine.window._bearers is None
        named = stream[1000]
        engine.push(StreamEdge(named.src, named.dst,
                               src_label=named.src_label,
                               dst_label=named.dst_label,
                               timestamp=named.timestamp,
                               label=named.label, edge_id="named"))
        engine.push_many(stream[1001:])
        assert builds == [engine.window]
        assert engine.window._bearers == scanned_index(engine.window)

        queries, stream = exact_session_inputs(24000)
        session = Session(window=2000.0, config=EngineConfig())
        for name, query in queries.items():
            session.register(name, query)
        (group,) = session._admission.groups.values()
        session.push_many(stream[:1000])
        assert builds == [engine.window]
        named = stream[1000]
        session.push(StreamEdge(named.src, named.dst,
                                src_label=named.src_label,
                                dst_label=named.dst_label,
                                timestamp=named.timestamp,
                                label=named.label, edge_id="named"))
        session.push_many(stream[1001:3000])
        assert builds == [engine.window, group.window]
        assert group.window._bearers == scanned_index(group.window)

    def test_reads_and_a_repush_build_it(self, builds):
        """A read of the index builds it; so does a standalone engine's
        probe of an arrival that is not past the clock, and that
        arrival gets the duplicate verdict, not a time error."""
        for read in (lambda window: window.bearers,
                     lambda window: window.bearer_live_at("x", 0.0),
                     lambda window: window.bearer_timestamp("x")):
            window = SlidingWindow(5.0)
            window.push(make_edge("a1", "b1", 1.0))
            read(window)
            assert window._bearers == {("a1", "b1", 1.0): 1.0}
        assert len(builds) == 3
        engine = TimingMatcher(path_query(1, labels="ab"), 5.0)
        edge = make_edge("a1", "b1", 1.0)
        engine.push(edge)
        engine.push(make_edge("a1", "b1", 2.0))
        assert engine.window._bearers is None
        with pytest.raises(ValueError, match="duplicate in-window edge id"):
            engine.push(make_edge("a1", "b1", 2.0))
        assert len(builds) == 4

    def test_a_count_window_builds_it_alike(self, builds):
        """A count window evicts stamped edges with no index, builds it
        at its first explicit-id arrival, and then keeps it as the slide
        evicts — the named bearer's entry included."""
        window = CountSlidingWindow(2)
        for t in (1.0, 2.0, 3.0):
            window.push(make_edge("a1", "b1", t))
        assert builds == [] and window._bearers is None
        window.push(StreamEdge("a1", "b1", src_label="a", dst_label="b",
                               timestamp=4.0, edge_id="named"))
        assert builds == [window]
        assert window._bearers == {("a1", "b1", 3.0): 3.0, "named": 4.0}
        for t in (5.0, 6.0):
            window.push(make_edge("a1", "b1", t))
            assert window._bearers == scanned_index(window)
        assert window._bearers == {("a1", "b1", 5.0): 5.0,
                                   ("a1", "b1", 6.0): 6.0}
        assert builds == [window]

    def test_a_built_index_follows_advance(self, builds):
        """Once built, a time window's index loses each bearer that an
        advance expires, and a later stamped arrival joins it."""
        window = SlidingWindow(3.0)
        window.push(make_edge("a1", "b1", 1.0))
        window.push(StreamEdge("a2", "b1", src_label="a", dst_label="b",
                               timestamp=2.0, edge_id="named"))
        assert window._bearers == {("a1", "b1", 1.0): 1.0, "named": 2.0}
        window.advance(4.0)
        assert window._bearers == {"named": 2.0}
        window.advance(5.0)
        assert window._bearers == {} and len(window) == 0
        window.push(make_edge("a1", "b1", 6.0))
        assert window._bearers == {("a1", "b1", 6.0): 6.0}
        assert builds == [window]

    def test_a_shared_view_reads_its_buffer(self):
        session = Session(window=5.0)
        view = session.register("q", path_query(1, labels="ab")).window
        session.push(make_edge("a1", "b1", 1.0))
        assert view._bearers is None and view._current_time == 1.0
        assert view.bearer_live_at(("a1", "b1", 1.0), 2.0)
        assert view._bearers == view.bearers == {("a1", "b1", 1.0): 1.0}


def scanned_index(window):
    """The index a scan of ``window``'s buffer gives."""
    reference = ScanWindow()
    reference.edges = list(window)
    return reference.index()


# --------------------------------------------------------------------- #
# Stamped edges stay stamped
# --------------------------------------------------------------------- #
class TestStampsSurvive:
    def test_codec(self):
        stamped = make_edge("a1", "b1", 1.0, label=("tcp", 80))
        named = StreamEdge("a1", "b1", src_label="a", dst_label="b",
                           timestamp=2.0, edge_id=("flow", 7))
        back = edge_from_json(edge_to_json(stamped))
        assert type(back) is StreamEdge and back.edge_id == stamped.edge_id
        back = edge_from_json(edge_to_json(named))
        assert type(back) is not StreamEdge
        assert isinstance(back, StreamEdge) and back.edge_id == ("flow", 7)
        # An explicit id equal to the edge's own default names its own
        # timestamp, exactly as a stamp does: it travels as a stamp.
        own = StreamEdge("a1", "b1", src_label="a", dst_label="b",
                         timestamp=3.0, edge_id=("a1", "b1", 3.0))
        assert type(own) is not StreamEdge
        assert type(edge_from_json(edge_to_json(own))) is StreamEdge

    def test_checkpoint_restore(self):
        session = Session(window=10.0)
        session.register("one", path_query(1, labels="ab"))
        session.register("two", path_query(2, labels="abc"))
        session.push_many([make_edge("a1", "b1", 1.0),
                           make_edge("b1", "c1", 2.0)])
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        (group,) = restored._admission.groups.values()
        assert [type(edge) for edge in group.window] == [StreamEdge] * 2
        assert group.window._bearers is None
        session.push(StreamEdge("a2", "b1", src_label="a", dst_label="b",
                                timestamp=3.0, edge_id="named"))
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        (group,) = restored._admission.groups.values()
        assert [type(edge) is StreamEdge for edge in group.window] == [
            True, True, False]
        assert group.window._bearers == {("a1", "b1", 1.0): 1.0,
                                         ("b1", "c1", 2.0): 2.0,
                                         "named": 3.0}

    def test_wal_replay(self, tmp_path):
        config = TenantConfig(name="t0", queries={"chain": CHAIN_DSL},
                              window=6.0, wal=WalConfig()).validate()
        records = [{"src": f"a{i}", "dst": "b", "src_label": "A",
                    "dst_label": "B", "timestamp": float(i)}
                   for i in range(1, 5)]
        tenant = Tenant(config, str(tmp_path))
        tenant.ingest_json(records)
        tenant.abort()
        reborn = Tenant(config, str(tmp_path))
        try:
            session = reborn.safe.session
            (group,) = session._admission.groups.values()
            assert reborn.edges_offered == 4
            assert [type(edge) for edge in group.window] == [StreamEdge] * 4
            assert group.window._bearers is None
        finally:
            reborn.abort()
