"""One model of a session, every mode against the naive matcher.

The paper's correctness yardstick is the naive per-snapshot recomputation
of §III-A1 under streaming consistency (Definition 11), which
``baselines/naive.py`` implements.  This Hypothesis state machine drives a
session through registrations (names held in a bundle), deregistrations,
batches, clock jumps, checkpoint → close → restore, and — on process
shards — a killed worker, after which the session is restored from the
last checkpoint and the operations admitted since it are replayed.  Each
example draws the modes (storage, sub-plan sharing, sharding ``none`` /
``thread`` / ``process``, shard transport, time / count / mixed window
groups, duplicate policy) and opens with a stored-plan query,
its twins — which share its sub-plan stores — and a first batch; each
registration draws a shape, a window, a backend and perhaps its own
duplicate policy.  On an unsharded session a query's callback may
deregister it, or a query the same arrival has yet to reach, on its next
match.

The references: one ``NaiveSnapshotMatcher`` per query, fed the stream the
session *admitted* since the query registered, and for a Timing query one
standalone ``TimingMatcher`` fed the same, whose ``space_cells()`` the
session's engine must equal.  Which arrivals those are is modelled: an id
is judged against its window group's buffer, so a query registered
mid-stream inherits the stream's duplicate view.

After every step the session agrees with the references on the ``(name,
match)`` pairs each batch delivered (names in order, pairs as a
multiset), ``current_matches()``, ``result_counts()``, the clock and the
matched / emitted / skipped counters; window cells are one buffer per
group (the O(|W|) claim of shared windows); the drain rule leaves nothing
held; and, on every unsharded session, a checkpoint taken from a sink in
the middle of an arrival resumes where the live session stands.
Reachable engines (no sharding, or thread shards) must also sit at the
stream position — read directly, mid-batch too — and ``_touched`` must
name only roots of live entries; class hooks assert, in shard workers
too, that ``_expire(e)`` follows ``_insert(e)`` once, FIFO, and never
reaches a stateless member of a shared window.

The scripted runs at the end drive the same machine by hand: fixed
openings and rule sequences — chosen arrivals where a corner needs them
— each played in every mode of :data:`MODES`, so those corners are
checked on every run, whatever the drawn examples reach.
"""

import io
import multiprocessing
import random
from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, consumes, initialize, invariant,
    multiple, precondition, rule, run_state_machine_as_test,
)

from repro import (
    ANY, CountSlidingWindow, EngineConfig, Prefix, QueryGraph, Session,
    ShardedSession, SharedWindowView, SlidingWindow, StreamEdge,
    TimingMatcher,
)
from repro.baselines.incmat import IncMatMatcher
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.baselines.sjtree import SJTreeMatcher
from repro.concurrency.sharding import shard_of

from .conftest import checkpoint

#: The committed budget: tier-1 runs exactly these examples.
SETTINGS = settings(max_examples=120, stateful_step_count=20, deadline=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
SHARDS = 2
NAMES = ("a", "b", "c", "d", "e")

#: Data edge labels: ``1`` and ``True`` compare and hash alike, but only
#: the int has the decimal text ``Prefix("1")`` matches.
LABELS = ("x", "y", 1, True, 1, True)


def path(*labels, timing="chain", vertices=("A", "B")):
    """A directed path whose edges carry ``labels``; ``timing`` is
    ``"chain"``, ``"reverse"``, ``"head"`` (first two edges ordered) or
    ``"none"``."""
    query = QueryGraph()
    for i in range(len(labels) + 1):
        query.add_vertex(f"v{i}", vertices[i % len(vertices)])
    for i, label in enumerate(labels):
        query.add_edge(f"e{i}", f"v{i}", f"v{i + 1}", label=label)
    edges = [f"e{i}" for i in range(len(labels))]
    if len(edges) > 1 and timing != "none":
        query.add_timing_chain(*{"chain": edges, "reverse": edges[::-1],
                                 "head": edges[:2]}[timing])
    return query


#: ``xy``, ``xy'`` and ``xyx`` (whose first TC-subquery is ``xy``) share
#: a sub-plan store, as do two registrations of one shape.
SHAPES = {
    "xy": lambda: path("x", "y"),
    "xy'": lambda: path("x", "y"),
    "xyx": lambda: path("x", "y", "x", timing="head"),
    "yx": lambda: path("y", "x", timing="reverse"),
    "x|y": lambda: path("x", "y", timing="none"),
    "*1*": lambda: path(ANY, Prefix("1")),
    "x": lambda: path("x"),                             # stateless plans
    "1*": lambda: path(Prefix("1")),
    "*": lambda: path(ANY, vertices=(ANY,)),
}

WINDOWS = {
    "time": (("time", 3.0), ("time", 5.0)),
    "count": (("count", 4), ("count", 6)),
    "mixed": (("time", 3.0), ("count", 5), ("time", 5.0)),
}


def window_arg(spec):
    """A fresh ``register(window=...)`` argument for a window group key."""
    kind, size = spec
    return size if kind == "time" else CountSlidingWindow(size)


def register_query(session, name, shape, spec, options):
    session.register(name, SHAPES[shape](), window=window_arg(spec),
                     **options)


class Buffer:
    """What an arrival's id is judged against: a window group's
    buffer."""

    def __init__(self, spec):
        self.kind, self.size = spec
        self.edges = deque()

    def __len__(self):
        return len(self.edges)

    def slide(self, timestamp):
        if self.kind == "time":
            while self.edges and \
                    self.edges[0].timestamp <= timestamp - self.size:
                self.edges.popleft()

    def bears(self, edge):
        """Whether ``edge``'s id still has a live bearer here once the
        arrival has slid the window."""
        return any(old.edge_id == edge.edge_id and (
            self.kind == "count" or old.timestamp > edge.timestamp - self.size)
            for old in self.edges)

    def push(self, edge):
        self.slide(edge.timestamp)
        if self.kind == "count" and len(self.edges) == self.size:
            self.edges.popleft()
        self.edges.append(edge)


class Reference:
    """One registered query's references and modelled counters."""

    def __init__(self, shape, backend, spec, policy, buffer, storage):
        self.shape, self.backend, self.spec = shape, backend, spec
        self.policy, self.buffer, self.storage = policy, buffer, storage
        self.evicts = None          # whom its callback deregisters
        self.skipped = 0
        self.naive = NaiveSnapshotMatcher(SHAPES[self.shape](),
                                          window_arg(spec))
        self.engine = None
        self.rebuild(float("-inf"))

    def rebuild(self, clock):
        """A fresh standalone engine over the naive window's edges — what
        a restore's register-then-replay builds."""
        if self.backend == "timing":
            self.engine = TimingMatcher(
                SHAPES[self.shape](), window_arg(self.spec),
                config=EngineConfig(storage=self.storage))
            self.engine.push_many(self.naive.window)
            self.advance(clock)

    def push(self, edge):
        if self.engine is not None:
            self.engine.push(edge)
        return self.naive.push(edge)

    def advance(self, timestamp):
        if timestamp > float("-inf"):
            self.naive.advance_time(timestamp)
            if self.engine is not None:
                self.engine.advance_time(timestamp)


def at_stream_position(engine):
    """No edge the engine was given and not told to forget has left its
    window (a stateless member of a shared window is never told)."""
    if not (engine.stateless and isinstance(engine.window, SharedWindowView)):
        window = {(edge.edge_id, edge.timestamp) for edge in engine.window}
        held = engine.__dict__.get("_held", set())
        assert held <= window, ("held past its window", held - window)


def roots_only(engine):
    """Every id in the match-once record roots a live entry of each
    sub-query it names."""
    for edge_id, touched in getattr(engine, "_touched", {}).items():
        for si in touched:
            roots = {flat[0].edge_id
                     for _, flat in engine._tc_stores[si].read(1)}
            assert edge_id in roots, (edge_id, si)


def same_pairs(got, want):
    assert [name for name, _ in got] == [name for name, _ in want]
    assert Counter(got) == Counter(want)


POLICIES = st.sampled_from([None, None, "raise", "skip", "count"])

#: ``(name, shape, window index, backend, duplicate policy or None for the
#: session's)``.
REGISTRATION = st.tuples(
    st.sampled_from(NAMES), st.sampled_from([*SHAPES, "*1*", "1*"]),
    st.integers(0, 2),
    st.sampled_from(["timing"] * 6 + ["sjtree", "incmat", "naive"]),
    POLICIES)

#: A Timing registration with a stored plan: its twins share its stores.
STORED = st.tuples(
    st.sampled_from(NAMES),
    st.sampled_from(["xy", "xy", "xyx", "xyx", "yx", "x|y", "*1*"]),
    st.integers(0, 2), st.just("timing"), POLICIES)


class SessionModel(RuleBasedStateMachine):
    queries = Bundle("queries")

    def teardown(self):
        if isinstance(getattr(self, "session", None), ShardedSession):
            self.session.close()
            assert multiprocessing.active_children() == []

    # ------------------------------------------------------------------ #
    # The session's callbacks: mid-arrival, between engines
    # ------------------------------------------------------------------ #
    def _heard(self, name, match):
        self.heard.append((name, match))
        if self.sharding == "none":
            for record in self.session._queries.values():
                at_stream_position(record.matcher)
        if self.midway == ():               # the batch's first match
            self.midway = checkpoint(self.session), self.session.current_time

    def _evictor(self, victim):
        def evict(name, match):
            if victim in self.session:
                self.session.deregister(victim)
        return evict

    # ------------------------------------------------------------------ #
    # The model
    # ------------------------------------------------------------------ #
    def _buffers(self):
        return {id(ref.buffer): ref.buffer for ref in self.refs.values()}

    def _forget(self, name):
        ref = self.refs.pop(name)
        if not any(other.buffer is ref.buffer for other in self.refs.values()):
            del self.groups[ref.spec]       # the last member frees it

    def _admit(self, edge):
        """The ``(name, match)`` pairs the session must deliver for
        ``edge``, or ``None`` when it must reject it untouched."""
        buffers = self._buffers()
        live = {key for key, buffer in buffers.items() if buffer.bears(edge)}
        refs = list(self.refs.items())
        if any(id(ref.buffer) in live and ref.policy == "raise"
               for _, ref in refs):
            return None
        self.clock, self.admitted = edge.timestamp, self.admitted + 1
        for key, buffer in buffers.items():
            if key in live:
                buffer.slide(edge.timestamp)
            else:
                buffer.push(edge)
        pairs = []
        for name, ref in refs:
            if name not in self.refs:       # evicted earlier in the arrival
                continue
            if id(ref.buffer) in live:
                ref.advance(edge.timestamp)
                ref.skipped += ref.policy == "count"
                continue
            matches = ref.push(edge)
            pairs += [(name, match) for match in matches]
            if matches and ref.evicts in self.refs:
                self._forget(ref.evicts)
        return pairs

    def _engines(self):
        """``name -> engine`` read directly, without a session hop."""
        records = self.session._queries
        if self.sharding == "none":
            return {name: record.matcher for name, record in records.items()}
        if self.sharding == "thread":
            return {name: self.session._shards[record.shard].handle.server
                    .session._queries[name].matcher
                    for name, record in records.items()}
        return {}

    def _pushed(self):
        """Whether a batch was admitted since the last checkpoint."""
        return any(op[0] == "push" for op in self.log)

    def _restore(self, blob):
        if isinstance(self.session, ShardedSession):
            self.session.close()
        self.session = Session.restore(io.BytesIO(blob))

    def _add(self, name, shape, window, backend, policy):
        """Register a query on the session and in the model; ``None``
        when the name is taken."""
        if name in self.refs:
            with pytest.raises(ValueError, match="already registered"):
                self.session.register(name, SHAPES[shape](), window=1.0)
            return None
        spec = self.specs[window % len(self.specs)]
        options = {} if backend == "timing" else {"backend": backend}
        if policy is not None:
            if backend == "timing":
                options["config"] = self.session.config.replace(
                    duplicate_policy=policy)
            else:
                options["duplicate_policy"] = policy
        register_query(self.session, name, shape, spec, options)
        self.log.append(("register", name, shape, spec, options))
        self.refs[name] = Reference(shape, backend, spec,
                                    policy or self.policy,
                                    self.groups.setdefault(spec, Buffer(spec)),
                                    self.storage)
        return name

    def _observed(self):
        """What a refused registration must leave as it found it."""
        session = self.session
        return (session.names(), session._next_ordinal, session.edges_pushed,
                session.current_time, sorted(session._admission.groups),
                session.window_cells(), session.result_counts())

    def _evicts(self, name, victim):
        """With a ``victim`` (on an unsharded session: a sharded facade
        calls back after the batch) ``name``'s callback deregisters it on
        each match, in the middle of that arrival."""
        if victim and self.sharding == "none":
            self.session.set_callback(name, self._evictor(victim))
            self.refs[name].evicts = victim

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    @initialize(target=queries,
                storage=st.sampled_from(["mstree", "independent"]),
                sharing=st.sampled_from(["shared", "shared", "shared",
                                         "private"]),
                sharding=st.sampled_from(["none"] * 6 + ["thread"] * 2
                                         + ["process"]),
                transport=st.sampled_from(["shm", "pipe"]),
                windows=st.sampled_from(sorted(WINDOWS)),
                policy=st.sampled_from(["raise", "skip", "count"]),
                reuse=st.booleans(),
                first=STORED, twins=st.integers(1, 2),
                evicts=st.sampled_from(["itself", "itself", "a twin", None]),
                others=st.lists(REGISTRATION, max_size=3),
                seed=st.integers(0, 2 ** 32))
    def open_session(self, storage, sharing, sharding, transport, windows,
                     policy, reuse, first, twins, evicts, others, seed):
        """A session with a ``first`` query, its ``twins`` and ``others``
        — all over empty stores, so the twins share the first's sub-plan
        stores — and a first batch.  When the first ``evicts`` itself on
        its next match, its twins must replay the memo it wrote; a twin it
        evicts must not see that arrival."""
        self.storage, self.sharding = storage, sharding
        self.transport, self.specs = transport, WINDOWS[windows]
        self.policy, self.reuse = policy, reuse
        self.session = Session(config=EngineConfig(
            storage=storage, subplan_sharing=sharing,
            sharding=sharding, shards=SHARDS, transport=transport,
            duplicate_policy=policy))
        self.session.add_sink(self._heard)
        self.refs = {}              # name -> Reference, registration order
        self.groups = {}            # window group key -> Buffer
        self.clock, self.time, self.admitted = float("-inf"), 0.0, 0
        self.heard, self.midway, self.rejected = [], None, 0
        self.refused = 0
        # The last checkpoint and every operation admitted since it.
        self.blob, self.log = checkpoint(self.session), []
        names = [self._add(*first)]
        names += [self._add(name, *first[1:]) for name in
                  [name for name in NAMES if name != names[0]][:twins]]
        self._evicts(names[0], {"itself": names[0], "a twin": names[1]}
                     .get(evicts))
        names += [self._add(*query) for query in others]
        self._push(seed, most=20)
        return multiple(*filter(None, names))

    @rule(target=queries, query=REGISTRATION)
    def register(self, query):
        name = self._add(*query)
        return multiple() if name is None else name

    @rule(name=consumes(queries))
    def deregister(self, name):
        if name not in self.refs:           # its callback deregistered it
            with pytest.raises(KeyError):
                self.session.deregister(name)
            return
        self.session.deregister(name)
        self.log.append(("deregister", name))
        self._forget(name)

    def register_prefilled(self, kind):
        """Offer a ``kind`` policy object already holding a ballast edge:
        every session kind refuses it before anything changes (scripted
        only)."""
        window = SlidingWindow(5.0) if kind == "time" \
            else CountSlidingWindow(5)
        window.push(StreamEdge("d0", "d1", src_label="A", dst_label="B",
                               label="x", timestamp=self.time))
        before = self._observed()
        with pytest.raises(ValueError, match="already holds 1 edge"):
            self.session.register("p", SHAPES["xy"](), window=window)
        assert self._observed() == before
        self.refused += 1

    @precondition(lambda self: self.refs)
    @rule(seed=st.integers(0, 2 ** 32))
    def push_many(self, seed):
        self._push(seed)

    def _push(self, seed, most=10):
        """One to ``most`` seeded arrivals: a walk, restarted one step in four,
        between ``A`` vertices ``d0``/``d2`` and ``B`` vertices
        ``d1``/``d3``, labelled ``x`` out of ``A`` and ``y`` out of ``B``
        half the time and from :data:`LABELS` otherwise — so ``x → y``
        paths form — and under ``reuse`` one id in four from a pool of
        two."""
        rng = random.Random(seed)
        arrivals = []
        at = rng.randrange(4)
        for _ in range(rng.randint(1, most)):
            step = rng.choice((0.25, 0.25, 0.5, 1.0))
            src = at if rng.random() < 0.75 else rng.randrange(4)
            at = rng.choice((1, 3) if src % 2 == 0 else (0, 2))
            label = "xy"[src % 2] if rng.random() < 0.5 \
                else rng.choice(LABELS)
            reused = self.reuse and rng.random() < 0.25
            arrivals.append((src, at, label, step,
                             f"X{rng.randrange(2)}" if reused else None))
        self._feed(arrivals)

    def _feed(self, arrivals):
        """Push ``(src, dst, label, time step, id or None)`` arrivals over
        vertices ``d0``..``d3`` (even ones ``A``, odd ones ``B``) as one
        batch and check what it delivered."""
        batch, want, admitted = [], [], []
        for src, dst, label, step, edge_id in arrivals:
            self.time += step
            batch.append(StreamEdge(
                f"d{src}", f"d{dst}", src_label="AB"[src % 2],
                dst_label="AB"[dst % 2], label=label, timestamp=self.time,
                edge_id=edge_id))
        # Callbacks are not restored.
        self.midway = () if self.sharding == "none" \
            and not any(ref.evicts for ref in self.refs.values()) else None
        for edge in batch:
            pairs = self._admit(edge)
            if pairs is None:
                break
            want += pairs
            admitted.append(edge)
        start = len(self.heard)
        if len(admitted) < len(batch):
            with pytest.raises(ValueError, match="duplicate in-window"):
                self.session.push_many(batch)
            self.rejected += 1
        else:
            assert self.session.push_many(batch) == self.heard[start:]
        same_pairs(self.heard[start:], want)
        self.log.append(("push", admitted, want))
        if self.midway:
            # The checkpoint holds the arrival it interrupted in its group
            # buffers: restored, that arrival has reached every query, and
            # with the batch's later arrivals it stands where we stand.
            blob, at = self.midway
            restored = Session.restore(io.BytesIO(blob))
            restored.push_many([e for e in admitted if e.timestamp > at])
            assert restored.result_counts() == self.session.result_counts()
        self.midway = None

    @precondition(lambda self: any(map(len, self._buffers().values())))
    @rule()
    def advance_time(self, step=1.5):
        self.time += step
        self.session.advance_time(self.time)
        self.log.append(("advance", self.time))
        self.clock = self.time
        for buffer in self._buffers().values():
            buffer.slide(self.time)
        for ref in self.refs.values():
            ref.advance(self.time)

    @precondition(lambda self: any(map(len, self._buffers().values())))
    @rule()
    def drain(self):
        """Past every time window: nothing a time window held is left."""
        self.advance_time(10.0)
        if all(ref.spec[0] == "time" for ref in self.refs.values()):
            assert self.session.space_cells() == 0
            assert self.session.window_cells() == 0

    @precondition(lambda self: self._pushed())
    @rule()
    def checkpoint_close_restore(self):
        blob, kind = checkpoint(self.session), type(self.session)
        self._restore(blob)
        assert type(self.session) is kind
        self.session.add_sink(self._heard)
        self.blob, self.log = blob, []
        for name, ref in self.refs.items():
            ref.rebuild(self.clock)
            self._evicts(name, ref.evicts)  # callbacks are wiring, not data
        if self.sharding != "none":
            assert self.session.shard_assignments() == {
                name: shard_of(name, SHARDS) for name in self.refs}
        if self.sharding == "process":
            assert self.session.session_stats()["transport"] \
                == self.transport

    @precondition(lambda self: self.sharding == "process" and self._pushed())
    @rule(victim=st.integers(0, SHARDS - 1))
    def kill_shard_restore_and_replay(self, victim):
        handle = self.session._shards[victim].handle
        handle.kill()
        handle.process.join(5.0)
        assert not self.session.shard_health()[victim]["alive"]
        self._restore(self.blob)
        for op, *args in self.log:
            if op == "register":
                register_query(self.session, *args)
            elif op == "deregister":
                self.session.deregister(*args)
            elif op == "push":
                same_pairs(self.session.push_many(args[0]), args[1])
            else:
                self.session.advance_time(*args)
        self.session.add_sink(self._heard)

    # ------------------------------------------------------------------ #
    # After every step
    # ------------------------------------------------------------------ #
    @invariant()
    def agrees_with_the_references(self):
        session, refs = self.session, self.refs
        assert session.current_time == self.clock
        assert session.names() == list(refs)
        assert session.edges_pushed == self.admitted
        want = {name: Counter(ref.naive.current_matches())
                for name, ref in refs.items()}
        assert {name: Counter(matches) for name, matches
                in session.current_matches().items()} == want
        assert session.result_counts() == {
            name: sum(matches.values()) for name, matches in want.items()}
        assert {name: (stats["edges_skipped"], stats["edges_matched"],
                       stats["matches_emitted"])
                for name, stats in session.stats().items()} \
            == {name: (ref.skipped, ref.naive.stats.edges_matched,
                       ref.naive.stats.matches_emitted)
                for name, ref in refs.items()}
        cells = session.window_cells()
        assert cells == session.shared_window_cells()
        if self.sharding == "none":
            assert cells == sum(map(len, self.groups.values()))
        for name, engine in self._engines().items():
            ref = refs[name]
            assert Counter(engine.current_matches()) == want[name], name
            if ref.engine is not None:
                assert engine.space_cells() == ref.engine.space_cells(), name
            at_stream_position(engine)
            roots_only(engine)


def record_pairing(monkeypatch):
    """Class hooks asserting, as it happens, that an engine's
    ``_expire(e)`` follows its ``_insert(e)``, comes once, and names the
    oldest edge the engine holds (every store assumes FIFO expiry)."""
    for cls in (TimingMatcher, SJTreeMatcher, IncMatMatcher,
                NaiveSnapshotMatcher):
        def recording_insert(self, edge, _insert=cls._insert):
            held = self.__dict__.setdefault("_held", set())
            key = (edge.edge_id, edge.timestamp)
            assert key not in held, ("inserted twice", key)
            held.add(key)
            return _insert(self, edge)

        def recording_expire(self, edge, _expire=cls._expire):
            assert not (self.stateless
                        and isinstance(self.window, SharedWindowView)), \
                "expiry reached a stateless member"
            held = self.__dict__.setdefault("_held", set())
            key = (edge.edge_id, edge.timestamp)
            assert key in held, ("expired without its insert, or twice", key)
            assert edge.timestamp == min(t for _, t in held), "not FIFO"
            held.remove(key)
            return _expire(self, edge)

        monkeypatch.setattr(cls, "_insert", recording_insert)
        monkeypatch.setattr(cls, "_expire", recording_expire)


def test_session_agrees_with_the_naive_matcher(monkeypatch):
    record_pairing(monkeypatch)
    run_state_machine_as_test(SessionModel, settings=SETTINGS)


# ---------------------------------------------------------------------- #
# Scripted runs: the same machine with fixed draws, in every mode
# ---------------------------------------------------------------------- #

#: ``open_session``'s mode draws.  The unsharded modes are every pair of
#: storage and sub-plan sharing.
MODES = {
    "shared-mstree": dict(storage="mstree", sharing="shared",
                          sharding="none"),
    "shared-private": dict(storage="independent", sharing="private",
                           sharding="none"),
    "shared-independent": dict(storage="independent", sharing="shared",
                               sharding="none"),
    "private-mstree": dict(storage="mstree", sharing="private",
                           sharding="none"),
    "thread": dict(storage="mstree", sharing="shared", sharding="thread"),
    "process-shm": dict(storage="independent", sharing="shared",
                        sharding="process", transport="shm"),
    "process-pipe": dict(storage="mstree", sharing="private",
                         sharding="process", transport="pipe"),
}

#: ``open_session``'s other draws, which a script may override: ``a``
#: (an ``xy`` path on the first window) and its twin ``b``.
OPENING = dict(windows="time", policy="skip", reuse=False,
               first=("a", "xy", 0, "timing", None), twins=1, evicts=None,
               others=(), seed=1, transport="shm")


def xy(step=0.5, edge_id=None):
    """``_feed`` arrivals ``d0 -x-> d1 -y-> d2``: one ``xy`` match."""
    return [(0, 1, "x", step, edge_id), (1, 2, "y", 0.5, None)]


def skipped(model):
    return any(ref.skipped for ref in model.refs.values())


STEPS = [("push_many", 2), ("push_many", 3), ("advance_time",),
         ("push_many", 4)]
SHAPED = [("c", "yx", 1, "timing", None), ("d", "*1*", 0, "timing", None),
          ("e", "x", 1, "sjtree", None)]

#: ``name -> (opening overrides, [(rule, *args)], what must have happened)``:
#: the regressions the pairwise suites this machine replaced pinned.
SCRIPTS = {
    "time-windows": ({"others": SHAPED}, STEPS, None),
    "count-windows": ({"windows": "count", "others": SHAPED}, STEPS, None),
    "mixed-windows": ({"windows": "mixed", "others": [
        ("c", "xy", 1, "timing", None), ("d", "xyx", 2, "timing", None),
        ("e", "*", 1, "naive", None)]}, STEPS, None),
    "baseline-backends": ({"others": [
        ("c", "xy", 0, "sjtree", None), ("d", "xy", 1, "incmat", None),
        ("e", "xy", 0, "naive", None)]}, STEPS, None),
    "drain-after-advance": ({"others": SHAPED[:2]}, [
        ("push_many", 5), ("drain",), ("push_many", 6), ("drain",)], None),
    "duplicates-skip": ({"reuse": True, "others": SHAPED}, STEPS, None),
    "duplicates-count": ({"reuse": True, "policy": "count",
                          "others": SHAPED}, STEPS, skipped),
    "raise-rejects-side-effect-free": (
        {"policy": "raise", "others": [("c", "*", 0, "timing", None)]},
        [("_feed", xy(edge_id="dup")),
         ("_feed", [(0, 3, "x", 0.5, None), (2, 3, "x", 0.5, "dup")]),
         ("_feed", xy())], lambda model: model.rejected),
    "reused-id-after-expiry": ({"policy": "raise"}, [
        ("_feed", xy(edge_id="flow")), ("_feed", xy(6.0, "flow"))], None),
    "late-registrant-inherits-duplicate-view": ({}, [
        ("_feed", xy(edge_id="X")),
        ("register", ("e", "xy", 0, "timing", None)),
        ("_feed", xy(edge_id="X")), ("_feed", xy(6.0, "X"))], None),
    "duplicate-live-in-one-group-fresh-in-another": (
        {"windows": "mixed", "policy": "count", "others": [
            ("c", "xy", 1, "timing", None), ("d", "xy", 2, "timing", None)]},
        [("_feed", xy(edge_id="X")), ("_feed", xy(3.0, "X"))], skipped),
    "churn": ({"others": SHAPED[:1]}, [
        ("push_many", 7), ("deregister", "b"),
        ("register", ("d", "yx", 0, "timing", None)), ("push_many", 8),
        ("deregister", "a"), ("register", ("b", "x|y", 1, "timing", None)),
        ("push_many", 9)], None),
    "sink-deregisters-a-twin": ({"twins": 2, "evicts": "a twin"}, [
        ("_feed", xy()), ("push_many", 10), ("_feed", xy())], None),
    "co-consumer-leaves-mid-arrival": ({"evicts": "itself"}, [
        ("_feed", xy()), ("push_many", 10), ("_feed", xy())], None),
    "prefilled-window-refused": ({}, [
        ("register_prefilled", "time"), ("_feed", xy()),
        ("register_prefilled", "count"), ("_feed", xy())],
        lambda model: model.refused == 2),
    "checkpoint-restore": ({"others": SHAPED}, [
        ("push_many", 11), ("checkpoint_close_restore",), ("push_many", 12),
        ("advance_time",), ("checkpoint_close_restore",),
        ("push_many", 13)], None),
}


def play(mode, opening, steps):
    """Run ``steps`` on a machine opened in ``mode``, checking the
    invariant after each; the machine is returned torn down."""
    model = SessionModel()
    try:
        model.open_session(**{**OPENING, **opening, **MODES[mode]})
        model.agrees_with_the_references()
        for rule_name, *args in steps:
            getattr(model, rule_name)(*args)
            model.agrees_with_the_references()
    finally:
        model.teardown()
    return model


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("script", SCRIPTS)
def test_scripted_run(monkeypatch, script, mode):
    record_pairing(monkeypatch)
    opening, steps, happened = SCRIPTS[script]
    model = play(mode, opening, steps)
    assert model.heard                                  # non-vacuous
    assert happened is None or happened(model)


@pytest.mark.parametrize("mode", ["process-shm", "process-pipe"])
def test_killed_shard_is_restored_and_replayed(monkeypatch, mode):
    record_pairing(monkeypatch)
    model = play(mode, {"others": SHAPED}, [
        ("push_many", 14), ("checkpoint_close_restore",), ("push_many", 15),
        ("register", ("b'", "yx", 1, "timing", None)), ("push_many", 16),
        ("kill_shard_restore_and_replay", 0), ("push_many", 17),
        ("kill_shard_restore_and_replay", 1), ("push_many", 18)])
    assert model.heard and "b'" in model.session
