"""Restored ≡ uninterrupted: the differential suite of the logical checkpoint.

A checkpoint is the query list and the windows; restore registers the
queries again and replays each window group's buffered edges (see
:mod:`repro.persistence`).  Every scenario here runs one operation script
twice — straight through, and through checkpoint → close → restore at the
marked step — and requires, after every later step: the same ``(name,
match)`` list from every ``push_many`` (multiset *and* order), the same
``result_counts()``, ``current_matches()`` (as multisets),
``space_cells()``, ``stats()``, ``session_stats()``, clock and
``names()`` — across storage × routing × sharding × window kind,
mid-stream registrants, deregistration, stateless one-edge queries, all
four backends, explicit and ``random`` plans.

What may differ, and nothing else:

1. **Sub-plan sharing can only improve.**  A query registered mid-stream
   whose canonical sub-plan already had a non-empty store got a record of
   its own.  On restore it registers when the replay reaches its ``since``
   watermark, over a store holding only what the *current* window still
   explains; when that is nothing — always once the watermark has slid
   out of the window, sometimes while it is still inside — it joins the
   earlier record instead.  Answers and every later arrival are
   identical; ``space_cells()``, ``shared_subplans`` and
   ``subplan_store_cells`` are **≤**; the join-work counters of the
   engines that now read a memo another engine filled
   (``join_operations``, ``index_probes``, ``scan_fallbacks``,
   ``partial_matches_created``, ``expired_partials``,
   ``subplan_reuses``) follow from that.  Where the record count is
   unchanged nothing was merged and every figure is equal.
2. **The registry's per-record ``reuses`` restarts from the replay**
   (``session_stats()["subplan_reuses"]``): records are rebuilt, not
   stored.  Each engine's cumulative ``stats.subplan_reuses`` is data and
   is carried.
3. **A childless MS-tree anchor is history, not window.**  The global
   tree's depth-1 anchor for a first-sub-query match is created with its
   first join partner and survives its children
   (``tests/core/test_anchor_lifecycle.py``); one whose partners had all
   expired before the checkpoint has nothing in the window to re-create
   it, so under ``storage="mstree"`` ``space_cells()`` may be lower by
   ``MS_NODE_CELLS`` per such anchor — never higher — until the next
   partner arrives.  ``storage="independent"`` has no anchors.

Two things are not state and are not compared: a sharded session's
``facade_cpu_seconds`` and ``per_shard`` rows time worker processes, which
are new after a restore; and the snapshot baselines (``sjtree``,
``incmat``, ``naive``) enumerate Python sets, whose iteration order
follows their insertion history, so the matches *one baseline query* emits
in a row are compared as a multiset (a Timing engine's come in the same
order, and so does everything else).

Checkpoint → restore → checkpoint is compared as *decoded data*, not as
bytes: ``pickle`` writes a set in hash order and shares equal strings by
object identity, neither of which is session state.
"""

import io
import multiprocessing
import os
import pickle
import random
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ANY, CountSlidingWindow, EngineConfig, Prefix, QueryGraph, Session,
    ShardedSession, SlidingWindow, StreamEdge, TimingMatcher, faults,
)
from repro.datasets import (
    generate_netflow_stream, generate_query_set, window_slice,
)
from repro.graph.stream import GraphStream
from repro.isomorphism import BoostISO
from repro.persistence import (
    _FRAME_HEADER, _FRAME_MAGIC, _MAGIC, CHECKPOINT_VERSION,
    CheckpointCorruptError, CheckpointError, _load, load_session,
)

from .test_session_routing import (
    labeled_path_query, labeled_stream, query_set,
)

TRANSPORT = os.environ.get("REPRO_TEST_TRANSPORT")

#: ``session_stats()`` keys that are not session state (see the module
#: docstring: item 2 and the worker timings).
NOT_STATE = ("subplan_reuses", "facade_cpu_seconds", "per_shard")

#: Engine counters that sharing cannot move: what arrived, what matched,
#: what was emitted, what expired.
ANSWER_COUNTERS = ("edges_seen", "edges_matched", "matches_emitted",
                   "expired_edges", "edges_skipped")


def make_session(**options):
    if options.get("sharding") == "process" and TRANSPORT:
        options.setdefault("transport", TRANSPORT)
    return Session(**options)


def close(session):
    if isinstance(session, ShardedSession):
        session.close()


def checkpoint(session) -> bytes:
    buffer = io.BytesIO()
    session.checkpoint(buffer)
    return buffer.getvalue()


def observe(session) -> dict:
    return {
        "names": session.names(),
        "clock": session.current_time,
        "counts": session.result_counts(),
        "matches": {name: Counter(matches) for name, matches
                    in session.current_matches().items()},
        "space": session.space_cells(),
        "stats": session.stats(),
        "session": {key: value
                    for key, value in session.session_stats().items()
                    if key not in NOT_STATE},
    }


def in_order(produced, unordered):
    """``produced`` with each run of one baseline query's matches
    sorted (see the module docstring)."""
    runs = []
    for name, match in produced:
        if not runs or runs[-1][0] != name:
            runs.append((name, []))
        runs[-1][1].append(match)
    return [(name, sorted(matches, key=repr) if name in unordered
             else matches) for name, matches in runs]


def play(script, interrupt, **options):
    """Run ``script`` on a fresh session; with ``interrupt`` each
    ``("checkpoint",)`` step is a checkpoint → close → restore.  Returns
    what every step after the first checkpoint produced and left.  A
    ``register`` step's query, and its window when it is a policy object,
    are factories: every play builds its own."""
    session = make_session(**options)
    trace, recording = [], False
    baselines = {op[1] for op in script
                 if op[0] == "register" and "backend" in op[3]}
    try:
        for op in script:
            kind, produced = op[0], None
            if kind == "register":
                register(session, *op[1:])
            elif kind == "deregister":
                session.deregister(op[1])
            elif kind == "push":
                produced = in_order(session.push_many(op[1]), baselines)
            elif kind == "advance":
                session.advance_time(op[1])
            elif kind == "checkpoint":
                recording = True
                if interrupt:
                    blob, kept = checkpoint(session), type(session)
                    close(session)
                    session = Session.restore(io.BytesIO(blob))
                    assert type(session) is kept
            if recording:
                trace.append((kind, produced, observe(session)))
    finally:
        close(session)
    return trace


def register(session, name, query, spec):
    if callable(spec.get("window")):
        spec = {**spec, "window": spec["window"]()}
    return session.register(name, query(), **spec)


def assert_restored_equals_uninterrupted(script, **options):
    straight = play(script, False, **options)
    restored = play(script, True, **options)
    assert len(straight) == len(restored) > 1
    for (kind, expected, live), (_, got, seen) in zip(straight, restored):
        assert got == expected, kind        # ordered, not just a multiset
        assert seen == live, kind
    return straight


# --------------------------------------------------------------------- #
# The scripted matrix: storage × routing × sharding × window kind
# --------------------------------------------------------------------- #

def planned_query():
    return labeled_path_query(3, vstart=1, elabels=("x", "y", "z"))


def unordered_query():
    """No timing order: three one-edge TC-subqueries, so a ``random``
    join order has something to choose."""
    return labeled_path_query(3, vstart=0, elabels=("x", "y", "z"),
                              timing=None)


def busy_script(edges, cut):
    """Every kind of registration the matrix asks for, a mid-stream
    registrant whose watermark is still inside the window at the
    checkpoint, a deregistration before it, and churn after it."""
    plan = [("e0", "e1"), ("e2",)]
    script = [("register", name, (lambda name=name: query_set()[name]), {})
              for name in query_set()]          # p1x is a one-edge query
    script += [
        ("register", "t0",
         lambda: labeled_path_query(2, elabels=("x", "y")), {}),
        ("register", "t1",
         lambda: labeled_path_query(2, elabels=("x", "y")), {}),
        ("register", "short",
         lambda: labeled_path_query(2, elabels=("x", "y")),
         {"window": 3.0}),                      # a second time group
        ("register", "last25",
         lambda: labeled_path_query(2, vstart=1, elabels=("y", "z")),
         {"window": lambda: CountSlidingWindow(25)}),   # a count group
        ("register", "policy6",
         lambda: labeled_path_query(1, vstart=1, elabels=("z",)),
         {"window": lambda: SlidingWindow(6.0)}),   # a policy object
        ("register", "sj", lambda: labeled_path_query(2, elabels=("x", "y")),
         {"backend": "sjtree"}),
        ("register", "inc", lambda: labeled_path_query(2, elabels=("y", "z")),
         {"backend": "incmat", "algorithm": BoostISO()}),
        ("register", "naive", lambda: labeled_path_query(2, elabels=("z", "x")),
         {"backend": "naive", "duplicate_policy": "count"}),
        ("register", "planned", planned_query,
         {"decomposition": plan, "join_order": plan}),
        ("register", "rnd", unordered_query,
         {"config": EngineConfig(decomposition="random",
                                 join_order="random", seed=5)}),
        ("push", edges[:cut - 25]),
        ("register", "late",
         lambda: labeled_path_query(2, elabels=("x", "y")), {}),
        ("deregister", "p2y"),
        ("push", edges[cut - 25:cut]),
        ("advance", edges[cut - 1].timestamp + 0.05),
        ("checkpoint",),
    ]
    half = (len(edges) - cut) // 2
    script += [("push", edges[i:min(i + 15, cut + half)])
               for i in range(cut, cut + half, 15)]
    script += [
        ("advance", edges[cut + half - 1].timestamp + 0.01),
        ("register", "after",
         lambda: labeled_path_query(2, elabels=("x", "y")), {}),
        ("deregister", "t0"),
        ("push", edges[cut + half:]),
        ("advance", edges[-1].timestamp + 100.0),   # time windows drain
    ]
    return script


MATRIX = [
    pytest.param(storage, routing, sharding,
                 id=f"{storage}-{routing}-{sharding}")
    for storage in ("mstree", "independent")
    for routing, sharding in (("shared", "none"), ("fanout", "none"),
                              ("shared", "thread"), ("shared", "process"))
]


class TestScriptedMatrix:
    @pytest.mark.parametrize("storage, routing, sharding", MATRIX)
    def test_restored_equals_uninterrupted(self, storage, routing,
                                           sharding):
        edges = labeled_stream(71, 260)
        trace = assert_restored_equals_uninterrupted(
            busy_script(edges, 150), window=6.0, shards=2,
            config=EngineConfig(storage=storage, routing=routing,
                                sharding=sharding))
        first = trace[0][2]
        # Non-vacuous: state at the cut, matches after it, stateless,
        # late and baseline members all present.
        assert first["space"] > 0 and "late" in first["counts"]
        assert sum(len(matches) for _, produced, _ in trace
                   for _, matches in produced or ()) > 20
        assert first["session"]["stateless_queries"] == 2
        assert first["session"]["shared_groups"] == (
            0 if routing == "fanout" else 3)
        assert trace[-1][2]["counts"]["t1"] == 0    # time windows drained

    @pytest.mark.parametrize("sharding", ["none", "thread"])
    def test_plans_are_rebuilt_as_they_were(self, sharding):
        """The resolved join order rides in the recipe, so an explicit
        plan and a ``random`` one come back identical."""
        edges = labeled_stream(71, 160)
        session = make_session(window=6.0, sharding=sharding, shards=2)
        for op in busy_script(edges, 150):
            if op[0] == "register":
                register(session, *op[1:])
        session.push_many(edges)
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        try:
            for name in ("planned", "rnd", "t0", "p3"):
                assert restored.matcher(name).join_order \
                    == session.matcher(name).join_order, name
            assert restored.matcher("planned").join_order \
                == [("e0", "e1"), ("e2",)]
            assert restored.matcher("rnd").config.seed == 5
        finally:
            close(session)
            close(restored)


# --------------------------------------------------------------------- #
# Per group, not over the union of buffers
# --------------------------------------------------------------------- #

def any_edge_query():
    query = QueryGraph()
    query.add_vertex("u", ANY)
    query.add_vertex("v", ANY)
    query.add_vertex("w", ANY)
    query.add_edge("e0", "u", "v")
    query.add_edge("e1", "v", "w")
    query.add_timing_chain("e0", "e1")
    return query


def edge_at(timestamp, src, dst, edge_id=None):
    return StreamEdge(src, dst, src_label="A", dst_label="A", label="l",
                      timestamp=float(timestamp), edge_id=edge_id)


class TestReplayIsPerGroup:
    @pytest.mark.parametrize("policy", ["skip", "count"])
    @pytest.mark.parametrize("sharding", ["none", "thread"])
    def test_duplicate_live_in_one_group_fresh_in_another(self, policy,
                                                          sharding):
        """Bearer at t=10, the same id again at t=105, checkpoint at 120:
        the 100-unit group dropped the second as a live duplicate, the
        20-unit group buffered it as fresh — and in the union of the two
        buffers it outlives its bearer, so a union replay through
        admission would buffer it where the original did not."""
        script = [
            ("register", "w100", any_edge_query, {"window": 100.0}),
            ("register", "w20", any_edge_query, {"window": 20.0}),
            ("push", [edge_at(10, "a", "b", "X"), edge_at(50, "b", "c"),
                      edge_at(104, "c", "d"), edge_at(105, "d", "e", "X"),
                      edge_at(110, "e", "f")]),
            ("advance", 120.0),
            ("checkpoint",),
            # "X" once more: now fresh for w100, a live duplicate for w20.
            ("push", [edge_at(121, "f", "g", "X"), edge_at(122, "g", "h")]),
            ("push", [edge_at(130, "h", "i"), edge_at(131, "i", "j", "X")]),
            ("advance", 400.0),
        ]
        trace = assert_restored_equals_uninterrupted(
            script, duplicate_policy=policy, sharding=sharding, shards=2)
        first = trace[0][2]
        # w100 holds 50/104/110, w20 holds 104/105/110: the duplicate sits
        # in exactly one buffer (a sharded facade's shards repeat that).
        if sharding == "none":
            assert first["session"]["window_cells"] == 6
        skipped = first["stats"]["w100"]["edges_skipped"]
        assert skipped == (1 if policy == "count" else 0)
        (name, matches), = trace[1][1]
        assert name == "w100" and len(matches) == 2


# --------------------------------------------------------------------- #
# Mid-stream registrants: the watermark inside and outside the window
# --------------------------------------------------------------------- #

def engine_join_inputs():
    """The ``bench_e2e`` ``engine_join`` query and stream (same pinned
    generator seeds): match-heavy, four TC-subqueries, 1,500-unit
    window."""
    stream = list(generate_netflow_stream(8000, seed=42, num_ips=120))
    population = window_slice(GraphStream(stream), 300)
    query = generate_query_set(
        population, sizes=[5], per_size=1, rng=random.Random(0),
        generalize_label=lambda label: (ANY, label[1], label[2]))[4]
    return query, 1500.0, stream


class TestLateRegistrants:
    CUT, END = 3900, 5000

    def run(self, late, storage="mstree"):
        query, window, stream = engine_join_inputs()
        live = Session(window=window, config=EngineConfig(storage=storage))
        live.register("early", query)
        live.push_many(stream[:late])
        live.register("late", query)
        live.push_many(stream[late:self.CUT])
        since = live.matcher("late").window.since
        inside = since > live.current_time - window
        restored = Session.restore(io.BytesIO(checkpoint(live)))
        assert restored.matcher("late").window.since == since
        before = observe(live), observe(restored)
        later = (live.push_many(stream[self.CUT:self.END]),
                 restored.push_many(stream[self.CUT:self.END]))
        assert later[0] == later[1] and len(later[0]) > 500
        after = observe(live), observe(restored)
        return before, after, inside

    @staticmethod
    def assert_answers_equal_figures_no_higher(live, restored):
        for key in ("names", "clock", "counts", "matches"):
            assert restored[key] == live[key], key
        assert restored["space"] <= live["space"]
        for key in ("shared_subplans", "subplan_store_cells"):
            assert restored["session"][key] <= live["session"][key], key
        for name, stats in live["stats"].items():
            for counter in ANSWER_COUNTERS:
                assert restored["stats"][name][counter] == stats[counter]

    def test_watermark_inside_the_window_every_figure_equal(self):
        before, after, inside = self.run(late=3500)
        assert inside
        assert before[0] == before[1]
        assert after[0] == after[1]
        assert before[0]["session"]["shared_subplans"] == 5

    def test_watermark_inside_the_window_can_still_share_more(self):
        """A store that was non-empty at the watermark may hold nothing
        the current window explains: one record merges (6 → 5)."""
        before, after, inside = self.run(late=3000)
        assert inside
        for live, restored in (before, after):
            self.assert_answers_equal_figures_no_higher(live, restored)
        assert before[0]["space"] == before[1]["space"] == 3680
        assert (before[0]["session"]["shared_subplans"],
                before[1]["session"]["shared_subplans"]) == (6, 5)
        assert after[1]["space"] < after[0]["space"]

    @pytest.mark.parametrize("storage, live_cells, restored_cells",
                             [("mstree", 4570, 2285),
                              ("independent", 3656, 1828)])
    def test_watermark_outside_the_window_sharing_improves(
            self, storage, live_cells, restored_cells):
        """Both engines now register over empty stores and share every
        sub-plan: the one legitimate difference, pinned."""
        before, after, inside = self.run(late=1000, storage=storage)
        assert not inside
        for live, restored in (before, after):
            self.assert_answers_equal_figures_no_higher(live, restored)
        assert (before[0]["space"], before[1]["space"]) \
            == (live_cells, restored_cells)
        assert (before[0]["session"]["shared_subplans"],
                before[1]["session"]["shared_subplans"]) == (6, 3)
        # Engine counters are data: carried exactly, whatever is shared.
        assert before[0]["stats"] == before[1]["stats"]


# --------------------------------------------------------------------- #
# Privately-buffering matchers
# --------------------------------------------------------------------- #

class TestPrivateMatchers:
    @pytest.mark.parametrize("drained", [False, True])
    def test_prefilled_policy_stays_private(self, drained):
        """A pre-filled window keeps its matcher off the shared buffers;
        its ballast is re-buffered, never inserted — and it stays private
        after the ballast has expired and the policy looks fresh."""
        edges = labeled_stream(13, 120)

        def prefilled():
            window = CountSlidingWindow(30)
            for edge in edges[:10]:
                window.push(edge)
            return window

        cut = 60 if drained else 25
        script = [
            ("register", "shared",
             lambda: labeled_path_query(2, elabels=("x", "y")), {}),
            ("push", edges[10:12]),
            ("register", "private",
             lambda: labeled_path_query(2, elabels=("x", "y")),
             {"window": prefilled}),
            ("push", edges[12:cut]),
            ("checkpoint",),
            ("push", edges[cut:90]),
            ("push", edges[90:]),
        ]
        trace = assert_restored_equals_uninterrupted(script, window=6.0)
        first = trace[0][2]["session"]
        assert first["shared_groups"] == 1      # "private" is in none
        assert first["window_cells"] - first["shared_window_cells"] \
            == min(30, 10 + cut - 12)
        # Ballast was never inserted: only what was pushed was seen.
        assert trace[0][2]["stats"]["private"]["edges_seen"] == cut - 12
        assert sum(len(produced) for _, produced, _ in trace[1:]) > 0


# --------------------------------------------------------------------- #
# Randomized scripts
# --------------------------------------------------------------------- #

SHAPES = [
    lambda: labeled_path_query(1, elabels=("x",)),
    lambda: labeled_path_query(2, elabels=("x", "y")),
    lambda: labeled_path_query(2, vstart=1, elabels=("y", "z")),
    lambda: labeled_path_query(3, elabels=("x", "y", "z")),
    lambda: labeled_path_query(2, elabels=(ANY,)),
    lambda: labeled_path_query(2, elabels=(Prefix("x"), "y"), timing=None),
]


def random_script(seed):
    rng = random.Random(seed)
    reuse_ids = rng.random() < 0.4
    options = {
        "window": 4.0,
        "config": EngineConfig(
            storage=rng.choice(["mstree", "independent"]),
            routing=rng.choice(["shared", "shared", "fanout"]),
            duplicate_policy=rng.choice(["skip", "count"])),
    }
    if options["config"].routing == "shared" and rng.random() < 0.3:
        options["config"] = options["config"].replace(
            sharding="thread", shards=2)
    capacity = rng.randint(5, 15)
    windows = [{}, {}, {"window": 2.0},
               {"window": lambda: CountSlidingWindow(capacity)}]
    backends = ["timing"] * 5 + ["sjtree", "incmat", "naive"]
    edges = iter(labeled_stream(seed, 400, n_vertices=8, dt=0.3,
                                id_pool=9 if reuse_ids else None))
    names, script, serial = [], [], iter(range(10 ** 6))

    def add_query():
        name = f"q{next(serial)}"
        spec = dict(rng.choice(windows))
        backend = rng.choice(backends)
        if backend != "timing":
            spec["backend"] = backend
        names.append(name)
        script.append(("register", name, rng.choice(SHAPES), spec))

    for _ in range(rng.randint(1, 4)):
        add_query()
    clock = 0.0
    steps = rng.randint(12, 30)
    cut = rng.randrange(2, steps)
    for step in range(steps):
        if step == cut:
            script.append(("checkpoint",))
        roll = rng.random()
        if roll < 0.6 or not names:
            batch = [next(edges) for _ in range(rng.randint(1, 8))]
            clock = batch[-1].timestamp
            script.append(("push", batch))
        elif roll < 0.7:
            script.append(("advance", clock))
        elif roll < 0.88:
            add_query()
        else:
            script.append(("deregister",
                           names.pop(rng.randrange(len(names)))))
    script.append(("push", [next(edges) for _ in range(10)]))
    return script, options


class TestRandomizedScripts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_answers_equal_and_figures_no_higher(self, seed):
        script, options = random_script(seed)
        straight = play(script, False, **options)
        restored = play(script, True, **options)
        assert len(straight) == len(restored) > 1
        merged = False      # once sharing improved, its counters follow
        for (kind, expected, live), (_, got, seen) \
                in zip(straight, restored):
            assert got == expected, kind
            merged = merged or seen["session"]["shared_subplans"] \
                != live["session"]["shared_subplans"]
            if merged:
                TestLateRegistrants.assert_answers_equal_figures_no_higher(
                    live, seen)
                continue
            # Nothing merged: every figure equal, but for anchors.
            assert seen["space"] <= live["space"], kind
            if options["config"].storage == "independent":
                assert seen["space"] == live["space"], kind
            assert {**seen, "space": 0} == {**live, "space": 0}, kind


# --------------------------------------------------------------------- #
# checkpoint → restore → checkpoint
# --------------------------------------------------------------------- #

def decoded(value):
    """A checkpoint's decoded data as one hashable value (class names for
    instances, sets and dicts unordered)."""
    if isinstance(value, dict):
        return frozenset((decoded(k), decoded(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return frozenset(decoded(v) for v in value)
    if isinstance(value, (list, tuple)):
        return tuple(decoded(v) for v in value)
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return value
    if isinstance(value, type):
        return value.__qualname__
    state = value.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    return (type(value).__qualname__, decoded(state[1:3]))


def busy_session(**options):
    """A mixed session mid-stream: every backend, three window groups,
    a late registrant, predicates and tuple labels in the buffers."""
    edges = labeled_stream(71, 200)
    session = make_session(window=6.0, **options)
    for op in busy_script(edges, 150):
        if op[0] == "checkpoint":
            break
        if op[0] == "register":
            register(session, *op[1:])
        elif op[0] == "deregister":
            session.deregister(op[1])
        elif op[0] == "push":
            session.push_many(op[1])
    tuple_query = QueryGraph()
    tuple_query.add_vertex("u", ANY)
    tuple_query.add_vertex("v", Prefix("B"))
    tuple_query.add_edge("e", "u", "v", label=(ANY, 80))
    session.register("tuples", tuple_query)
    session.push(StreamEdge("t1", "t2", src_label=("A", 1),
                            dst_label="B2", label=("tcp", 80),
                            timestamp=session.current_time + 0.001))
    return session


class TestRoundTripIsIdentity:
    @pytest.mark.parametrize("options", [
        {}, {"routing": "fanout"}, {"sharding": "thread", "shards": 2}],
        ids=["shared", "fanout", "thread-shards"])
    def test_checkpoint_restore_checkpoint_is_the_same_data(self, options):
        session = busy_session(**options)
        first = checkpoint(session)
        close(session)
        restored = Session.restore(io.BytesIO(first))
        second = checkpoint(restored)
        close(restored)
        one = _load(io.BytesIO(first))["session"]
        two = _load(io.BytesIO(second))["session"]
        assert decoded(one) == decoded(two)
        assert len(one["queries"]) == 16
        assert len(one["groups"]) == (
            0 if options.get("routing") == "fanout" else 3)
        assert abs(len(first) - len(second)) < 0.02 * len(first)

    def test_runtime_wiring_is_dropped_not_stored(self):
        session = Session(window=lambda: CountSlidingWindow(10))
        session.register("q", labeled_path_query(2, elabels=("x", "y")),
                         callback=lambda name, match: None)
        session.add_sink(lambda name, match: None)
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        assert restored.default_window is None and restored._sinks == []
        assert restored._queries["q"].callback is None
        # The factory's policy object was a built-in one: named as data.
        assert restored._queries["q"].group_key == ("count", 10)


# --------------------------------------------------------------------- #
# What cannot be named as data is refused at checkpoint()
# --------------------------------------------------------------------- #

class TestRefusals:
    def test_factory_protocol_and_custom_policy_queries_are_named(self):
        class Minimal:
            stats = None

            def push(self, edge):
                return []

            def advance_time(self, timestamp):
                pass

        class OddWindow(SlidingWindow):
            pass

        session = Session(window=6.0)
        query = lambda: labeled_path_query(2, elabels=("x", "y"))  # noqa
        session.register("fine", query())
        session.register("made", query(),
                         backend=lambda q, w: TimingMatcher(q, w))
        session.register("bare", query(), backend=lambda q, w: Minimal())
        session.register("odd", query(), window=OddWindow(4.0))
        with pytest.raises(CheckpointError) as info:
            session.checkpoint(io.BytesIO())
        assert not isinstance(info.value, CheckpointCorruptError)
        assert "['made', 'bare', 'odd']" in str(info.value)
        for name in ("made", "bare", "odd"):
            session.deregister(name)
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        assert restored.names() == ["fine"]

    def test_label_of_an_unlisted_class_fails_at_checkpoint(self):
        """…with the label named, not at recovery."""
        import decimal
        session = Session(window=6.0)
        session.register("q", any_edge_query())
        session.push(StreamEdge("a", "b", src_label="A", dst_label="A",
                                label=decimal.Decimal("1.5"),
                                timestamp=1.0))
        with pytest.raises(CheckpointError, match=r"Decimal\('1\.5'\)"):
            session.checkpoint(io.BytesIO())


# --------------------------------------------------------------------- #
# The allow-listed unpickler
# --------------------------------------------------------------------- #

def framed(payload: bytes) -> io.BytesIO:
    """``payload`` inside a valid CRC frame."""
    return io.BytesIO(_FRAME_MAGIC + _FRAME_HEADER.pack(
        zlib.crc32(payload) & 0xFFFFFFFF, len(payload)) + payload)


class Names:
    """Pickles as a call of ``target(*args)``."""

    def __init__(self, target, *args):
        self.reduced = (target, args)

    def __reduce__(self):
        return self.reduced


class TestAllowListedUnpickler:
    def refused(self, obj, naming):
        envelope = {"magic": _MAGIC, "version": CHECKPOINT_VERSION,
                    "session": obj}
        with pytest.raises(CheckpointCorruptError) as info:
            load_session(framed(pickle.dumps(envelope)))
        assert "unreadable pickle" in info.value.reason
        assert naming in info.value.reason

    def test_os_system_is_never_called(self, tmp_path):
        marker = tmp_path / "called"
        self.refused(Names(os.system, f"touch {marker}"), "system")
        assert not marker.exists()

    def test_a_sink_is_never_opened(self, tmp_path):
        from repro.sinks import JSONLSink
        target = tmp_path / "opened.jsonl"
        self.refused(Names(JSONLSink, str(target)), "repro.sinks.JSONLSink")
        assert not target.exists()

    def test_an_engine_is_never_constructed(self, monkeypatch):
        built = []
        monkeypatch.setattr(TimingMatcher, "__init__",
                            lambda self, *args, **kw: built.append(args))
        self.refused(Names(TimingMatcher, any_edge_query(), 5.0),
                     "repro.core.engine.TimingMatcher")
        assert built == []

    def test_every_value_type_round_trips(self):
        session = busy_session()
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        assert restored.matcher("inc").algorithm.name == "BoostISO"
        assert restored.result_counts() == session.result_counts()


# --------------------------------------------------------------------- #
# A restore that fails part-way leaves no worker behind
# --------------------------------------------------------------------- #

def shm_rings():
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()


class TestFailedRestoreLeaksNothing:
    @pytest.mark.parametrize("fault, error", [
        ("crash", faults.InjectedFault),
        ("kill_worker", Exception),
    ])
    def test_workers_and_rings_are_shut_down(self, fault, error):
        session = make_session(window=6.0, sharding="process", shards=3)
        for name, query in query_set().items():
            session.register(name, query)
        session.push_many(labeled_stream(43, 80))
        blob = checkpoint(session)
        session.close()
        assert multiprocessing.active_children() == []
        rings = shm_rings()
        # The second shard's "adopt" is the second RPC of the restore.
        plan = faults.FaultPlan.parse(f"shard.rpc.send={fault}:at:2")
        with faults.active(plan):
            with pytest.raises(error) as info:
                Session.restore(io.BytesIO(blob))
        assert not isinstance(info.value, AssertionError)
        assert plan.report()["shard.rpc.send"]["fires"] == 1
        assert multiprocessing.active_children() == []
        assert shm_rings() == rings
        # …and the checkpoint itself is still good.
        restored = Session.restore(io.BytesIO(blob))
        assert restored.names() == list(query_set())
        restored.close()
