"""The logical checkpoint: what it keeps, what it refuses, how it fails.

A checkpoint is the query list and the windows; restore registers the
queries again and replays each window group's buffered edges (see
:mod:`repro.persistence`).  That a restored session answers exactly what
the naive matcher answers, across every mode, is
``tests/test_session_model.py``'s job.  Pinned here: that a restore
compared with the uninterrupted session differs in the three ways below
and no other (measured on the ``bench_e2e`` ``engine_join`` stream),
that registration refuses what no checkpoint could name and that every
registration it accepts round-trips, plans rebuilt as they were,
checkpoint → restore → checkpoint, the refusals, the allow-listed
unpickler and misshapen data in a valid frame.

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

Checkpoint → restore → checkpoint is compared as *decoded data*, not as
bytes: ``pickle`` writes a set in hash order and shares equal strings by
object identity, neither of which is session state.
"""

import io
import os
import pickle
import random
import zlib
from collections import Counter

import pytest

from repro import (
    ANY, CountSlidingWindow, EngineConfig, Prefix, QueryGraph, Session,
    SlidingWindow, StreamEdge, TimingMatcher,
)
from repro.api import BACKENDS
from repro.datasets import (
    generate_netflow_stream, generate_query_set, window_slice,
)
from repro.graph.shared_window import window_policy_from_key
from repro.graph.stream import GraphStream
from repro.isomorphism import BoostISO
from repro.persistence import (
    _FRAME_HEADER, _FRAME_MAGIC, _MAGIC, CHECKPOINT_VERSION,
    CheckpointCorruptError, CheckpointError, _dump, _load, load_session,
)

from .conftest import (
    checkpoint, labeled_path_query, labeled_stream, observe, query_set,
)

#: Engine counters that sharing cannot move: what arrived, what matched,
#: what was emitted, what expired.
ANSWER_COUNTERS = ("edges_seen", "edges_matched", "matches_emitted",
                   "expired_edges", "edges_skipped")


def register(session, name, query, spec):
    if callable(spec.get("window")):
        spec = {**spec, "window": spec["window"]()}
    return session.register(name, query(), **spec)


# --------------------------------------------------------------------- #
# Plans come back as they were
# --------------------------------------------------------------------- #

def planned_query():
    return labeled_path_query(3, vstart=1, elabels=("x", "y", "z"))


def unordered_query():
    """No timing order: three one-edge TC-subqueries, so a ``random``
    join order has something to choose."""
    return labeled_path_query(3, vstart=0, elabels=("x", "y", "z"),
                              timing=None)


def busy_script(edges, cut):
    """Every kind of registration, then ``cut`` edges with a mid-stream
    registrant — its watermark still inside the window at the closing
    ``("checkpoint",)`` — and a deregistration."""
    plan = [("e0", "e1"), ("e2",)]
    script = [("register", name, (lambda name=name: query_set()[name]), {})
              for name in query_set()]          # p1x is a one-edge query
    return script + [
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


class TestPlans:
    def test_plans_are_rebuilt_as_they_were(self):
        """The resolved join order rides in the recipe, so an explicit
        plan and a ``random`` one come back identical."""
        session = busy_session()
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        for name in ("planned", "rnd", "t0", "p3"):
            assert restored.matcher(name).join_order \
                == session.matcher(name).join_order, name
        assert restored.matcher("planned").join_order \
            == [("e0", "e1"), ("e2",)]
        assert restored.matcher("rnd").config.seed == 5


def any_edge_query():
    query = QueryGraph()
    query.add_vertex("u", ANY)
    query.add_vertex("v", ANY)
    query.add_vertex("w", ANY)
    query.add_edge("e0", "u", "v")
    query.add_edge("e1", "v", "w")
    query.add_timing_chain("e0", "e1")
    return query


# --------------------------------------------------------------------- #
# Mid-stream registrants: the watermark inside and outside the window
# --------------------------------------------------------------------- #

def engine_join_inputs(length=8000):
    """The ``bench_e2e`` ``engine_join`` query and the first ``length``
    edges of its stream (same pinned generator seeds): match-heavy, four
    TC-subqueries, 1,500-unit window."""
    stream = list(generate_netflow_stream(length, seed=42, num_ips=120))
    population = window_slice(GraphStream(stream[:8000]), 300)
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
# No member buffers privately: registration refuses what could
# --------------------------------------------------------------------- #

#: What registration says to a window-policy class of its own.
CUSTOM_POLICY = (
    "window for query 'own' must be a duration, SlidingWindow(duration) "
    "or CountSlidingWindow(capacity), not OwnWindow: a session member "
    "reads its window group's shared buffer")


class TestNoPrivateMembers:
    @pytest.mark.parametrize("kind", [SlidingWindow, CountSlidingWindow])
    def test_a_prefilled_policy_is_refused(self, kind):
        """A policy object already holding edges would hand its matcher
        edges it never ingested, which a checkpoint cannot replay: the
        session refuses it before any state changes — a query starts
        with an empty window."""
        edges = labeled_stream(13, 20)
        session = Session(window=6.0)
        session.register("shared", labeled_path_query(2, elabels="xy"))
        session.push_many(edges[:10])
        window = kind(6.0) if kind is SlidingWindow else kind(30)
        window.push(edges[10])
        before = observe(session)
        with pytest.raises(ValueError) as info:
            session.register("p", labeled_path_query(2, elabels="xy"),
                             window=window)
        assert str(info.value) == (
            "window policy object for query 'p' already holds 1 "
            "edge(s); pass an empty one — a query starts with an empty "
            "window")
        assert observe(session) == before
        assert session._next_ordinal == 1
        assert list(session._admission.groups) == [("time", 6.0)]
        # An empty one joins its window group.
        window = kind(6.0) if kind is SlidingWindow else kind(30)
        session.register("p", labeled_path_query(2, elabels="xy"),
                         window=window)
        assert session.names() == ["shared", "p"]

    @pytest.mark.parametrize("base", [SlidingWindow, CountSlidingWindow])
    def test_a_custom_policy_class_is_refused(self, base):
        """A subclass of a built-in policy has no window group (it may
        expire differently), so it could only buffer privately — which no
        checkpoint can name.  Registration refuses it, given directly or
        by the session's default window factory, before any state
        changes."""
        class OwnWindow(base):
            pass

        def own():
            return OwnWindow(6.0) if base is SlidingWindow else OwnWindow(30)

        session = Session(window=own)
        session.register("shared", labeled_path_query(2, elabels="xy"),
                         window=6.0)
        session.push_many(labeled_stream(14, 20))
        before = observe(session)
        for window in (own(), None):
            with pytest.raises(ValueError) as info:
                session.register("own", labeled_path_query(2, elabels="xy"),
                                 window=window)
            assert str(info.value) == CUSTOM_POLICY
            assert observe(session) == before
            assert session._next_ordinal == 1
            assert list(session._admission.groups) == [("time", 6.0)]


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
    session = Session(window=6.0, **options)
    for op in busy_script(edges, 150):
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
    def test_checkpoint_restore_checkpoint_is_the_same_data(self):
        session = busy_session()
        first = checkpoint(session)
        restored = Session.restore(io.BytesIO(first))
        second = checkpoint(restored)
        one = _load(io.BytesIO(first))["session"]
        two = _load(io.BytesIO(second))["session"]
        assert decoded(one) == decoded(two)
        assert len(one["queries"]) == 16
        assert len(one["groups"]) == 3
        assert abs(len(first) - len(second)) < 0.02 * len(first)

    def test_a_config_field_since_removed_is_dropped(self):
        """A checkpoint written when ``EngineConfig`` still had
        ``indexing`` and ``subplan_sharing`` (here: a config given both
        as stray attributes, as unpickling such a file leaves them)
        restores with the same answers and re-saves neither field."""
        config = EngineConfig(storage="independent")
        object.__setattr__(config, "indexing", "scan")
        object.__setattr__(config, "subplan_sharing", "private")
        edges = labeled_stream(71, 200)
        session = Session(window=6.0, config=config)
        session.register("a", labeled_path_query(2, elabels=("x", "y")))
        session.register("b", labeled_path_query(2, elabels=("x", "y")),
                         config=config)
        session.push_many(edges[:150])
        saved = checkpoint(session)
        assert _load(io.BytesIO(saved))["session"]["config"].indexing \
            == "scan"
        restored = Session.restore(io.BytesIO(saved))
        assert observe(restored) == observe(session)
        assert restored.push_many(edges[150:]) \
            == session.push_many(edges[150:])
        data = _load(io.BytesIO(checkpoint(restored)))["session"]
        for config in [data["config"]] + [saved["config"]
                                          for saved in data["queries"]]:
            assert config == EngineConfig(storage="independent")
            assert vars(config).keys() == {
                "storage", "decomposition", "join_order", "seed",
                "duplicate_policy"}

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
# Every registration can be named as data; a label class may not be
# --------------------------------------------------------------------- #

#: The window specs registration accepts, each as ``(session default,
#: register(window=...))``, the policy objects built fresh per call.
WINDOWS = {
    "duration": (lambda: None, lambda: 8.0),
    "time-policy": (lambda: None, lambda: SlidingWindow(8.0)),
    "count-policy": (lambda: None, lambda: CountSlidingWindow(40)),
    "factory": (lambda: (lambda: CountSlidingWindow(40)), lambda: None),
}


class TestRefusals:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_every_accepted_registration_round_trips(self, backend, window):
        """Every backend on every window spec registration accepts joins
        a window group and comes back from checkpoint → restore in it,
        answering and streaming on exactly as the live session does."""
        default, spec = WINDOWS[window]
        edges = labeled_stream(29, 160, n_vertices=6)
        session = Session(window=default())
        session.register(
            "q", labeled_path_query(2, elabels=("x", "y"), timing=None),
            backend=backend, window=spec())
        session.push_many(edges[:100])
        assert session.result_counts()["q"] > 0
        restored = Session.restore(io.BytesIO(checkpoint(session)))
        assert restored.names() == ["q"]
        assert restored._queries["q"].group_key \
            == session._queries["q"].group_key \
            == (("time", 8.0) if window in ("duration", "time-policy")
                else ("count", 40))
        assert Counter(restored.current_matches()["q"]) \
            == Counter(session.current_matches()["q"])
        assert restored.stats() == session.stats()
        later = session.push_many(edges[100:])
        assert later and restored.push_many(edges[100:]) == later

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
# Allowed types in the wrong shape, inside a valid CRC frame
# --------------------------------------------------------------------- #

def saved_envelope() -> dict:
    """A decoded checkpoint of two queries on two window groups."""
    session = Session(window=6.0)
    session.register("a", labeled_path_query(2, elabels=("x", "y")))
    session.register("b", labeled_path_query(1, elabels=("x",)),
                     window=CountSlidingWindow(5))
    session.push_many(labeled_stream(31, 40))
    return _load(io.BytesIO(checkpoint(session)))


def set_query(i, field, value):
    def mutate(data):
        data["queries"][i][field] = value
    return mutate


#: name -> (how the saved data is bent, the reason's start: the field).
MISSHAPEN = {
    "stray-group-none": (set_query(0, "group", None),
                         "queries[0] has an unknown field 'group'"),
    "stray-group-unknown": (set_query(0, "group", ("time", 99.0)),
                            "queries[0] has an unknown field 'group'"),
    "window-of-no-saved-group": (set_query(0, "window", 99.0),
                                 "queries[0].window's group is not in "
                                 "groups"),
    "queries-not-a-list": (lambda data: data.update(
        queries=tuple(data["queries"])), "session.queries is misshapen"),
    "query-without-name": (lambda data: data["queries"][0].pop("name"),
                           "queries[0] lacks 'name'"),
    "group-not-a-pair": (lambda data: data["groups"].append(
        (("time", 6.0),)), "session.groups is misshapen"),
    "since-a-string": (set_query(1, "since", "1.5"),
                       "queries[1].since is misshapen: '1.5'"),
    "clock-a-string": (lambda data: data.update(clock="16.0"),
                       "session.clock is misshapen: '16.0'"),
    "window-a-string": (set_query(0, "window", "6"),
                        "queries[0].window is misshapen: '6'"),
    "unknown-backend": (set_query(0, "backend", "quantum"),
                        "queries[0].backend is misshapen: 'quantum'"),
    "duplicate-query": (lambda data: data["queries"].append(
        data["queries"][0]), "queries[2].name repeats 'a'"),
    "unknown-window-kind": (set_query(1, "window", ("bogus", 5)),
                            "queries[1].window is misshapen: "
                            "('bogus', 5)"),
    "window-no-float-holds": (set_query(0, "window", 10**400),
                              "queries[0].window is misshapen: 1000"),
}


class TestMisshapenCheckpoints:
    def test_the_unbent_envelope_loads(self):
        restored = load_session(framed_envelope(saved_envelope()))
        assert restored.names() == ["a", "b"]

    @pytest.mark.parametrize("name", sorted(MISSHAPEN))
    def test_is_refused_naming_the_field(self, name):
        """Each of these crashed restore with a raw exception or, for an
        unknown window kind, loaded as a count window; a gateway boot
        catches only :class:`CheckpointError`, so none could fall back
        down the checkpoint chain."""
        mutate, reason = MISSHAPEN[name]
        envelope = saved_envelope()
        mutate(envelope["session"])
        with pytest.raises(CheckpointCorruptError) as info:
            load_session(framed_envelope(envelope))
        assert info.value.reason.startswith(reason), info.value.reason
        assert info.value.path == "<stream>"

    def test_an_unknown_window_kind_names_no_policy(self):
        with pytest.raises(ValueError, match="unknown window policy kind"):
            window_policy_from_key(("bogus", 3.0))


def framed_envelope(envelope: dict) -> io.BytesIO:
    buffer = io.BytesIO()
    _dump(envelope, buffer)
    buffer.seek(0)
    return buffer
