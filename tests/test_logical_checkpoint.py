"""The logical checkpoint: what it keeps, what it refuses, how it fails.

A checkpoint is the query list and the windows; restore registers the
queries again and replays each window group's buffered edges (see
:mod:`repro.persistence`).  That a restored session — and a process shard
killed and restored from its last checkpoint — answers exactly what the
naive matcher answers, across every mode, is
``tests/test_session_model.py``'s job.  Pinned here: that a restore
compared with the uninterrupted session differs in the three ways below
and no other (measured on the ``bench_e2e`` ``engine_join`` stream),
privately-buffering matchers, plans rebuilt as they were, checkpoint →
restore → checkpoint, the refusals, the allow-listed unpickler, and a
failed sharded restore leaking nothing.

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

Not state, and not compared: a sharded session's ``facade_cpu_seconds``
and ``per_shard`` rows time worker processes, which are new after a
restore.

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

from .conftest import (
    checkpoint, labeled_path_query, labeled_stream, query_set,
)

#: ``session_stats()`` keys that are not session state (see the module
#: docstring: item 2 and the worker timings).
NOT_STATE = ("subplan_reuses", "facade_cpu_seconds", "per_shard")

#: Engine counters that sharing cannot move: what arrived, what matched,
#: what was emitted, what expired.
ANSWER_COUNTERS = ("edges_seen", "edges_matched", "matches_emitted",
                   "expired_edges", "edges_skipped")


def close(session):
    if isinstance(session, ShardedSession):
        session.close()


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
    @pytest.mark.parametrize("sharding", ["none", "thread"])
    def test_plans_are_rebuilt_as_they_were(self, sharding):
        """The resolved join order rides in the recipe, so an explicit
        plan and a ``random`` one come back identical."""
        session = busy_session(sharding=sharding, shards=2)
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
        cut = 60 if drained else 25

        def session_at_cut():
            session = Session(window=6.0)
            session.register("shared", labeled_path_query(2, elabels="xy"))
            session.push_many(edges[10:12])
            window = CountSlidingWindow(30)
            for edge in edges[:10]:
                window.push(edge)
            session.register("private", labeled_path_query(2, elabels="xy"),
                             window=window)
            session.push_many(edges[12:cut])
            return session

        live = session_at_cut()
        restored = Session.restore(io.BytesIO(checkpoint(session_at_cut())))
        stats = live.session_stats()
        assert stats["shared_groups"] == 1      # "private" is in none
        assert stats["window_cells"] - stats["shared_window_cells"] \
            == min(30, 10 + cut - 12)
        # Ballast was never inserted: only what was pushed was seen.
        assert live.stats()["private"]["edges_seen"] == cut - 12
        produced = 0
        for batch in (edges[cut:90], edges[90:]):
            assert observe(restored) == observe(live)
            later = restored.push_many(batch)
            assert later == live.push_many(batch)
            produced += len(later)
        assert observe(restored) == observe(live) and produced > 0


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
        session = Session(window=6.0, sharding="process", shards=3)
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
