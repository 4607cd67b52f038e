"""An arrival is label-matched once: its expiry walks the list it was
inserted into.

The paper's ``Del(σ)`` must reach exactly the engines that ran ``Ins(σ)``
(Algorithms 2–3), and Lemma 1's label test decides which engines those
are.  A session runs that test once per arrival
(:meth:`~repro.ingest.RouteIndex.targets`) and each window group holds the
resulting list beside the buffered edge until the edge drops
(:class:`~repro.ingest.WindowGroup`).  Pinned here by counting calls:
how often the route index runs, which engines hear of which expiry, and
that registration changes made while an edge is held — from a sink
callback mid-arrival, or by re-using a name — change neither list.
"""

import io
import random
from collections import Counter

import pytest

from repro import (
    ANY, ListSink, Prefix, QueryGraph, Session, StreamEdge, TimingMatcher,
)
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.core.labeltrie import PredicateRouter
from repro.ingest import RouteIndex

from .conftest import ELABELS, labeled_path_query, labeled_stream


def exact_queries(count=16):
    """``count`` exact-label queries: one-, two- and three-edge paths
    (so stateless and stateful members both) over the conftest alphabet."""
    return {f"q{i:02d}": labeled_path_query(
        1 + i % 3, vstart=i % 3,
        elabels=(ELABELS[i % 3], ELABELS[(i // 3) % 3]))
        for i in range(count)}


@pytest.fixture
def calls(monkeypatch):
    """Counts route lookups, and records every engine ``_insert`` and
    ``_expire`` as ``(engine, edge)``."""
    seen = {"targets": 0, "insert": [], "expire": []}
    targets = RouteIndex.targets

    def counted_targets(self, edge):
        seen["targets"] += 1
        return targets(self, edge)

    monkeypatch.setattr(RouteIndex, "targets", counted_targets)
    for hook, kind in (("_insert", "insert"), ("_expire", "expire")):
        original = getattr(TimingMatcher, hook)

        def recorded(self, edge, _original=original, _kind=kind):
            seen[_kind].append((self, edge))
            return _original(self, edge)

        monkeypatch.setattr(TimingMatcher, hook, recorded)
    return seen


def stateful_inserts(inserted):
    return Counter((engine, edge) for engine, edge in inserted
                   if not engine.stateless)


class TestOneLookupPerArrival:
    def test_targets_runs_once_per_accepted_arrival(self, calls):
        session = Session(window=4.0)
        for name, query in exact_queries().items():
            session.register(name, query)
        assert session._index.exact_only
        edges = labeled_stream(5, 400)
        session.push_many(edges)
        assert session.shared_window_cells() < len(edges)   # edges expired
        assert calls["targets"] == len(edges)

    @pytest.mark.parametrize("windows", [(4.0,), (2.5, 6.0)])
    def test_each_ingested_edge_expires_once_per_stateful_engine(
            self, calls, windows):
        """Over one or two window groups, with a stateless member beside
        stateful ones and a query registered mid-stream: every
        ``(engine, edge)`` insertion into an engine that stores edges is
        matched by exactly one ``_expire``, and nothing else expires."""
        session = Session(window=windows[0])
        queries = exact_queries()
        for i, (name, query) in enumerate(queries.items()):
            session.register(name, query, window=windows[i % len(windows)])
        edges = labeled_stream(9, 400)
        session.push_many(edges[:200])
        session.register("late", labeled_path_query(2, elabels=("x", "y")))
        session.push_many(edges[200:])
        session.advance_time(edges[-1].timestamp + 10.0)
        assert session.space_cells() == 0
        expired = Counter(calls["expire"])
        assert expired == stateful_inserts(calls["insert"])
        assert set(expired.values()) == {1}
        late = session.matcher("late")
        assert all(edge.timestamp > edges[199].timestamp
                   for engine, edge in expired if engine is late)


def test_only_groups_with_a_stored_member_hold_arrivals():
    """A group of one-edge (stateless) members has nobody to deliver an
    expiry to, so it holds nothing; the first stored member makes it hold
    the arrivals it routes, and the last one out stops that."""
    session = Session(window=4.0)
    session.register("one", labeled_path_query(1, elabels=("x",)))
    group = session._admission.groups[("time", 4.0)]
    edges = labeled_stream(5, 120)
    session.push_many(edges[:40])
    assert not group.held
    session.register("two", labeled_path_query(2, elabels=("x", "y")))
    session.push_many(edges[40:80])
    assert group.held
    session.deregister("two")
    session.push_many(edges[80:])     # outlasts the 4-unit window
    assert edges[-1].timestamp - edges[80].timestamp > 4.0
    assert not group.held


class TestExactOnlyIndex:
    def test_answers_from_its_dict_without_a_memo(self):
        session = Session(window=4.0)
        for name, query in exact_queries().items():
            session.register(name, query)
        edges = labeled_stream(5, 200)
        session.push_many(edges)
        index = session._index
        for edge in edges[:50]:
            first = index.targets(edge)
            assert index.targets(edge) is first
        assert session.session_stats()["route_resolved_lists"] == 0

    def test_a_predicate_brings_resolved_lists(self):
        """A one-position predicate makes the index resolve lists per
        route bucket; once it leaves, the session is exact-only again
        and holds none."""
        session = Session(window=4.0)
        for name, query in exact_queries(4).items():
            session.register(name, query)
        wild = QueryGraph()
        wild.add_vertex("u", ANY)
        wild.add_vertex("v", ANY)
        wild.add_edge("e", "u", "v", label=Prefix("x"))
        session.register("wild", wild)
        assert not session._index.exact_only
        edges = labeled_stream(5, 100)
        found = Counter(name for name, _ in session.push_many(edges))
        stats = session.session_stats()
        assert 0 < stats["route_resolved_lists"] <= 4 + 1 + 2
        assert found["wild"] == sum(edge.label == "x" for edge in edges)
        session.deregister("wild")
        assert session._index.exact_only
        assert session.session_stats()["route_resolved_lists"] == 0


def port_queries(names):
    """One-edge queries on an ``ANY``-labelled edge whose label is the
    ``Prefix`` (or ``ANY``) ``names`` maps each name to — the shape of
    the prefix/wildcard routing benchmark."""
    queries = {}
    for name, label in names.items():
        query = QueryGraph()
        query.add_vertex("a", ANY)
        query.add_vertex("b", ANY)
        query.add_edge("e", "a", "b", label)
        queries[name] = query
    return queries


def port_stream(count, seed=3):
    rng = random.Random(seed)
    return [StreamEdge(f"h{i % 7}", f"h{i % 5 + 7}", src_label="ip",
                       dst_label="ip", timestamp=float(i),
                       label=rng.randint(10000, 19999))
            for i in range(count)]


class TestSingleBucketArrivals:
    def test_never_call_the_routers_union(self, monkeypatch):
        """Hot prefixes, wildcards and a cold tail: every arrival hits
        one prefix bucket or none, so the index answers each from a
        prebuilt list and never runs ``PredicateRouter.resolve``.  An
        overlapping shorter prefix sends exactly the arrivals that hit
        two buckets down the union path, once each, with the two hits
        ``targets`` already probed."""
        names = {f"hot{i}": Prefix(f"10{i}") for i in range(8)}
        names.update(wild0=ANY, wild1=ANY)
        names.update({f"cold{i}": Prefix(f"3{i:06d}") for i in range(40)})
        session = Session(window=50.0)
        for name, query in port_queries(names).items():
            session.register(name, query)
        calls = []
        resolve = PredicateRouter.resolve

        def counted(self, hits, is_loop):
            calls.append(sorted(key[2] for key, _ in hits))
            return resolve(self, hits, is_loop)

        monkeypatch.setattr(PredicateRouter, "resolve", counted)
        edges = port_stream(2000)
        found = Counter(name for name, _ in session.push_many(edges[:1000]))
        assert calls == []
        assert found == Counter(
            name for edge in edges[:1000] for name, label in names.items()
            if label is ANY or str(edge.label).startswith(label.prefix))
        assert found["wild0"] == 1000 and found["hot4"] > 0
        session.register("wide", port_queries({"wide": Prefix("10")})[
            "wide"])
        found = Counter(name for name, _ in session.push_many(edges[1000:]))
        wide = [edge.label for edge in edges[1000:]
                if 10000 <= edge.label < 11000]
        assert calls == [["10", str(label)[:3]] for label in wide
                         if label < 10800]
        assert calls and found["wide"] == len(wide) > len(calls)


def second_a_x_b(stream):
    """The second arrival whose triple is ``A -x-> B``: the first edge
    of ``labeled_path_query(n, elabels=("x", ...))``."""
    return [edge for edge in stream if edge.label == "x"
            and (edge.src_label, edge.dst_label) == ("A", "B")][1]


class TestHeldListsAreSnapshots:
    def test_sink_churn_mid_arrival_changes_neither_list(self, calls):
        """The one-edge ``alert`` matches the arrival first (lowest
        ordinal); its callback deregisters ``old`` and registers ``new``,
        both stored two-edge queries the arrival's triple routes to.  The
        arrival's own list — walked by the insertion loop, then held for
        its expiry — keeps ``old`` and never gains ``new``."""
        stream = labeled_stream(3, 60)
        trigger = second_a_x_b(stream)
        session = Session(window=50.0)
        session.register("alert", labeled_path_query(1, elabels=("x",)))
        session.register("old", labeled_path_query(2, elabels=("x", "y")))
        old = session.matcher("old")
        walked = []

        def churn(name, match):
            if match.edge_map and trigger in match.edge_map.values() \
                    and "old" in session:
                walked.append(list(held_list()))
                session.deregister("old")
                session.register(
                    "new", labeled_path_query(2, elabels=("x", "z")))

        def held_list():
            group = session._admission.groups[("time", 50.0)]
            edge, targets = group.held[-1]
            assert edge is trigger
            return targets

        session.set_callback("alert", churn)
        session.push_many(stream[:stream.index(trigger) + 1])
        assert walked, "the trigger arrival matched"
        assert [record.name for _, record in held_list()] == \
            ["alert", "old"] == [r.name for _, r in walked[0]]
        new = session.matcher("new")
        assert (new, trigger) not in calls["insert"]
        session.advance_time(trigger.timestamp + 100.0)
        # Nothing expired before the churn.  After it the deregistered
        # engine hears of no expiry, not even of the edge it did ingest,
        # and the newcomer ingested nothing.
        assert any(engine is old for engine, _ in calls["insert"])
        assert calls["expire"] == []

    def test_a_reused_name_never_hears_of_its_predecessors_edges(
            self, calls):
        stream = labeled_stream(7, 120)
        session = Session(window=30.0)
        session.register("q", labeled_path_query(2, elabels=("x", "y")))
        session.push_many(stream[:60])
        first = session.matcher("q")
        assert session._admission.groups[("time", 30.0)].held
        session.deregister("q")
        session.register("p", labeled_path_query(1, elabels=("x",)))
        session.register("q", labeled_path_query(2, elabels=("x", "y")))
        second = session.matcher("q")
        expired_before = len(calls["expire"])
        session.push_many(stream[60:])
        session.advance_time(stream[-1].timestamp + 100.0)
        after = calls["expire"][expired_before:]
        assert all(engine is not first for engine, _ in after)
        assert Counter(after) == stateful_inserts(
            [(engine, edge) for engine, edge in calls["insert"]
             if engine is second])


def naive_answers(queries, window, edges):
    """``{name: Counter(match)}`` over ``edges`` from one naive engine
    per query — the oracle."""
    answers = {}
    for name, query in queries.items():
        engine = NaiveSnapshotMatcher(query, window)
        answers[name] = Counter(
            match for edge in edges for match in engine.push(edge))
    return answers


@pytest.mark.parametrize("cut", [40, 150, 290])
def test_restored_mid_stream_answers_like_the_naive_matcher(cut):
    """A restore re-holds every buffered edge with its targets, so the
    restored engines expire what they replayed (else stale partials would
    join later arrivals)."""
    queries = exact_queries()
    edges = labeled_stream(11, 300)
    session = Session(window=5.0)
    for name, query in queries.items():
        session.register(name, query)
    sink = session.add_sink(ListSink())
    session.push_many(edges[:cut])
    buffer = io.BytesIO()
    session.checkpoint(buffer)
    buffer.seek(0)
    restored = Session.restore(buffer)
    assert [len(g.held) for g in restored._admission.groups.values()] == \
        [len(g.held) for g in session._admission.groups.values()]
    later = ListSink()
    restored.add_sink(later)
    restored.push_many(edges[cut:])
    got = {name: Counter() for name in queries}
    for name, match in [*sink, *later]:
        got[name][match] += 1
    assert got == naive_answers(queries, 5.0, edges)
    restored.advance_time(edges[-1].timestamp + 10.0)
    assert restored.space_cells() == 0
