"""Property suite for the predicate-routing primitives.

The prefix walk is predicate routing's hot path: a session resolves
the candidate matcher set for an arriving label with one probe per stored
pattern length, so the walk must agree *exactly* with the brute-force
definition ("every stored pattern that is a prefix of the text", each
once) under arbitrary insert/remove churn, and must drop emptied buckets
on removal so deregistration-heavy sessions cannot leak.  The router on
top adds per-position composition (src/edge/dst atoms plus the loop
flag), pinned against its own brute force; its one-position tokens skip
the count that its two- and three-position tokens need, and the explicit
examples keep both paths exact.  A session matches a one-edge query by
its route alone, so the router is also pinned against the engine's own
label test, :meth:`~repro.core.query.QueryGraph.edge_matches`, both ways.
"""

import pickle
import random
from collections import Counter, defaultdict
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ANY, Prefix, QueryGraph, StreamEdge
from repro.core.labeltrie import LabelTrie, PredicateRouter
from repro.core.query import prefix_text

#: Small alphabet so random patterns collide and share prefixes often —
#: shared-prefix paths are exactly what the walk must get right.
ALPHABET = "ab4"

patterns = st.text(alphabet=ALPHABET, min_size=1, max_size=6)
texts = st.text(alphabet=ALPHABET, min_size=0, max_size=10)


def walk(trie, text):
    """The tokens of the buckets :meth:`LabelTrie.buckets` reports for
    ``text``; each reported pattern is a distinct prefix of ``text``."""
    found = trie.buckets(text)
    patterns = [pattern for pattern, _ in found]
    assert len(set(patterns)) == len(patterns)
    assert all(text.startswith(pattern) for pattern in patterns)
    return [token for _, tokens in found for token in tokens]


def brute_force_walk(stored, text):
    """The specification: tokens of every pattern that prefixes text,
    once per pattern."""
    return Counter(token for pattern, tokens in stored.items()
                   if text.startswith(pattern) for token in tokens)


class TestLabelTrieProperties:
    @given(st.lists(patterns, min_size=0, max_size=30), st.lists(
        texts, min_size=1, max_size=20))
    # A one-character label equal to the shorter of two stored lengths:
    # ``text[:2]`` is the whole label, so a walk that probed lengths
    # longer than the label would hit the "a" bucket twice.
    @example(pats=["a", "ab"], probes=["a", "ab", "", "b"])
    def test_walk_equals_brute_force(self, pats, probes):
        trie = LabelTrie()
        stored = defaultdict(set)
        for i, pattern in enumerate(pats):
            trie.insert(pattern, i)
            stored[pattern].add(i)
        for text in probes:
            assert Counter(walk(trie, text)) == brute_force_walk(stored, text)

    @given(st.lists(patterns, min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    def test_churn_keeps_walk_exact_and_prunes(self, pats, seed):
        rng = random.Random(seed)
        trie = LabelTrie()
        stored = defaultdict(set)
        live = []
        for i, pattern in enumerate(pats):
            if live and rng.random() < 0.4:
                victim = rng.randrange(len(live))
                rpat, rtok = live.pop(victim)
                trie.remove(rpat, rtok)
                stored[rpat].discard(rtok)
                if not stored[rpat]:
                    del stored[rpat]
            trie.insert(pattern, i)
            stored[pattern].add(i)
            live.append((pattern, i))
            probe = rng.choice(pats) + rng.choice(["", "a", "4"])
            assert Counter(walk(trie, probe)) == \
                brute_force_walk(stored, probe)
        assert len(trie) == len(live)
        for pattern, token in live:
            trie.remove(pattern, token)
        # Full removal drops every bucket but the root: churn cannot leak.
        assert trie.node_count() == 1
        assert len(trie) == 0
        assert walk(trie, "a" * 8) == []

    def test_insert_remove_contract(self):
        trie = LabelTrie()
        with pytest.raises(ValueError):
            trie.insert("", "t")
        trie.insert("44", "t")
        with pytest.raises(ValueError):
            trie.insert("44", "t")          # duplicate token
        with pytest.raises(KeyError):
            trie.remove("4", "t")           # pattern absent
        with pytest.raises(KeyError):
            trie.remove("44", "other")      # token absent
        trie.insert("448", "u")
        trie.remove("448", "u")
        # Removing the longer pattern drops its bucket but keeps the
        # shorter "44" alive for the surviving token.
        assert set(walk(trie, "4480")) == {"t"}


# ---------------------------------------------------------------------- #
# PredicateRouter: per-position composition against its own brute force.
# ---------------------------------------------------------------------- #

VALUES = ["a", "ab", "4", "44", "448", 4, 44, 448, "b4"]

atom = st.one_of(
    st.just(("any",)),
    st.tuples(st.just("eq"), st.sampled_from(VALUES)),
    st.tuples(st.just("pre"), patterns),
)
entries = st.lists(
    st.tuples(atom, atom, atom, st.booleans()), min_size=0, max_size=25)
arrivals = st.lists(
    st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES),
              st.sampled_from(VALUES), st.booleans()),
    min_size=1, max_size=25)


def atom_accepts(a, value):
    kind = a[0]
    if kind == "any":
        return True
    if kind == "eq":
        return a[1] == value
    text = prefix_text(value)
    return text is not None and text.startswith(a[1])


def brute_force_match(registered, src, edge, dst, is_loop):
    return {token for token, (atoms, loop, _) in registered.items()
            if loop == is_loop
            and all(atom_accepts(a, v)
                    for a, v in zip(atoms, (src, edge, dst)))}


def router_mirror(entry_list):
    router = PredicateRouter()
    registered = {}
    for i, (sa, ea, da, loop) in enumerate(entry_list):
        required = sum(1 for a in (sa, ea, da) if a[0] != "any")
        router.add(i, (sa, ea, da), loop)
        registered[i] = ((sa, ea, da), loop, required)
    return router, registered


#: Tokens constraining one, two and three positions (``eq`` + ``pre``,
#: stored lengths 1 and 2 at one position) under both loop flags, and
#: arrivals that hit all, some or none of each token's positions.
MIXED_ENTRIES = [
    (("eq", "a"), ("pre", "4"), ("any",), False),
    (("eq", "a"), ("pre", "4"), ("eq", "b4"), True),
    (("pre", "a"), ("pre", "44"), ("pre", "a"), False),
    (("pre", "a"), ("pre", "4"), ("any",), True),
    (("any",), ("pre", "4"), ("any",), True),
    (("any",), ("pre", "44"), ("any",), False),
    (("eq", "ab"), ("any",), ("any",), False),
    (("any",), ("any",), ("any",), True),
]
MIXED_ARRIVALS = [
    ("a", 448, "b4", True), ("a", 448, "b4", False), ("a", "4", "ab", False),
    ("ab", "44", "a", False), ("ab", 4, "a", True), ("a", "4", "a", True),
    ("b4", 44, "4", False),
]


#: Position 0 held by one ``eq`` token and position 2 by one prefix
#: token (loop flag False), position 1 by two tokens of each flag:
#: removing either lone token empties its position while 1 stays held.
EMPTIED_ENTRIES = [
    (("eq", "a"), ("any",), ("any",), False),
    (("any",), ("pre", "4"), ("any",), False),
    (("any",), ("eq", 44), ("any",), True),
    (("any",), ("any",), ("pre", "a"), False),
    (("any",), ("pre", "44"), ("any",), False),
    (("any",), ("pre", "4"), ("any",), True),
    (("eq", "a"), ("pre", "4"), ("any",), False),
]


def held_positions(registered, is_loop):
    """The positions a one-position token of ``is_loop`` constrains."""
    return sorted({position for atoms, loop, required in registered.values()
                   if required == 1 and loop == is_loop
                   for position, a in enumerate(atoms) if a[0] != "any"})


def brute_force_buckets(registered, labels, is_loop):
    """What ``buckets`` must report, walking all three positions of every
    token: the keyed one-position buckets of ``is_loop`` as ``{key:
    tokens}``, and how many constrained positions each two- or
    three-position token (either flag) hits."""
    keyed, counted = defaultdict(set), Counter()
    for token, (atoms, loop, required) in registered.items():
        for position, a in enumerate(atoms):
            if a[0] == "any" or not atom_accepts(a, labels[position]):
                continue
            if required > 1:
                counted[token] += 1
            elif loop == is_loop:
                value = labels[position] if a[0] == "eq" else a[1]
                keyed[(position, a[0], value)].add(token)
    return dict(keyed), counted


def assert_walk_is_brute_force(router, registered, probe_list):
    """``router``'s live slots name exactly the held positions, with the
    router's own per-position structures, and every probe's ``buckets``
    and ``match`` equal the brute force."""
    for is_loop in (False, True):
        exact, tries = router._single[is_loop]
        slots = router._live[is_loop]
        assert [slot[0] for slot in slots] == \
            held_positions(registered, is_loop)
        for position, values, trie in slots:
            assert values is exact[position] and trie is tries[position]
    for src, edge, dst, is_loop in probe_list:
        keyed, counted = {}, Counter()
        for key, tokens in router.buckets(src, edge, dst, is_loop):
            if key is None:
                counted.update(tokens)
            else:
                assert key not in keyed
                keyed[key] = set(tokens)
        assert (keyed, counted) == \
            brute_force_buckets(registered, (src, edge, dst), is_loop)
        assert router.match(src, edge, dst, is_loop) == \
            brute_force_match(registered, src, edge, dst, is_loop)


class TestPredicateRouterProperties:
    @given(entries, arrivals)
    @example(entry_list=MIXED_ENTRIES, probe_list=MIXED_ARRIVALS)
    def test_match_equals_brute_force(self, entry_list, probe_list):
        router, registered = router_mirror(entry_list)
        for src, edge, dst, is_loop in probe_list:
            assert router.match(src, edge, dst, is_loop) == \
                brute_force_match(registered, src, edge, dst, is_loop)

    @given(entries, arrivals, st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    @example(entry_list=MIXED_ENTRIES, probe_list=MIXED_ARRIVALS, seed=7)
    def test_churn_and_serialization(self, entry_list, probe_list, seed):
        rng = random.Random(seed)
        router, registered = router_mirror(entry_list)
        for token in list(registered):
            if rng.random() < 0.5:
                router.remove(token)
                del registered[token]
        clone = pickle.loads(pickle.dumps(router))
        for target in (router, clone):
            for src, edge, dst, is_loop in probe_list:
                assert target.match(src, edge, dst, is_loop) == \
                    brute_force_match(registered, src, edge, dst, is_loop)
        for token in list(registered):
            router.remove(token)
        # Full removal drops every stored pattern (three roots remain).
        assert router.node_count() == 3
        assert len(router) == 0

    @given(entries, arrivals, st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    @example(entry_list=EMPTIED_ENTRIES, probe_list=MIXED_ARRIVALS, seed=3)
    def test_live_positions_follow_churn(self, entry_list, probe_list,
                                         seed):
        """Remove every token, then add each back, in random orders, so
        positions empty and fill again; a pickled clone taken midway
        gets the same steps.  After every step each router walks exactly
        the positions that hold a one-position token of a loop flag, and
        its ``buckets`` and ``match`` are the brute-force walk's over
        all three positions."""
        rng = random.Random(seed)
        router, registered = router_mirror(entry_list)
        full = dict(registered)
        steps = [("remove", token) for token in rng.sample(
            sorted(full), len(full))]
        steps += [("add", token) for token in rng.sample(
            sorted(full), len(full))]
        clone_at = rng.randrange(len(steps) + 1)
        routers = [router]
        for index, (op, token) in enumerate([("none", None)] + steps):
            if index == clone_at:
                routers.append(pickle.loads(pickle.dumps(router)))
            if op == "remove":
                del registered[token]
            elif op == "add":
                registered[token] = full[token]
            for target in routers:
                if op == "remove":
                    target.remove(token)
                elif op == "add":
                    atoms, loop, _ = full[token]
                    target.add(token, atoms, loop)
            for target in routers:
                assert_walk_is_brute_force(target, registered, probe_list)
        assert len(routers) == 2

    def test_duplicate_token_rejected(self):
        router = PredicateRouter()
        router.add("t", (("any",), ("eq", 1), ("any",)), False)
        with pytest.raises(ValueError):
            router.add("t", (("any",), ("any",), ("any",)), False)
        router.remove("t")
        with pytest.raises(KeyError):
            router.remove("t")


# ---------------------------------------------------------------------- #
# PredicateRouter against the engine's label test.
# ---------------------------------------------------------------------- #

class Port(IntEnum):
    """An int subclass: the router reads its text through ``prefix_text``
    (its decimal form), not the inline path for an exact ``int``."""

    HTTPS = 4431


class Tag(str):
    """A str subclass: its text is itself, as for a plain ``str``."""

    __slots__ = ()


#: ``VALUES`` plus the labels that compare alike yet route apart (``1``,
#: ``True``, ``1.0`` and ``"1"``), ``None``, the empty string, tuples, an
#: ``IntEnum`` member, a ``str`` subclass, a negative and a multi-digit
#: int — the types the router's inline text path must read exactly as
#: ``prefix_text`` does.
EXACT_VALUES = VALUES + [1, True, 1.0, "1", "", None, ("a", 4), (1,),
                         (True,), (1.0, "4"), Port.HTTPS, Tag("4a"), -4,
                         41144]
exact_atom = st.one_of(
    st.just(("any",)),
    st.tuples(st.just("eq"), st.sampled_from(EXACT_VALUES)),
    st.tuples(st.just("pre"), st.text(alphabet="ab41", min_size=1,
                                      max_size=3)),
)


def atom_label(atom):
    """The query label a routing atom was compiled from."""
    if atom[0] == "any":
        return ANY
    return atom[1] if atom[0] == "eq" else Prefix(atom[1])


def one_edge_query(atoms, is_loop):
    """The one-edge query whose signature is ``atoms`` (a loop edge's
    two ends are one vertex, so its dst atom is its src atom)."""
    query = QueryGraph()
    query.add_vertex("u", atom_label(atoms[0]))
    if is_loop:
        query.add_edge("e", "u", "u", label=atom_label(atoms[1]))
    else:
        query.add_vertex("v", atom_label(atoms[2]))
        query.add_edge("e", "u", "v", label=atom_label(atoms[1]))
    return query


class TestRouterDecidesEdgeMatches:
    @given(st.lists(st.tuples(exact_atom, exact_atom, exact_atom,
                              st.booleans()), min_size=1, max_size=12),
           st.lists(st.tuples(st.sampled_from(EXACT_VALUES),
                              st.sampled_from(EXACT_VALUES),
                              st.sampled_from(EXACT_VALUES), st.booleans()),
                    min_size=1, max_size=20))
    @example(entry_list=[(("pre", "1"), ("eq", 1), ("any",), False),
                         (("eq", True), ("pre", "1"), ("eq", True), True),
                         (("eq", (1,)), ("eq", 1.0), ("pre", "4"), False)],
             probe_list=[(1, True, "4", False), (True, 1, True, True),
                         (1, "10", 1, True), ((True,), 1, 44, False),
                         ("1", 1.0, "44", False), (1.0, "1", None, True)])
    # One-position prefix tokens read a label's text inline; an int
    # subclass, a str subclass and a negative int must read as they do
    # through ``prefix_text``.
    @example(entry_list=[(("pre", "44"), ("any",), ("any",), False),
                         (("any",), ("pre", "4a"), ("any",), False),
                         (("any",), ("any",), ("pre", "41"), False),
                         (("any",), ("pre", "4"), ("any",), False),
                         (("eq", 4431), ("pre", "4a"), ("eq", -4), False),
                         (("pre", "4"), ("any",), ("any",), True)],
             probe_list=[(Port.HTTPS, Tag("4a"), 41144, False),
                         (4431, "4ab", -4, False), (-4, -41, Tag("41"), False),
                         (Port.HTTPS, 1, Port.HTTPS, True),
                         (True, -4, 41, False)])
    def test_a_token_hits_iff_its_query_accepts(self, entry_list,
                                                probe_list):
        router = PredicateRouter()
        queries = {}
        for token, (sa, ea, da, is_loop) in enumerate(entry_list):
            atoms = (sa, ea, sa if is_loop else da)
            router.add(token, atoms, is_loop)
            queries[token] = one_edge_query(atoms, is_loop)
        for src_label, label, dst_label, is_loop in probe_list:
            edge = StreamEdge("s", "s" if is_loop else "d",
                              src_label=src_label, dst_label=dst_label,
                              label=label, timestamp=1.0)
            accepted = {token for token, query in queries.items()
                        if query.edge_matches("e", edge)}
            assert router.match(src_label, label, dst_label, is_loop) == \
                accepted
