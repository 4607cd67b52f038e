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
examples keep both paths exact.
"""

import pickle
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.labeltrie import LabelTrie, PredicateRouter
from repro.core.query import prefix_text

#: Small alphabet so random patterns collide and share prefixes often —
#: shared-prefix paths are exactly what the walk must get right.
ALPHABET = "ab4"

patterns = st.text(alphabet=ALPHABET, min_size=1, max_size=6)
texts = st.text(alphabet=ALPHABET, min_size=0, max_size=10)


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
            assert Counter(trie.walk(text)) == brute_force_walk(stored, text)

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
            assert Counter(trie.walk(probe)) == \
                brute_force_walk(stored, probe)
        assert len(trie) == len(live)
        for pattern, token in live:
            trie.remove(pattern, token)
        # Full removal drops every bucket but the root: churn cannot leak.
        assert trie.node_count() == 1
        assert len(trie) == 0
        assert trie.walk("a" * 8) == []

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
        assert set(trie.walk("4480")) == {"t"}


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

    def test_duplicate_token_rejected(self):
        router = PredicateRouter()
        router.add("t", (("any",), ("eq", 1), ("any",)), False)
        with pytest.raises(ValueError):
            router.add("t", (("any",), ("any",), ("any",)), False)
        router.remove("t")
        with pytest.raises(KeyError):
            router.remove("t")
