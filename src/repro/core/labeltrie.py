"""Predicate routing: prefix/wildcard labels at scale.

The session routing index (PR 3) must stay sub-linear in the number of
registered queries Q — it is the only per-arrival structure that sees
every query.  Exact label triples hash in O(1); this module supplies the
same guarantee for *predicate* labels (``Prefix``/``ANY``):

* :class:`LabelTrie` — prefix buckets: one dict from pattern text to the
  tokens stored under it, plus a refcount per distinct pattern length.
  ``walk(text)`` probes ``text[:n]`` once for every stored length
  ``n <= len(text)`` — bounded by the label's length, not by how many
  patterns are stored — and ``insert``/``remove`` are O(1) dict edits,
  so register/deregister churn touches one bucket and cannot leak one.

* :class:`PredicateRouter` — per label position (src, edge, dst) one
  exact-value dict plus one :class:`LabelTrie`.  A query edge whose three
  labels all reduce to :func:`~repro.core.query.routing_atom` atoms
  registers one *token* under its constrained positions.  A token that
  constrains one position is kept under its loop flag and goes straight
  into the result when that position hits; only tokens constraining two
  or three positions are counted per arrival (every constrained position
  must hit, and the loop flag must agree).  Flat in Q.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from .query import prefix_text

Token = Hashable
#: ``(src-atom, edge-atom, dst-atom)`` routing-atom triple; see
#: :func:`repro.core.query.routing_atom`.
AtomTriple = Tuple[Tuple, Tuple, Tuple]


class LabelTrie:
    """Refcounted prefix buckets mapping patterns to routing tokens."""

    __slots__ = ("_buckets", "_lengths")

    def __init__(self) -> None:
        self._buckets: Dict[str, Set[Token]] = {}
        # pattern length -> number of stored patterns of that length
        self._lengths: Dict[int, int] = {}

    def insert(self, pattern: str, token: Token) -> None:
        """Store ``token`` under ``pattern`` (non-empty string)."""
        if not pattern:
            raise ValueError("empty trie pattern")
        tokens = self._buckets.get(pattern)
        if tokens is None:
            tokens = self._buckets[pattern] = set()
            length = len(pattern)
            self._lengths[length] = self._lengths.get(length, 0) + 1
        elif token in tokens:
            raise ValueError(f"duplicate trie token {token!r} "
                             f"for pattern {pattern!r}")
        tokens.add(token)

    def remove(self, pattern: str, token: Token) -> None:
        """Drop ``token`` from ``pattern``; an emptied bucket goes, and
        with the last pattern of its length, that length."""
        tokens = self._buckets.get(pattern)
        if tokens is None:
            raise KeyError(pattern)
        tokens.remove(token)
        if not tokens:
            del self._buckets[pattern]
            length = len(pattern)
            self._lengths[length] -= 1
            if not self._lengths[length]:
                del self._lengths[length]

    def walk(self, text: str) -> List[Token]:
        """Tokens of every stored pattern that is a prefix of ``text``.

        One dict probe per stored length that fits in ``text`` — a
        longer length would slice ``text`` whole and probe its own
        bucket a second time.
        """
        found: List[Token] = []
        buckets = self._buckets
        size = len(text)
        for length in self._lengths:
            if length <= size:
                found.extend(buckets.get(text[:length], ()))
        return found

    def node_count(self) -> int:
        """The root plus one node per stored pattern (churn observable)."""
        return 1 + len(self._buckets)

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))


def _positions() -> tuple:
    """Per label position (src, edge, dst): value dict, LabelTrie."""
    return ({}, {}, {}), (LabelTrie(), LabelTrie(), LabelTrie())


def _probe(index: tuple, labels: Tuple) -> List[Token]:
    """The tokens of ``index`` hit at each position, once per position."""
    exact, tries = index
    found: List[Token] = []
    for position, value in enumerate(labels):
        values = exact[position]
        if values:
            found.extend(values.get(value, ()))
        trie = tries[position]
        if trie._buckets:
            text = prefix_text(value)
            if text is not None:
                found.extend(trie.walk(text))
    return found


class PredicateRouter:
    """Per-position predicate index: exact dicts + prefix tries + always.

    Registered entries are ``(token, atoms, is_loop)`` where ``atoms`` is
    the :data:`AtomTriple` of a query edge.  ``match`` returns the token
    set whose predicates accept an arriving label triple; callers treat
    the result as a *candidate* set (engines re-verify), so the router
    only ever has to avoid false negatives.

    ``match`` may raise ``TypeError`` when a data label is unhashable —
    callers fall back to their route-everything path, exactly as the
    exact-triple dict probe already does.
    """

    __slots__ = ("_single", "_multi", "_multi_size", "_entries", "_always")

    def __init__(self) -> None:
        # Tokens constraining one position, by loop flag: a hit is a match.
        self._single = {False: _positions(), True: _positions()}
        # Tokens constraining two or three positions: hits are counted.
        self._multi = _positions()
        self._multi_size = 0
        # token → (atoms, is_loop, constrained-position count)
        self._entries: Dict[Token, Tuple[AtomTriple, bool, int]] = {}
        # Tokens with no constrained position, split by loop flag.
        self._always: Dict[bool, Set[Token]] = {False: set(), True: set()}

    def add(self, token: Token, atoms: AtomTriple, is_loop: bool) -> None:
        """Register ``token`` under a routing-atom triple."""
        if token in self._entries:
            raise ValueError(f"duplicate predicate token {token!r}")
        required = 0
        for atom in atoms:
            if atom[0] != "any":
                if atom[0] != "eq" and atom[0] != "pre":
                    raise ValueError(f"unknown routing atom {atom!r}")
                required += 1
        if required == 0:
            self._always[is_loop].add(token)
        else:
            self._multi_size += required > 1
            exact, tries = self._single[is_loop] if required == 1 \
                else self._multi
            for position, atom in enumerate(atoms):
                if atom[0] == "eq":
                    exact[position].setdefault(atom[1], set()).add(token)
                elif atom[0] == "pre":
                    tries[position].insert(atom[1], token)
        self._entries[token] = (atoms, is_loop, required)

    def remove(self, token: Token) -> None:
        """Deregister ``token``, dropping emptied buckets."""
        atoms, is_loop, required = self._entries.pop(token)
        if required == 0:
            self._always[is_loop].discard(token)
            return
        self._multi_size -= required > 1
        exact, tries = self._single[is_loop] if required == 1 \
            else self._multi
        for position, atom in enumerate(atoms):
            if atom[0] == "eq":
                values = exact[position]
                values[atom[1]].discard(token)
                if not values[atom[1]]:
                    del values[atom[1]]
            elif atom[0] == "pre":
                tries[position].remove(atom[1], token)

    def match(self, src_label: Hashable, edge_label: Hashable,
              dst_label: Hashable, is_loop: bool) -> Set[Token]:
        """Tokens whose every constrained position accepts the triple."""
        hits = set(self._always[is_loop])
        if len(hits) == len(self._entries):     # no constrained entries
            return hits
        labels = (src_label, edge_label, dst_label)
        hits.update(_probe(self._single[is_loop], labels))
        if self._multi_size:
            counts: Dict[Token, int] = {}
            for token in _probe(self._multi, labels):
                counts[token] = counts.get(token, 0) + 1
            entries = self._entries
            hits.update(token for token, count in counts.items()
                        if count == entries[token][2]
                        and entries[token][1] == is_loop)
        return hits

    def node_count(self) -> int:
        """One root per label position plus every stored prefix pattern
        (what churn may not leak)."""
        return 3 + sum(len(trie._buckets) for _, tries in
                       (self._single[False], self._single[True], self._multi)
                       for trie in tries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
