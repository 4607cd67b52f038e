"""Predicate routing: prefix/wildcard labels at scale.

The session routing index (PR 3) must stay sub-linear in the number of
registered queries Q — it is the only per-arrival structure that sees
every query.  Exact label triples hash in O(1); this module supplies the
same guarantee for *predicate* labels (``Prefix``/``ANY``):

* :class:`LabelTrie` — prefix buckets: one dict from pattern text to the
  tokens stored under it, plus a refcount per distinct pattern length.
  ``buckets(text)`` probes ``text[:n]`` once for every stored length
  ``n <= len(text)`` — bounded by the label's length, not by how many
  patterns are stored — and ``insert``/``remove`` are O(1) dict edits,
  so register/deregister churn touches one bucket and cannot leak one.

* :class:`PredicateRouter` — per label position (src, edge, dst) one
  exact-value dict plus one :class:`LabelTrie`.  A query edge whose three
  labels all reduce to :func:`~repro.core.query.routing_atom` atoms
  registers one *token* under its constrained positions.  A token that
  constrains one position is kept under its loop flag and goes straight
  into the result when its bucket is hit; only tokens constraining two
  or three positions are counted per arrival (every constrained position
  must hit, and the loop flag must agree).  Flat in Q.
  :meth:`PredicateRouter.buckets` is the one probe: ``match`` unions
  what it finds, and a session's route index resolves a lone hit bucket
  to a prebuilt target list by its key.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

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

    def buckets(self, text: str) -> List[Tuple[str, Set[Token]]]:
        """``(pattern, tokens)`` for every stored pattern that is a
        prefix of ``text``.

        One dict probe per stored length that fits in ``text`` — a
        longer length would slice ``text`` whole and probe its own
        bucket a second time.  The token sets are the trie's own.
        """
        found = []
        buckets = self._buckets
        size = len(text)
        for length in self._lengths:
            if length <= size:
                pattern = text[:length]
                tokens = buckets.get(pattern)
                if tokens:
                    found.append((pattern, tokens))
        return found

    def node_count(self) -> int:
        """The root plus one node per stored pattern (churn observable)."""
        return 1 + len(self._buckets)

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))


def _positions() -> tuple:
    """Per label position (src, edge, dst): value dict, LabelTrie."""
    return ({}, {}, {}), (LabelTrie(), LabelTrie(), LabelTrie())


#: A bucket hit: its key — ``(position, "eq", value)`` or ``(position,
#: "pre", pattern)``, ``None`` for a bucket of two- or three-position
#: tokens — and the bucket's own token set.
Hit = Tuple[Optional[Tuple], Set[Token]]


def _probe(index: tuple, labels: Tuple, keyed: bool,
           found: List[Hit]) -> None:
    """Append to ``found`` every bucket of ``index`` the labels hit,
    once per position and bucket; with ``keyed`` false every key is
    ``None``."""
    exact, tries = index
    for position, value in enumerate(labels):
        values = exact[position]
        if values:
            tokens = values.get(value)
            if tokens:
                found.append(((position, "eq", value) if keyed else None,
                              tokens))
        trie = tries[position]
        if trie._buckets:
            text = prefix_text(value)
            if text is not None:
                for pattern, tokens in trie.buckets(text):
                    found.append(((position, "pre", pattern) if keyed
                                  else None, tokens))


def bucket_key(atoms: AtomTriple) -> Optional[Tuple]:
    """The key :meth:`PredicateRouter.buckets` reports for the bucket a
    token registered under ``atoms`` sits in, when it constrains exactly
    one position; ``None`` when it constrains none (an always-token) or
    two or three (its buckets come unkeyed)."""
    constrained = [(position, *atom) for position, atom in enumerate(atoms)
                   if atom[0] != "any"]
    return constrained[0] if len(constrained) == 1 else None


class PredicateRouter:
    """Per-position predicate index: exact dicts + prefix tries + always.

    Registered entries are ``(token, atoms, is_loop)`` where ``atoms`` is
    the :data:`AtomTriple` of a query edge.  ``match`` returns exactly the
    token set whose predicates accept an arriving label triple: a token
    hits if and only if
    :meth:`~repro.core.query.QueryGraph.edge_matches` accepts its query
    edge (``eq`` by ``==``, ``pre`` by
    :func:`~repro.core.query.prefix_text`, the loop flag equal).  A
    session matches a one-edge query on that answer alone, with no
    engine re-check, so the router must have neither false negatives
    nor false positives.

    :meth:`buckets` is the probe behind ``match``: the buckets an
    arriving triple hits, each with a key naming it.  A bucket of
    one-position tokens under loop flag ``f`` keyed ``k`` holds the same
    tokens for every arrival that hits it, so a caller may resolve the
    bucket once and reuse the answer until a token with that key (see
    :func:`bucket_key`) or an always-token of ``f`` comes or goes.

    ``match`` and ``buckets`` may raise ``TypeError`` when a data label
    is unhashable — callers fall back to their route-everything path,
    exactly as the exact-triple dict probe already does.
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

    def buckets(self, src_label: Hashable, edge_label: Hashable,
                dst_label: Hashable, is_loop: bool) -> List[Hit]:
        """Every non-empty bucket the triple hits, as ``(key, tokens)``.

        The buckets of one-position tokens under ``is_loop`` come keyed
        (see :data:`Hit`); a bucket of two- or three-position tokens
        comes with key ``None``, because its tokens hit only when every
        constrained position does.  The token sets are the router's own:
        callers must not mutate them.  Always-tokens sit in no bucket
        (see :meth:`always`).
        """
        found: List[Hit] = []
        labels = (src_label, edge_label, dst_label)
        _probe(self._single[is_loop], labels, True, found)
        if self._multi_size:
            _probe(self._multi, labels, False, found)
        return found

    def always(self, is_loop: bool) -> Set[Token]:
        """The tokens constraining no position under ``is_loop``: every
        arrival with that loop flag hits them (the router's own set)."""
        return self._always[is_loop]

    def match(self, src_label: Hashable, edge_label: Hashable,
              dst_label: Hashable, is_loop: bool) -> Set[Token]:
        """Tokens whose every constrained position accepts the triple."""
        hits = set(self._always[is_loop])
        if len(hits) == len(self._entries):     # no constrained entries
            return hits
        counts: Dict[Token, int] = {}
        for key, tokens in self.buckets(src_label, edge_label, dst_label,
                                        is_loop):
            if key is not None:
                hits.update(tokens)
            else:
                for token in tokens:
                    counts[token] = counts.get(token, 0) + 1
        if counts:
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
