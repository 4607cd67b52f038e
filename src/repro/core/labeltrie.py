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
  :meth:`PredicateRouter.buckets` is the one probe: ``resolve`` turns
  what it finds into the matched tokens (``match`` is the two in turn),
  and a session's route index resolves a lone hit bucket to a prebuilt
  target list by its key and any other hits through ``resolve``.  It
  walks only the *live* positions of the arrival's loop flag — those
  holding a one-position token — which ``add``/``remove`` re-derive
  only when a position empties or fills.
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
            self._buckets[pattern] = {token}
            length = len(pattern)
            if length in self._lengths:
                self._lengths[length] += 1
            else:
                self._lengths[length] = 1
        elif token in tokens:
            raise ValueError(f"duplicate trie token {token!r} "
                             f"for pattern {pattern!r}")
        else:
            tokens.add(token)

    def remove(self, pattern: str, token: Token) -> None:
        """Drop ``token`` from ``pattern`` (``KeyError`` for a pattern
        not stored); an emptied bucket goes, and with the last pattern of
        its length, that length."""
        tokens = self._buckets[pattern]
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


def _probe(index: tuple, labels: Tuple, found: List[Hit]) -> None:
    """Append to ``found``, keyed ``None``, every bucket of ``index``
    (two- and three-position tokens) the labels hit, once per position
    and bucket."""
    exact, tries = index
    for position, value in enumerate(labels):
        values = exact[position]
        if values:
            tokens = values.get(value)
            if tokens:
                found.append((None, tokens))
        trie = tries[position]
        if trie._buckets:
            text = prefix_text(value)
            if text is not None:
                for _, tokens in trie.buckets(text):
                    found.append((None, tokens))


#: What :meth:`PredicateRouter.add` returns for a token that constrains
#: no position: every arrival under its loop flag hits it, so a list
#: resolved for any bucket of that flag holds it.
ALWAYS = "always"


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
    bucket once and reuse the answer until a token :meth:`add` filed
    under ``k`` — or under :data:`ALWAYS` with flag ``f`` — comes or
    goes.

    ``match`` and ``buckets`` may raise ``TypeError`` when a data label
    is unhashable — callers fall back to their route-everything path,
    exactly as the exact-triple dict probe already does.
    """

    __slots__ = ("_single", "_live", "_multi", "_multi_size", "_entries",
                 "_always")

    def __init__(self) -> None:
        # Tokens constraining one position, by loop flag: a hit is a match.
        self._single = {False: _positions(), True: _positions()}
        # Per loop flag, the one-position slots holding a token, as
        # ``(position, value dict, LabelTrie)``: all ``buckets`` walks.
        # Rebuilt only when a position empties or fills (_relive).
        self._live: Dict[bool, Tuple[Tuple[int, dict, LabelTrie], ...]] = {
            False: (), True: ()}
        # Tokens constraining two or three positions: hits are counted.
        self._multi = _positions()
        self._multi_size = 0
        # token → (placements, is_loop, constrained-position count); a
        # placement is the bucket key ``(position, kind, value)``.
        self._entries: Dict[Token, Tuple[Tuple[Tuple, ...], bool, int]] = {}
        # Tokens with no constrained position, split by loop flag.
        self._always: Dict[bool, Set[Token]] = {False: set(), True: set()}

    def add(self, token: Token, atoms: AtomTriple,
            is_loop: bool) -> Optional[Hashable]:
        """Register ``token`` under a routing-atom triple; returns the key
        of the bucket it joined: :meth:`buckets`' key for a one-position
        token, :data:`ALWAYS` for a token constraining no position, and
        ``None`` for two or three positions (their buckets come
        unkeyed)."""
        if token in self._entries:
            raise ValueError(f"duplicate predicate token {token!r}")
        placed: Tuple[Tuple, ...] = ()
        for position, atom in enumerate(atoms):
            kind = atom[0]
            if kind == "eq" or kind == "pre":
                placed += ((position, kind, atom[1]),)
            elif kind != "any":
                raise ValueError(f"unknown routing atom {atom!r}")
        required = len(placed)
        if required == 0:
            self._always[is_loop].add(token)
            self._entries[token] = (placed, is_loop, 0)
            return ALWAYS
        if required == 1:
            exact, tries = self._single[is_loop]
            position = placed[0][0]
            filled = not (exact[position] or tries[position]._buckets)
        else:
            exact, tries = self._multi
            self._multi_size += 1
            filled = False
        for position, kind, value in placed:
            if kind == "eq":
                exact[position].setdefault(value, set()).add(token)
            else:
                tries[position].insert(value, token)
        self._entries[token] = (placed, is_loop, required)
        if filled:
            self._relive(is_loop)
        return placed[0] if required == 1 else None

    def remove(self, token: Token) -> None:
        """Deregister ``token``, dropping emptied buckets."""
        placed, is_loop, required = self._entries.pop(token)
        if required == 0:
            self._always[is_loop].discard(token)
            return
        if required == 1:
            exact, tries = self._single[is_loop]
        else:
            exact, tries = self._multi
            self._multi_size -= 1
        for position, kind, value in placed:
            if kind == "eq":
                values = exact[position]
                tokens = values[value]
                tokens.discard(token)
                if not tokens:
                    del values[value]
            else:
                tries[position].remove(value, token)
        if required == 1:
            position = placed[0][0]
            if not (exact[position] or tries[position]._buckets):
                self._relive(is_loop)

    def _relive(self, is_loop: bool) -> None:
        """Rebuild ``is_loop``'s live slots: the one-position positions
        whose value dict or trie holds a token."""
        exact, tries = self._single[is_loop]
        self._live[is_loop] = tuple(
            (position, exact[position], tries[position])
            for position in range(3)
            if exact[position] or tries[position]._buckets)

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
        # The one-position buckets are probed in this frame, as
        # ``LabelTrie.buckets`` would: every arrival pays for them, but
        # only at the positions that hold a token.
        labels = (src_label, edge_label, dst_label)
        for position, values, trie in self._live[is_loop]:
            value = labels[position]
            if values:
                tokens = values.get(value)
                if tokens:
                    found.append(((position, "eq", value), tokens))
            buckets = trie._buckets
            if buckets:
                # prefix_text, inline for a label of exact type str or
                # int; any other type (a bool, a subclass) asks it.
                kind = type(value)
                if kind is str:
                    text = value
                elif kind is int:
                    text = str(value)
                else:
                    text = prefix_text(value)
                if text is not None:
                    size = len(text)
                    for length in trie._lengths:
                        if length <= size:
                            pattern = text[:length]
                            tokens = buckets.get(pattern)
                            if tokens:
                                found.append(
                                    ((position, "pre", pattern), tokens))
        if self._multi_size:
            _probe(self._multi, labels, found)
        return found

    def always(self, is_loop: bool) -> Set[Token]:
        """The tokens constraining no position under ``is_loop``: every
        arrival with that loop flag hits them (the router's own set)."""
        return self._always[is_loop]

    def match(self, src_label: Hashable, edge_label: Hashable,
              dst_label: Hashable, is_loop: bool) -> Set[Token]:
        """Tokens whose every constrained position accepts the triple."""
        always = self._always[is_loop]
        if len(always) == len(self._entries):   # no constrained entries
            return set(always)
        return self.resolve(
            self.buckets(src_label, edge_label, dst_label, is_loop),
            is_loop)

    def resolve(self, hits: List[Hit], is_loop: bool) -> Set[Token]:
        """The tokens an arrival with loop flag ``is_loop`` matches, from
        the ``hits`` :meth:`buckets` gave it: every always-token of the
        flag and keyed hit, and each counted token hit at all of its
        constrained positions and filed under the same flag.  A fresh
        set."""
        found = set(self._always[is_loop])
        counts: Dict[Token, int] = {}
        for key, tokens in hits:
            if key is not None:
                found.update(tokens)
            else:
                for token in tokens:
                    counts[token] = counts.get(token, 0) + 1
        if counts:
            entries = self._entries
            for token, count in counts.items():
                _, flag, required = entries[token]
                if count == required and flag == is_loop:
                    found.add(token)
        return found

    def node_count(self) -> int:
        """One root per label position plus every stored prefix pattern
        (what churn may not leak)."""
        return 3 + sum(len(trie._buckets) for _, tries in
                       (self._single[False], self._single[True], self._multi)
                       for trie in tries)

    def __len__(self) -> int:
        return len(self._entries)
