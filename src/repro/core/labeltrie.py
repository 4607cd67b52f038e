"""Trie-compiled predicate routing: prefix/wildcard labels at scale.

The session routing index (PR 3) must stay sub-linear in the number of
registered queries Q — it is the only per-arrival structure that sees
every query.  Exact label triples hash in O(1); this module supplies the
same guarantee for *predicate* labels (``Prefix``/``ANY``):

* :class:`LabelTrie` — a refcounted character trie over prefix patterns.
  ``walk(text)`` visits the nodes along ``text`` and collects the tokens
  of every stored pattern that is a prefix of it (the shared-prefix walk
  of an Aho–Corasick matcher restricted to prefix patterns): O(len(text))
  regardless of how many patterns are stored.  ``remove`` decrements
  terminal refcounts and prunes now-empty nodes, so register/deregister
  churn cannot leak trie nodes.

* :class:`PredicateRouter` — one exact-value dict plus one
  :class:`LabelTrie` per label position (src, edge, dst).  A query edge
  whose three labels all reduce to :func:`~repro.core.query.routing_atom`
  atoms registers one *token* under its constrained positions; an
  arriving edge is matched by probing each position once and counting —
  a token whose every constrained position hit (and whose loop flag
  agrees) is a candidate.  Cost per arrival: O(total label length +
  candidates), flat in Q.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from .query import prefix_text

Token = Hashable
#: ``(src-atom, edge-atom, dst-atom)`` routing-atom triple; see
#: :func:`repro.core.query.routing_atom`.
AtomTriple = Tuple[Tuple, Tuple, Tuple]


class _TrieNode:
    """One trie node: child map plus the tokens terminating here."""

    __slots__ = ("children", "tokens")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode"] = {}
        self.tokens: Set[Token] = set()


class LabelTrie:
    """Refcounted prefix trie mapping patterns to routing tokens."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def insert(self, pattern: str, token: Token) -> None:
        """Store ``token`` under ``pattern`` (non-empty string)."""
        if not pattern:
            raise ValueError("empty trie pattern")
        node = self._root
        for char in pattern:
            child = node.children.get(char)
            if child is None:
                child = _TrieNode()
                node.children[char] = child
            node = child
        if token in node.tokens:
            raise ValueError(f"duplicate trie token {token!r} "
                             f"for pattern {pattern!r}")
        node.tokens.add(token)
        self._size += 1

    def remove(self, pattern: str, token: Token) -> None:
        """Drop ``token`` from ``pattern``, pruning emptied nodes."""
        path: List[Tuple[_TrieNode, str]] = []
        node = self._root
        for char in pattern:
            child = node.children.get(char)
            if child is None:
                raise KeyError(pattern)
            path.append((node, char))
            node = child
        if token not in node.tokens:
            raise KeyError(token)
        node.tokens.discard(token)
        self._size -= 1
        # Prune the now-unreferenced suffix of the path bottom-up.
        while path and not node.tokens and not node.children:
            parent, char = path.pop()
            del parent.children[char]
            node = parent

    def walk(self, text: str) -> List[Token]:
        """Tokens of every stored pattern that is a prefix of ``text``.

        O(len(text)) node visits — the walk stops at the first character
        with no child, no matter how many patterns are stored.
        """
        found: List[Token] = []
        node = self._root
        for char in text:
            node = node.children.get(char)  # type: ignore[assignment]
            if node is None:
                break
            if node.tokens:
                found.extend(node.tokens)
        return found

    def node_count(self) -> int:
        """Number of trie nodes including the root (pruning observable)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:
        return f"LabelTrie({self._size} patterns, {self.node_count()} nodes)"


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

    __slots__ = ("_exact", "_tries", "_entries", "_always")

    def __init__(self) -> None:
        # One structure per label position: 0=src, 1=edge, 2=dst.
        self._exact: Tuple[Dict[Hashable, Set[Token]], ...] = ({}, {}, {})
        self._tries: Tuple[LabelTrie, ...] = (
            LabelTrie(), LabelTrie(), LabelTrie())
        # token → (atoms, is_loop, constrained-position count)
        self._entries: Dict[Token, Tuple[AtomTriple, bool, int]] = {}
        # Tokens with no constrained position, split by loop flag.
        self._always: Dict[bool, Set[Token]] = {False: set(), True: set()}

    def add(self, token: Token, atoms: AtomTriple, is_loop: bool) -> None:
        """Register ``token`` under a routing-atom triple."""
        if token in self._entries:
            raise ValueError(f"duplicate predicate token {token!r}")
        required = 0
        for position, atom in enumerate(atoms):
            kind = atom[0]
            if kind == "any":
                continue
            required += 1
            if kind == "eq":
                self._exact[position].setdefault(atom[1], set()).add(token)
            elif kind == "pre":
                self._tries[position].insert(atom[1], token)
            else:
                raise ValueError(f"unknown routing atom {atom!r}")
        self._entries[token] = (atoms, is_loop, required)
        if required == 0:
            self._always[is_loop].add(token)

    def remove(self, token: Token) -> None:
        """Deregister ``token``, pruning emptied buckets and trie nodes."""
        atoms, is_loop, required = self._entries.pop(token)
        if required == 0:
            self._always[is_loop].discard(token)
            return
        for position, atom in enumerate(atoms):
            kind = atom[0]
            if kind == "eq":
                bucket = self._exact[position][atom[1]]
                bucket.discard(token)
                if not bucket:
                    del self._exact[position][atom[1]]
            elif kind == "pre":
                self._tries[position].remove(atom[1], token)

    def match(self, src_label: Hashable, edge_label: Hashable,
              dst_label: Hashable, is_loop: bool) -> Set[Token]:
        """Tokens whose every constrained position accepts the triple."""
        entries = self._entries
        always = self._always[is_loop]
        if len(always) == len(entries):     # no constrained entries
            return set(always)
        counts: Dict[Token, int] = {}
        for position, value in enumerate((src_label, edge_label,
                                          dst_label)):
            exact = self._exact[position]
            if exact:
                bucket = exact.get(value)
                if bucket:
                    for token in bucket:
                        counts[token] = counts.get(token, 0) + 1
            trie = self._tries[position]
            if trie:
                text = prefix_text(value)
                if text is not None:
                    for token in trie.walk(text):
                        counts[token] = counts.get(token, 0) + 1
        hits = {token for token, count in counts.items()
                if count == entries[token][2]
                and entries[token][1] == is_loop}
        if always:
            hits.update(always)
        return hits

    def node_count(self) -> int:
        """Total trie nodes across the three positions (pruning metric)."""
        return sum(trie.node_count() for trie in self._tries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __repr__(self) -> str:
        return (f"PredicateRouter({len(self._entries)} entries, "
                f"{self.node_count()} trie nodes)")
