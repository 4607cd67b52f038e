"""Match-Store tree (MS-tree): trie-variant storage for expansion lists (§IV).

Partial matches along a timing sequence share prefixes: a stored match of
``Preq(εᵢ)`` extends a stored match of ``Preq(εᵢ₋₁)`` by exactly one edge.
The MS-tree stores each partial match as a root-to-node path, so shared
prefixes are stored once.  Per the paper:

* each node records its **parent** (paths are read by backtracking);
* nodes of the same depth are linked in a **doubly linked level list**
  (expansion-list items are read horizontally, not from the root);
* insertion is **O(1)** — the parent node is known from the join that
  produced the match, no root-to-leaf traversal happens;
* deletion follows timing order: a child is inserted after its parent's
  edge arrived (Definition 1's strictly increasing timestamps), so a FIFO
  window expires every ancestor first and any live partial match holding
  the expiring edge holds it at its root.  Deletion removes that root's
  subtree — linear in the number of expired partial matches — and an edge
  stored only below a root is a dict miss.

Three stores are built on it:

* :class:`MSTreeTCStore` — one per TC-subquery ``Qⁱ`` of two or more edges
  (payloads are edges);
* :class:`OneEdgeTCStore` — one per one-edge TC-subquery: logically the
  depth-1 level of an MS-tree, physically an insertion-ordered
  ``edge → (edge,)`` dict whose flat tuple is the entry's handle, so an
  entry costs no node object, level link or root registry slot.  It is
  charged :data:`MS_NODE_CELLS` per entry, exactly as the tree would be;
  :func:`subquery_store` picks between the two by length;
* :class:`GlobalMSTreeStore` — the ``M₀`` tree over the decomposition, whose
  node payloads are *pointers to the complete matches of the subquery
  stores* — leaf nodes, or one-edge tuples (§IV-A's space optimisation) —
  with dependency links so that the death of a subquery match cascades into
  ``M₀`` (Algorithm 2 line 7).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..graph.edge import StreamEdge
from .index import StoreIndexes

#: Logical cells charged per MS-tree node: payload + parent + two level links
#: + child-set slot.  Used by the deterministic space accounting.
MS_NODE_CELLS = 5


class MSTreeNode:
    """One trie node; ``payload`` is an edge (subquery trees) or a
    subquery store's complete-match handle (global tree).

    Cross-tree bookkeeping (which global-tree entries depend on a subquery
    leaf, which depth-1 anchor stands in for it) lives in per-global-store
    registries, not on the node: one shared subquery tree may feed several
    per-query global trees (see :class:`~repro.api.SharedSubplanStore`),
    and a single node slot cannot serve two owners.
    """

    __slots__ = ("payload", "parent", "depth", "children", "prev", "next",
                 "alive", "flat_cache")

    def __init__(self, payload, parent: Optional["MSTreeNode"], depth: int) -> None:
        self.payload = payload
        self.parent = parent
        self.depth = depth
        # Created with the first child: most nodes are leaves, and a leaf
        # never reads it.
        self.children: Optional[Set[MSTreeNode]] = None
        self.prev: Optional[MSTreeNode] = None   # level-list links
        self.next: Optional[MSTreeNode] = None
        self.alive = True
        # Lazily computed flattened partial match.  A node's root path never
        # changes after insertion, so caching is safe; it trades physical
        # memory for read speed without affecting the logical space model.
        self.flat_cache: Optional[Tuple] = None

    def __repr__(self) -> str:
        return f"MSTreeNode(depth={self.depth}, payload={self.payload!r})"


class _Level:
    """Intrusive doubly linked list of same-depth nodes."""

    __slots__ = ("head", "count")

    def __init__(self) -> None:
        self.head: Optional[MSTreeNode] = None
        self.count = 0

    def link(self, node: MSTreeNode) -> None:
        node.prev = None
        node.next = self.head
        if self.head is not None:
            self.head.prev = node
        self.head = node
        self.count += 1

    def unlink(self, node: MSTreeNode) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self.head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        node.prev = node.next = None
        self.count -= 1

    def __iter__(self) -> Iterator[MSTreeNode]:
        node = self.head
        while node is not None:
            yield node
            node = node.next


class MSTree:
    """The trie variant of Definition 10, parameterised by depth."""

    def __init__(self, depth: int,
                 on_remove: Optional[Callable[[MSTreeNode], None]] = None) -> None:
        if depth < 1:
            raise ValueError(f"MS-tree depth must be ≥ 1, got {depth}")
        self.depth = depth
        self.root = MSTreeNode(None, None, 0)
        self._levels: List[_Level] = [_Level() for _ in range(depth)]
        self._on_remove = on_remove

    @property
    def node_count(self) -> int:
        """Total live nodes.  Derived from per-level counts, each of which is
        only ever mutated under its level's exclusive lock in concurrent
        mode — a shared running counter would race across levels."""
        return sum(level.count for level in self._levels)

    def level(self, depth: int) -> _Level:
        """The level list for nodes of ``depth`` (1-based)."""
        return self._levels[depth - 1]

    def insert(self, parent: MSTreeNode, payload) -> MSTreeNode:
        """O(1) insertion of a child under ``parent`` (paper §IV-B)."""
        if not parent.alive:
            raise ValueError("cannot insert under a removed node")
        depth = parent.depth
        if depth >= self.depth:
            raise ValueError(
                f"parent depth {depth} already at maximum {self.depth}")
        node = MSTreeNode(payload, parent, depth + 1)
        children = parent.children
        if children is None:
            parent.children = {node}
        else:
            children.add(node)
        self._levels[depth].link(node)
        return node

    def level_nodes(self, depth: int) -> List[MSTreeNode]:
        """Snapshot of the nodes at ``depth`` (safe to mutate while iterating
        the returned list)."""
        return list(self.level(depth))

    def count(self, depth: int) -> int:
        return self.level(depth).count

    def path_payloads(self, node: MSTreeNode) -> Tuple:
        """Payloads along root→node, i.e. the stored partial match in
        sequential form (read by backtracking parent pointers)."""
        payloads: List = []
        cursor: Optional[MSTreeNode] = node
        while cursor is not None and cursor.depth > 0:
            payloads.append(cursor.payload)
            cursor = cursor.parent
        payloads.reverse()
        return tuple(payloads)

    def remove_subtree(self, node: MSTreeNode) -> int:
        """Remove ``node`` and every descendant; returns removal count.

        Each removed node is unlinked from its level list and reported to the
        ``on_remove`` hook (which drives edge registries and cross-tree
        dependency cascades).
        """
        if not node.alive:
            return 0
        if node.parent is not None:
            node.parent.children.discard(node)
        levels, on_remove = self._levels, self._on_remove
        removed = 0
        stack: List[MSTreeNode] = []     # stays empty for a childless node
        current = node
        while True:
            if current.alive:
                current.alive = False
                levels[current.depth - 1].unlink(current)
                removed += 1
                if current.children:
                    stack.extend(current.children)
                    current.children = None
                if on_remove is not None:
                    on_remove(current)
            if not stack:
                return removed
            current = stack.pop()


class _SubqueryStore:
    """What both subquery stores share: the leaf observers a global store
    cascades through and the engine's join-key index registrations."""

    def __init__(self, length: int) -> None:
        self.length = length
        self._leaf_observers: List[Callable[[object], None]] = []
        # Join-key indexes registered by the engine (empty in scan mode).
        # Level lists read newest-first, so the indexes mirror that order.
        self.indexes = StoreIndexes(length, newest_first=True)
        # Each level's live index list (register/unregister mutate it in
        # place), read directly on every insert and removal.
        self._level_indexes = [self.indexes.at(level)
                               for level in range(1, length + 1)]

    def add_leaf_observer(self, observer: Callable[[object], None]) -> None:
        """Register a global store's cascade for dying complete matches.

        A store owned by one engine has exactly one observer; a shared
        sub-plan store (see :class:`~repro.api.SharedSubplanStore`) carries
        one per consuming engine's global tree — each filters the
        notification through its own dependency registry.
        """
        self._leaf_observers.append(observer)

    def remove_leaf_observer(self,
                             observer: Callable[[object], None]) -> None:
        """Detach an observer added with :meth:`add_leaf_observer` (engine
        deregistration must not leave cascade callbacks into dead trees)."""
        self._leaf_observers.remove(observer)

    def add_index(self, level: int, refs):
        """Register (or share) a join-key index over ``level`` (see
        :mod:`repro.core.index`); returns the :class:`LevelIndex`."""
        return self.indexes.register(level, refs)

    def remove_index(self, level: int, refs) -> None:
        """Release one :meth:`add_index` claim (refcounted) — called when
        an engine departs a shared sub-plan store so its query-specific
        join shapes stop being maintained here."""
        self.indexes.unregister(level, refs)

    def is_empty(self) -> bool:
        """Whether the store holds no partial matches at all — the
        joinability test for shared sub-plan stores (a fresh consumer may
        only adopt a store whose content equals its own empty start)."""
        return self.entry_count() == 0

    def entry_count(self) -> int:
        raise NotImplementedError

    def space_cells(self) -> int:
        return self.entry_count() * MS_NODE_CELLS


class MSTreeTCStore(_SubqueryStore):
    """Expansion-list storage for one TC-subquery, backed by an MS-tree.

    Handles exposed to the engine are :class:`MSTreeNode` objects; the engine
    passes the parent handle back at insertion, which is what makes inserts
    O(1).  ``read`` returns ``(handle, edges-tuple)`` pairs where the tuple is
    the sequential-form partial match reconstructed by backtracking.
    """

    def __init__(self, length: int) -> None:
        super().__init__(length)
        self.tree = MSTree(length, on_remove=self._node_removed)
        # Depth-1 nodes by their edge: the only registry expiry needs (see
        # delete_edge).
        self._roots: Dict[StreamEdge, MSTreeNode] = {}

    @property
    def root(self) -> MSTreeNode:
        return self.tree.root

    # -- engine interface -------------------------------------------------#
    def insert(self, level: int, parent: MSTreeNode,
               prefix: Tuple[StreamEdge, ...], edge: StreamEdge) -> MSTreeNode:
        """O(1) insert of ``prefix + (edge,)`` as a child of ``parent``.

        ``prefix`` (the flat form the engine used for the join) is not
        stored — the whole point of the MS-tree is that the prefix is
        already stored as the path to ``parent`` — but it does seed the
        node's flat cache (it *is* the root path) and the join-key indexes.
        """
        node = self.tree.insert(parent, edge)
        assert node.depth == level
        if level == 1:
            self._roots[edge] = node
        flat = prefix + (edge,)
        node.flat_cache = flat
        for index in self._level_indexes[level - 1]:
            index.add(node, flat)
        return node

    def read(self, level: int) -> List[Tuple[MSTreeNode, Tuple[StreamEdge, ...]]]:
        return [(node, self.flat(node))
                for node in self.tree.level_nodes(level)]

    def flat(self, handle: MSTreeNode) -> Tuple[StreamEdge, ...]:
        cached = handle.flat_cache
        if cached is None:
            cached = self.tree.path_payloads(handle)
            handle.flat_cache = cached
        return cached

    def delete_edge(self, edge: StreamEdge) -> int:
        """Remove every partial match containing ``edge`` (paper §IV-B).

        Precondition (FIFO): ``edge`` is the oldest live edge, which every
        window delivers.  A stored match's edges follow its timing order,
        so its root edge is its oldest; a match holding ``edge`` below its
        root died with that older root.  The live matches containing
        ``edge`` are therefore exactly the subtree of its depth-1 node:
        one registry pop, then work linear in the expired partial matches.
        """
        root = self._roots.pop(edge, None)
        if root is None:
            return 0
        return self.tree.remove_subtree(root)

    def _node_removed(self, node: MSTreeNode) -> None:
        depth = node.depth
        indexes = self._level_indexes[depth - 1]
        if indexes:
            # The flat cache is seeded at insertion, so the join-key of a
            # dying node (or of a descendant removed in the same cascade)
            # is still available here.
            flat = self.flat(node)
            for index in indexes:
                index.discard(node, flat)
        if depth == self.length:
            for observer in self._leaf_observers:
                observer(node)

    # -- accounting -------------------------------------------------------#
    def count(self, level: int) -> int:
        return self.tree.count(level)

    def entry_count(self) -> int:
        return self.tree.node_count


class OneEdgeTCStore(_SubqueryStore):
    """Expansion-list storage for a one-edge TC-subquery.

    Logically the depth-1 level of an MS-tree, physically no tree: an
    insertion-ordered ``edge → (edge,)`` dict.  The one-edge flat tuple is
    both the stored match and its handle, so an insertion builds one
    tuple, an expiry is one dict pop, and ``read`` is newest-first like a
    level list.  Every entry is a complete match: a removal notifies the
    leaf observers.  Each entry is charged :data:`MS_NODE_CELLS`, the
    node the MS-tree would have spent, so ``space_cells`` does not depend
    on which of the two stores a plan got.

    Handles compare by value: two one-edge stores of one engine (two
    query edges the same arrival matches) hand out equal ``(edge,)``
    handles, so a global store's dependency registry files both under one
    key.  That is harmless: both entries root at ``edge`` and die on its
    one expiry, whichever store's cascade removes the dependents first.
    """

    root = None     # no parent handle: every insertion is at level 1

    def __init__(self) -> None:
        super().__init__(1)
        self._entries: Dict[StreamEdge, Tuple[StreamEdge]] = {}
        self._indexes = self._level_indexes[0]

    # -- engine interface -------------------------------------------------#
    def insert(self, level: int, parent, prefix: Tuple[StreamEdge, ...],
               edge: StreamEdge) -> Tuple[StreamEdge]:
        """Store the one-edge match ``(edge,)``; ``parent`` and ``prefix``
        are the (empty) level-1 arguments of the engine's call."""
        handle = (edge,)
        self._entries[edge] = handle
        for index in self._indexes:
            index.add(handle, handle)
        return handle

    def read(self, level: int) -> List[Tuple[Tuple[StreamEdge],
                                             Tuple[StreamEdge]]]:
        return [(handle, handle)
                for handle in reversed(self._entries.values())]

    def flat(self, handle: Tuple[StreamEdge]) -> Tuple[StreamEdge]:
        return handle

    def delete_edge(self, edge: StreamEdge) -> int:
        """Remove the match ``(edge,)`` if stored (a dict pop)."""
        handle = self._entries.pop(edge, None)
        if handle is None:
            return 0
        for index in self._indexes:
            index.discard(handle, handle)
        for observer in self._leaf_observers:
            observer(handle)
        return 1

    # -- accounting -------------------------------------------------------#
    def count(self, level: int) -> int:
        return len(self._entries)

    def entry_count(self) -> int:
        return len(self._entries)


def subquery_store(length: int) -> _SubqueryStore:
    """The MS-tree-family store for a TC-subquery of ``length`` edges:
    :class:`OneEdgeTCStore` for one edge, :class:`MSTreeTCStore` for
    more."""
    return OneEdgeTCStore() if length == 1 else MSTreeTCStore(length)


class GlobalMSTreeStore:
    """The ``M₀`` tree over a decomposition's join order (§IV-A, Fig. 11).

    Depth-``i`` nodes denote matches of ``Q¹∪…∪Qⁱ``; their payloads are the
    subquery stores' complete-match handles (pointer compression): leaf
    nodes of the subquery trees, ``(edge,)`` tuples of the one-edge
    stores.  Level 1 is *virtual*: ``Ω(L₀¹) = Ω(Q¹)`` is read straight
    from the first subquery store, and depth-1 anchor nodes are created
    lazily when a depth-2 entry needs a parent (this mirrors Fig. 13, where
    completing ``Q¹`` never locks ``L₀¹``).

    There is no ``delete_edge``: ``M₀`` holds no edges directly, and
    expiry cascades in from the subquery stores through the dependency
    links, under their FIFO precondition (the expiring edge is the oldest
    live edge) — an entry dies with the first of its sub-matches to die,
    the one whose root is its oldest edge.
    """

    def __init__(self, sub_stores: Sequence[_SubqueryStore]) -> None:
        if len(sub_stores) < 2:
            raise ValueError("global store needs ≥ 2 subqueries")
        self.sub_stores = list(sub_stores)
        self.k = len(sub_stores)
        self.tree = MSTree(self.k, on_remove=self._node_removed)
        # Join-key indexes over levels ≥ 2 (level 1 is virtual — the engine
        # indexes the first subquery store's last level instead).  Depth-1
        # anchor nodes are never indexed.
        self.indexes = StoreIndexes(self.k, newest_first=True)
        self._level_indexes = [self.indexes.at(level)
                               for level in range(1, self.k + 1)]
        # Cross-tree bookkeeping, owned here rather than on the subquery
        # nodes: a *shared* sub-plan store feeds one global tree per
        # consuming query, and each must cascade (and anchor) only its own
        # entries.  Keys are sub-store handles: subquery-tree nodes
        # (identity-hashed) or one-edge tuples (hashed by their edge — see
        # OneEdgeTCStore for why two stores' equal tuples may share a key).
        self._dependents: Dict[object, Set[MSTreeNode]] = {}
        self._anchors: Dict[object, MSTreeNode] = {}
        for store in self.sub_stores:
            store.add_leaf_observer(self._sub_leaf_removed)

    # -- engine interface -------------------------------------------------#
    def read(self, level: int) -> List[Tuple[object, Tuple[StreamEdge, ...]]]:
        """(handle, flattened edges) of ``Ω(Q¹∪…∪Q^level)``.

        Level 1 delegates to the first subquery store's complete matches;
        handles at level 1 are that store's complete-match handles.
        """
        first = self.sub_stores[0]
        if level == 1:
            return first.read(first.length)
        return [(node, self._flatten(node))
                for node in self.tree.level_nodes(level)]

    def insert(self, level: int, parent,
               prefix: Tuple[StreamEdge, ...], sub_leaf,
               sub_flat: Tuple[StreamEdge, ...]) -> MSTreeNode:
        """Insert a new depth-``level`` match under ``parent``.

        ``parent`` is a level-(level−1) handle as returned by :meth:`read` —
        for ``level == 2`` that is a complete match of the first subquery
        store, which is resolved to its lazily created depth-1 anchor here.
        ``sub_leaf`` is the completed ``Q^level`` match (a handle of
        subquery store ``level``).
        The flat tuples are not stored again (pointer compression), but
        their concatenation is the node's flattened form, so it seeds the
        flat cache and the join-key indexes.
        """
        if level < 2 or level > self.k:
            raise ValueError(f"global insert level out of range: {level}")
        if level == 2:
            parent = self._anchor_for(parent)
        node = self.tree.insert(parent, sub_leaf)
        dependents = self._dependents.get(sub_leaf)
        if dependents is None:
            self._dependents[sub_leaf] = {node}
        else:
            dependents.add(node)
        flat = prefix + sub_flat
        node.flat_cache = flat
        for index in self._level_indexes[level - 1]:
            index.add(node, flat)
        return node

    def add_index(self, level: int, refs):
        """Register a join-key index over global level ``level`` (≥ 2 —
        level 1 is virtual; the engine indexes the first subquery store's
        last level instead)."""
        if level < 2 or level > self.k:
            raise ValueError(f"global index level out of range: {level}")
        return self.indexes.register(level, refs)

    def _anchor_for(self, q1_leaf) -> MSTreeNode:
        anchor = self._anchors.get(q1_leaf)
        if anchor is not None and anchor.alive:
            return anchor
        anchor = self.tree.insert(self.tree.root, q1_leaf)
        self._anchors[q1_leaf] = anchor
        self._dependents.setdefault(q1_leaf, set()).add(anchor)
        return anchor

    def anchor_of(self, q1_leaf) -> Optional[MSTreeNode]:
        """This tree's depth-1 anchor standing in for ``q1_leaf`` (``None``
        before any level-2 join needed one)."""
        return self._anchors.get(q1_leaf)

    def dependents_of(self, sub_leaf) -> Set[MSTreeNode]:
        """This tree's entries whose existence depends on ``sub_leaf``."""
        return self._dependents.get(sub_leaf, set())

    def _flatten(self, node: MSTreeNode) -> Tuple[StreamEdge, ...]:
        cached = node.flat_cache
        if cached is not None:
            return cached
        edges: List[StreamEdge] = []
        for depth, leaf in enumerate(self.tree.path_payloads(node), start=1):
            edges.extend(self.sub_stores[depth - 1].flat(leaf))
        flat = tuple(edges)
        node.flat_cache = flat
        return flat

    # -- cascade wiring -----------------------------------------------------
    def _sub_leaf_removed(self, leaf) -> None:
        dependents = self._dependents.get(leaf)
        if not dependents:
            return
        for dependent in list(dependents):
            if dependent.alive:
                self.tree.remove_subtree(dependent)

    def _node_removed(self, node: MSTreeNode) -> None:
        # Depth-1 anchors are never indexed, so their list is empty.
        indexes = self._level_indexes[node.depth - 1]
        if indexes:
            # Cross-tree cascade entry point: the flat cache was seeded at
            # insertion, so the key survives even though the subquery
            # leaves this node points at may already be gone.
            flat = self._flatten(node)
            for index in indexes:
                index.discard(node, flat)
        # Every removed node's payload is a sub-store handle (the root,
        # whose payload is None, is never removed) — a tree node or a
        # one-edge tuple alike.
        payload = node.payload
        bucket = self._dependents.get(payload)
        if bucket is not None:
            bucket.discard(node)
            if not bucket:
                del self._dependents[payload]
        if self._anchors.get(payload) is node:
            del self._anchors[payload]

    # -- accounting -------------------------------------------------------#
    def count(self, level: int) -> int:
        if level == 1:
            first = self.sub_stores[0]
            return first.count(first.length)
        return self.tree.count(level)

    def entry_count(self) -> int:
        return self.tree.node_count

    def space_cells(self) -> int:
        return self.tree.node_count * MS_NODE_CELLS
