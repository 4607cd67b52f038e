"""Query graphs: structure + labels + timing order (paper Definition 3).

A query graph is ``Q = (V(Q), E(Q), L, ≺)``: labelled vertices, directed
edges, and a strict partial order ``≺`` over the edges.  This module provides
the user-facing builder plus everything the engine derives from it:

* label-compatibility between query edges and stream edges (with wildcard
  support — the CAIDA workload of §VII-A replaces source ports by ``*``);
* prerequisite subqueries ``Preq(ε)`` (Definition 6);
* induced subqueries, weak connectivity, query diameter (IncMat's affected
  area radius).
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple,
)

from ..graph.edge import StreamEdge
from .timing import TimingOrder

VertexId = Hashable
EdgeId = Hashable


class _Wildcard:
    """Sentinel matching any value in a label position."""

    _instance: Optional["_Wildcard"] = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: Wildcard label component.  A query edge label of ``ANY`` matches every
#: data edge label; inside a tuple label it matches that position only,
#: e.g. ``(ANY, 80, "tcp")`` matches any source port to port 80 over tcp.
ANY = _Wildcard()


def prefix_text(value: Hashable) -> Optional[str]:
    """The canonical text a prefix predicate tests against.

    Strings are themselves; ints (but not bools) are their decimal form,
    so ``Prefix("44")`` matches both ``4480`` and ``"4480"``.  Every other
    type has no text form and returns ``None`` — prefix predicates never
    match such labels.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


class Prefix:
    """Prefix label predicate (DSL ``44*`` / ``prefix:44``).

    Matches any str/int label whose :func:`prefix_text` starts with
    ``prefix``.  Instances are hashable and compare by pattern value —
    never equal to a plain string or int — so sub-plan signatures built
    over predicate labels hash canonically instead of colliding with
    concrete-labelled plans, and routing tries can be keyed on them.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        if not isinstance(prefix, str) or not prefix:
            raise ValueError("Prefix pattern must be a non-empty string; "
                             "use ANY for an any-label position")
        self.prefix = prefix

    def matches(self, value: Hashable) -> bool:
        text = prefix_text(value)
        return text is not None and text.startswith(self.prefix)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Prefix) and other.prefix == self.prefix

    def __hash__(self) -> int:
        return hash((Prefix, self.prefix))

    def __repr__(self) -> str:
        return f"Prefix({self.prefix!r})"

    def __reduce__(self) -> Tuple:
        return (Prefix, (self.prefix,))


def _label_is_concrete(label: Hashable) -> bool:
    """Whether a query label contains no wildcard or predicate at any
    depth — for such labels ``labels_compatible`` degenerates to plain
    equality."""
    if label is ANY or isinstance(label, Prefix):
        return False
    if isinstance(label, tuple):
        return all(_label_is_concrete(part) for part in label)
    return True


def _label_is_keyable(label: Hashable) -> bool:
    """Concrete and hashable: a dict probe decides such a label exactly
    as ``labels_compatible`` would (NaN, the one value equality and the
    dict's identity shortcut disagree on, is refused at construction)."""
    if not _label_is_concrete(label):
        return False
    try:
        hash(label)
    except TypeError:
        return False
    return True


def _reject_nan(label: Hashable) -> None:
    """Refuse a query label that is not equal to itself (a float NaN) at
    any tuple depth: it can never match a data label, and a dict would
    match it by object identity until the first pickle round trip."""
    if isinstance(label, tuple):
        for part in label:
            _reject_nan(part)
    elif label != label:
        raise ValueError(
            f"query label {label!r} is not equal to itself (NaN) and "
            "could never match; use ANY for an any-label position")


def routing_atom(label: Hashable) -> Optional[Tuple]:
    """The per-position routing atom for a query label, or ``None``.

    Atoms are what the session-level :class:`~repro.core.labeltrie.
    PredicateRouter` indexes: ``("eq", value)`` for concrete hashable
    labels, ``("pre", prefix)`` for top-level :class:`Prefix` patterns,
    ``("any",)`` for a top-level ``ANY``.  Labels with no atom (tuples
    containing wildcards/predicates, unhashable values) force the whole
    edge onto the always-routed generic path.
    """
    if label is ANY:
        return ("any",)
    if isinstance(label, Prefix):
        return ("pre", label.prefix)
    if _label_is_keyable(label):
        return ("eq", label)
    return None


def labels_compatible(query_label: Hashable, data_label: Hashable) -> bool:
    """Wildcard/predicate-aware label comparison (query side may contain
    ``ANY`` or :class:`Prefix` at any tuple depth)."""
    if query_label is ANY:
        return True
    if isinstance(query_label, Prefix):
        return query_label.matches(data_label)
    if isinstance(query_label, tuple):
        if not isinstance(data_label, tuple) or len(query_label) != len(data_label):
            return False
        return all(labels_compatible(q, d)
                   for q, d in zip(query_label, data_label))
    return query_label == data_label


class QueryVertex:
    """A labelled query vertex."""

    __slots__ = ("vertex_id", "label")

    def __init__(self, vertex_id: VertexId, label: Hashable) -> None:
        self.vertex_id = vertex_id
        self.label = label

    def __repr__(self) -> str:
        return f"QueryVertex({self.vertex_id!r}:{self.label!r})"


class QueryEdge:
    """A directed query edge with an optional (wildcard-able) label."""

    __slots__ = ("edge_id", "src", "dst", "label")

    def __init__(self, edge_id: EdgeId, src: VertexId, dst: VertexId,
                 label: Hashable = ANY) -> None:
        self.edge_id = edge_id
        self.src = src
        self.dst = dst
        self.label = label

    def __repr__(self) -> str:
        return f"QueryEdge({self.edge_id!r}: {self.src!r}->{self.dst!r})"

    @property
    def endpoints(self) -> Tuple[VertexId, VertexId]:
        return (self.src, self.dst)

    def shares_vertex_with(self, other: "QueryEdge") -> bool:
        return bool({self.src, self.dst} & {other.src, other.dst})


#: The mask of a query edge whose three labels are all keyable: no arity
#: to check, every position hashed whole.
_ALL_KEYED = ((), ((0, None), (1, None), (2, None)))


def _compile_projection(arities: Tuple, picks: Tuple):
    """One mask's key extractor as a generated lambda — the per-arrival
    cost is then one call, not a walk over the mask.  The source is
    built from positions, arities and component indexes only."""
    names = ("src", "label", "dst")
    parts = "".join(
        f"{names[position]}, " if component is None
        else f"{names[position]}[{component}], "
        for position, component in picks)
    shape = " and ".join(
        f"isinstance({names[position]}, tuple) "
        f"and len({names[position]}) == {arity}"
        for position, arity in arities)
    return eval(f"lambda src, label, dst, loop: ({parts}loop,)"
                + (f" if {shape} else None" if shape else ""))


class QueryGraph:
    """Builder and read model for a time-constrained continuous query."""

    _connected: Optional[bool] = None     # older pickles lack the attribute

    def __init__(self) -> None:
        self._vertices: Dict[VertexId, QueryVertex] = {}
        self._edges: Dict[EdgeId, QueryEdge] = {}
        self.timing = TimingOrder()
        # Derived on first use, ``None`` after mutation, never pickled:
        # what ``matching_edge_ids`` probes, what ``label_signatures``
        # returns and ``validate``'s verdict, ``_connected``.
        self._label_index: Optional[Tuple[Dict, List]] = None
        self._signatures: Optional[Tuple] = None

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state.update(_label_index=None, _signatures=None, _connected=None)
        return state

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex_id: VertexId, label: Hashable) -> QueryVertex:
        if vertex_id in self._vertices:
            raise ValueError(f"duplicate query vertex: {vertex_id!r}")
        _reject_nan(label)
        vertex = QueryVertex(vertex_id, label)
        self._vertices[vertex_id] = vertex
        self._connected = None
        return vertex

    def add_edge(self, edge_id: EdgeId, src: VertexId, dst: VertexId,
                 label: Hashable = ANY) -> QueryEdge:
        if edge_id in self._edges:
            raise ValueError(f"duplicate query edge: {edge_id!r}")
        for vertex in (src, dst):
            if vertex not in self._vertices:
                raise KeyError(f"unknown query vertex: {vertex!r}")
        _reject_nan(label)
        edge = QueryEdge(edge_id, src, dst, label)
        self._edges[edge_id] = edge
        self.timing.add_edge_id(edge_id)
        self._label_index = self._signatures = self._connected = None
        return edge

    def add_timing_constraint(self, before: EdgeId, after: EdgeId) -> None:
        """Declare ``before ≺ after`` (matched timestamps must respect it)."""
        self.timing.add_constraint(before, after)

    def add_timing_chain(self, *edge_ids: EdgeId) -> None:
        """Declare ``e1 ≺ e2 ≺ ... ≺ en`` in one call."""
        for before, after in zip(edge_ids, edge_ids[1:]):
            self.timing.add_constraint(before, after)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def is_single_edge(self) -> bool:
        """Exactly one query edge — the one shape the Timing engine runs
        on its stateless plan (the rule lives here so the engine and
        :mod:`~repro.core.plan`'s ``explain`` cannot disagree)."""
        return len(self._edges) == 1

    def vertices(self) -> List[QueryVertex]:
        return list(self._vertices.values())

    def edges(self) -> List[QueryEdge]:
        return list(self._edges.values())

    def edge_ids(self) -> List[EdgeId]:
        return list(self._edges.keys())

    def vertex(self, vertex_id: VertexId) -> QueryVertex:
        return self._vertices[vertex_id]

    def edge(self, edge_id: EdgeId) -> QueryEdge:
        return self._edges[edge_id]

    def vertex_label(self, vertex_id: VertexId) -> Hashable:
        return self._vertices[vertex_id].label

    def has_edge_id(self, edge_id: EdgeId) -> bool:
        return edge_id in self._edges

    # ------------------------------------------------------------------ #
    # Matching helpers
    # ------------------------------------------------------------------ #
    def edge_matches(self, edge_id: EdgeId, stream_edge: StreamEdge) -> bool:
        """Compatibility of a stream edge with one query edge in isolation.

        Checks endpoint labels and the edge label (wildcard-aware), plus the
        one structural condition decidable per-edge: loop shape.  A self-loop
        query edge can only map to a self-loop data edge, and a non-loop
        query edge can never map to a self-loop (its two query vertices
        would collapse onto one data vertex, violating injectivity).
        Consistency with partially built matches is the join's job
        (:mod:`repro.core.join`), not this predicate's.
        """
        qedge = self._edges[edge_id]
        if (qedge.src == qedge.dst) != (stream_edge.src == stream_edge.dst):
            return False
        return (labels_compatible(self._vertices[qedge.src].label,
                                  stream_edge.src_label)
                and labels_compatible(self._vertices[qedge.dst].label,
                                      stream_edge.dst_label)
                and labels_compatible(qedge.label, stream_edge.label))

    def _edge_labels(self, qedge: QueryEdge) -> Tuple:
        """``(src-label, edge-label, dst-label)`` of a query edge."""
        return (self._vertices[qedge.src].label, qedge.label,
                self._vertices[qedge.dst].label)

    def _build_label_index(self) -> Tuple[Dict, List]:
        """Compile every query edge into one mask-keyed hash index (the
        tuple-space search of packet classifiers): hash the concrete
        part, walk only what cannot be hashed.

        A *mask* says which parts of an arrival's three labels are
        hashed: a keyable label whole; of any other tuple label its
        arity and keyable components (one level of destructuring); of
        ``ANY``, a :class:`Prefix` or an unhashable value nothing.
        Query edges with an equal mask share one ``key -> entries``
        dict, the key being those parts plus the loop flag; an entry is
        ``(insertion ordinal, edge id, residual)``, the *residual* being
        the ``(position, component, pattern)`` checks the key could not
        decide, left to ``labels_compatible``.

        Returns ``(exact, masks)``: the dict of the all-keyed mask, whose
        key is the arrival's plain ``(src-label, edge-label, dst-label,
        is-loop)``, and ``(project, dict)`` for every other mask —
        ``project(*arrival)`` is the key, or ``None`` when a label the
        mask destructures is no tuple of that arity.
        """
        tables: Dict[Tuple, Dict[Tuple, List[Tuple]]] = {}
        for ordinal, (eid, qedge) in enumerate(self._edges.items()):
            arities: List[Tuple] = []
            picks: List[Tuple] = []
            key: List = []
            residual: List[Tuple] = []
            for position, label in enumerate(self._edge_labels(qedge)):
                if _label_is_keyable(label):
                    picks.append((position, None))
                    key.append(label)
                elif isinstance(label, tuple):
                    arities.append((position, len(label)))
                    for component, part in enumerate(label):
                        if _label_is_keyable(part):
                            picks.append((position, component))
                            key.append(part)
                        elif part is not ANY:
                            residual.append((position, component, part))
                elif label is not ANY:
                    residual.append((position, None, label))
            key.append(qedge.src == qedge.dst)
            tables.setdefault((tuple(arities), tuple(picks)), {}).setdefault(
                tuple(key), []).append((ordinal, eid, tuple(residual)))
        exact = tables.pop(_ALL_KEYED, {})
        self._label_index = (exact, [(_compile_projection(*mask), table)
                                     for mask, table in tables.items()])
        return self._label_index

    def matching_edge_ids(self, stream_edge: StreamEdge) -> List[EdgeId]:
        """All query edges a stream edge is label-compatible with, in
        edge insertion order — :meth:`edge_matches` over every query
        edge, answered by one dict probe per mask of the compiled index
        (this runs once per arrival) plus the residual checks of just
        the entries the probe found.
        """
        index = self._label_index
        if index is None:
            index = self._build_label_index()
        exact, masks = index
        arrival = (stream_edge.src_label, stream_edge.label,
                   stream_edge.dst_label, stream_edge.src == stream_edge.dst)
        try:
            if not masks:       # every query edge is all-keyed
                return [entry[1] for entry in exact.get(arrival, ())]
            matched = list(exact.get(arrival, ())) if exact else []
            for project, table in masks:
                key = project(*arrival)
                if key is None:
                    continue
                for entry in table.get(key, ()):
                    for position, component, pattern in entry[2]:
                        label = arrival[position]
                        if not labels_compatible(
                                pattern, label if component is None
                                else label[component]):
                            break
                    else:
                        matched.append(entry)
        except TypeError:       # unhashable data label: no dict probe
            return [eid for eid in self._edges
                    if self.edge_matches(eid, stream_edge)]
        if len(matched) > 1:
            matched.sort()      # interleave by (unique) insertion ordinal
        return [entry[1] for entry in matched]

    def label_index_shape(self) -> Tuple[int, int, int, bool]:
        """``(masks, keyed edges, residual checks, all-keyed)`` of the
        compiled index, for ``explain``: dict probes per arrival, query
        edges that hash at least one concrete part (the others judge
        every arrival), ``labels_compatible`` checks left on the entries
        a probe finds, and whether the all-keyed mask is the only one."""
        index = self._label_index
        if index is None:
            index = self._build_label_index()
        exact, masks = index
        tables = ([exact] if exact else []) + [table for _, table in masks]
        buckets = [item for table in tables for item in table.items()]
        return (len(tables),
                sum(len(entries) for key, entries in buckets if len(key) > 1),
                sum(len(entry[2]) for _, entries in buckets
                    for entry in entries),
                not masks)

    def label_signatures(self) -> Tuple[FrozenSet[Tuple], FrozenSet[Tuple],
                                        bool]:
        """The query's routing signature:
        ``(exact_keys, predicates, has_generic)``.

        ``exact_keys`` is the set of concrete ``(src-label, edge-label,
        dst-label, is-loop)`` triples this query's wildcard-free edges
        probe for — the same keys :meth:`matching_edge_ids` hashes a
        stream edge into.  ``predicates`` is the set of ``(src-atom,
        edge-atom, dst-atom, is-loop)`` :func:`routing_atom` triples for
        edges carrying top-level ``ANY``/:class:`Prefix` labels — a
        :class:`~repro.core.labeltrie.PredicateRouter` resolves them in
        O(label length) per arrival.  ``has_generic`` is ``True`` only
        for the opaque residue (tuple labels with inner wildcards,
        unhashable labels) a session cannot route and so shows every
        arrival.  A stream edge that hits none of the three tiers
        provably matches no query edge — which is what lets a
        multi-query :class:`~repro.api.Session` route arrivals to only
        the queries that can consume them.
        """
        if self._signatures is None:
            exact, predicates, has_generic = set(), set(), False
            for qedge in self._edges.values():
                labels = self._edge_labels(qedge)
                is_loop = qedge.src == qedge.dst
                atoms = tuple(map(routing_atom, labels))
                if None in atoms:
                    has_generic = True
                elif all(atom[0] == "eq" for atom in atoms):
                    exact.add(labels + (is_loop,))
                else:
                    predicates.add(atoms + (is_loop,))
            self._signatures = (frozenset(exact), frozenset(predicates),
                                has_generic)
        return self._signatures

    def distinct_term_labels(self) -> int:
        """Number of distinct (src-label, edge-label, dst-label) triples.

        This is the ``d`` of the cost model (Theorem 7): the probability a
        random compatible arrival matches a given query edge is ``1/d``.
        """
        return len({self._edge_labels(e) for e in self._edges.values()})

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def edges_adjacent(self, a: EdgeId, b: EdgeId) -> bool:
        """Whether two query edges share an endpoint."""
        return self._edges[a].shares_vertex_with(self._edges[b])

    def is_weakly_connected(self, edge_ids: Optional[Iterable[EdgeId]] = None) -> bool:
        """Weak connectivity of the subquery induced by ``edge_ids``.

        With ``edge_ids=None`` the whole query is checked.  Connectivity is
        over the *edge* set: the induced subgraph on the edges' endpoints,
        ignoring direction (Definition 7 uses weak connectivity).
        """
        ids = list(self._edges if edge_ids is None else edge_ids)
        if not ids:
            return True
        adjacency: Dict[EdgeId, List[EdgeId]] = {e: [] for e in ids}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if self.edges_adjacent(a, b):
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(ids)

    def diameter(self) -> int:
        """Undirected diameter of the query graph (∞-free: assumes connected).

        IncMat bounds its affected area by this value.
        """
        vertices = list(self._vertices)
        neighbors: Dict[VertexId, Set[VertexId]] = {v: set() for v in vertices}
        for edge in self._edges.values():
            neighbors[edge.src].add(edge.dst)
            neighbors[edge.dst].add(edge.src)
        best = 0
        for source in vertices:
            depth = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for vertex in frontier:
                    for nbr in neighbors[vertex]:
                        if nbr not in depth:
                            depth[nbr] = depth[vertex] + 1
                            nxt.append(nbr)
                frontier = nxt
            best = max(best, max(depth.values()))
        return best

    def preq(self, edge_id: EdgeId) -> FrozenSet[EdgeId]:
        """Prerequisite edge set of Definition 6."""
        return self.timing.preq(edge_id)

    def subquery(self, edge_ids: Iterable[EdgeId]) -> "QueryGraph":
        """Subquery induced by a set of edges, timing order restricted."""
        ids = list(edge_ids)
        sub = QueryGraph()
        needed_vertices: Set[VertexId] = set()
        for eid in ids:
            edge = self._edges[eid]
            needed_vertices.update(edge.endpoints)
        for vid in needed_vertices:
            sub.add_vertex(vid, self._vertices[vid].label)
        for eid in ids:
            edge = self._edges[eid]
            sub.add_edge(eid, edge.src, edge.dst, edge.label)
        restricted = self.timing.restricted_to(ids)
        for before, after in restricted.direct_constraints():
            sub.timing.add_constraint(before, after)
        return sub

    def validate(self) -> None:
        """Raise ``ValueError`` unless the query is well-formed.

        Well-formed means: at least one edge, weakly connected (the paper
        assumes connected queries — §III-B constructs prefix-connected
        permutations from this), and an acyclic timing order (guaranteed by
        construction in :class:`TimingOrder`).
        """
        if not self._edges:
            raise ValueError("query graph has no edges")
        if not self._connected and not self.is_weakly_connected():
            raise ValueError("query graph must be weakly connected")
        self._connected = True

    def __repr__(self) -> str:
        return (f"QueryGraph({self.num_vertices} vertices, "
                f"{self.num_edges} edges, "
                f"{len(self.timing.direct_constraints())} timing constraints)")
