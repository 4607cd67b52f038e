"""Core: query model, TC machinery, expansion lists, MS-tree, Timing engine."""

from .decomposition import (
    expected_join_operations, greedy_decomposition, random_decomposition,
    validate_decomposition,
)
from .engine import EngineStats, TimingMatcher
from .estimate import (
    TermLabelStatistics, estimate_subquery_cardinality, estimated_join_order,
)
from .plan import QueryPlan, explain
from .guard import NullGuard, TraceGuard
from .join import ExtensionSpec, UnionSpec
from .join_order import jn_join_order, joint_number, random_join_order
from .matches import Match, build_vertex_mapping, satisfies_timing, verify_match
from .mstree import (
    GlobalMSTreeStore, MSTree, MSTreeNode, MSTreeTCStore, OneEdgeTCStore,
)
from .labeltrie import LabelTrie, PredicateRouter
from .query import (
    ANY, Prefix, QueryEdge, QueryGraph, QueryVertex, labels_compatible,
    prefix_text, routing_atom,
)
from .stores import GlobalIndependentStore, IndependentTCStore
from .tc import (
    find_timing_sequence, is_prefix_connected, is_tc_query,
    is_timing_sequence, tc_subqueries,
)
from .timing import TimingCycleError, TimingOrder

__all__ = [
    "ANY", "Prefix", "QueryGraph", "QueryVertex", "QueryEdge",
    "labels_compatible", "prefix_text", "routing_atom",
    "LabelTrie", "PredicateRouter",
    "TimingOrder", "TimingCycleError",
    "Match", "verify_match", "build_vertex_mapping", "satisfies_timing",
    "TimingMatcher", "EngineStats",
    "MSTree", "MSTreeNode", "MSTreeTCStore", "OneEdgeTCStore",
    "GlobalMSTreeStore",
    "IndependentTCStore", "GlobalIndependentStore",
    "ExtensionSpec", "UnionSpec",
    "tc_subqueries", "is_tc_query", "is_timing_sequence",
    "is_prefix_connected", "find_timing_sequence",
    "greedy_decomposition", "random_decomposition", "validate_decomposition",
    "expected_join_operations",
    "jn_join_order", "random_join_order", "joint_number",
    "NullGuard", "TraceGuard",
    "QueryPlan", "explain",
    "TermLabelStatistics", "estimate_subquery_cardinality",
    "estimated_join_order",
]
