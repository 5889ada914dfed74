"""Core data structures: ordered spanning trees, edge classification,
in-memory DFS/SCC/topological sort, and DFS-Tree validation."""

from .classify import EdgeType, IntervalIndex, Preorder
from .inmemory import (
    adjacency_from_edge_file,
    dfs_preferring_tree,
    tarjan_scc,
    topological_sort,
)
from .order import classify_edge_dynamic, find_lca, is_ancestor
from .tree import SpanningTree, VirtualNodeAllocator
from .validation import (
    DFSTreeReport,
    TreeCheckResult,
    check_spanning_tree,
    real_preorder,
    verify_dfs_tree,
    verify_dfs_tree_inmemory,
)

__all__ = [
    "DFSTreeReport",
    "EdgeType",
    "IntervalIndex",
    "Preorder",
    "SpanningTree",
    "TreeCheckResult",
    "VirtualNodeAllocator",
    "check_spanning_tree",
    "classify_edge_dynamic",
    "adjacency_from_edge_file",
    "dfs_preferring_tree",
    "find_lca",
    "is_ancestor",
    "real_preorder",
    "tarjan_scc",
    "topological_sort",
    "verify_dfs_tree",
    "verify_dfs_tree_inmemory",
]
