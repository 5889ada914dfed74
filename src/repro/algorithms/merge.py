"""The merge algorithm (Algorithm 5).

Given the parts' DFS-Trees and the S-Graph Σ (a DAG over ``V(T_0)``), the
DFS-Tree of the whole graph is assembled without touching the edge file:

1. reorder every sibling group of ``T_0`` in Σ's *reverse* topological
   order — every S-edge connects two siblings (the pushup fixpoint), so
   this single permutation turns each potential forward-cross S-edge into
   a backward-cross edge.  The division computes this tree once
   (:attr:`~repro.algorithms.division.Division.ordered`), because divide
   & conquer checks its start head before the parts recurse;
2. graft each part's DFS-Tree at its leaf of that tree;
3. splice out the virtual contraction nodes (children promoted in place,
   Algorithm 5 lines 6–10).

Merge is tree-only by construction: it performs zero edge-file I/O (and
therefore has no row-at-a-time scan to vectorize) — every per-edge cost
of a division was already paid by the columnar kernels in
:mod:`repro.algorithms.division`.
"""

from __future__ import annotations

from typing import List

from ..core.tree import SpanningTree
from .division import Division


def splice_non_root_virtuals(tree: SpanningTree) -> int:
    """Remove every attached virtual node except the root; returns count.

    Children are promoted into the removed node's position, so the tree's
    real-node preorder is unchanged.
    """
    victims = [
        node
        for node in tree.preorder()
        if tree.is_virtual(node) and node != tree.root
    ]
    for node in victims:
        tree.splice_out(node)
    return len(victims)


def merge_division(division: Division, part_trees: List[SpanningTree]) -> SpanningTree:
    """Merge the recursed part trees through ``T_0`` and Σ.

    Args:
        division: the division that produced the parts (Σ must be a DAG).
        part_trees: the DFS-Trees of the parts, in ``division.parts`` order;
            each must be rooted at its part's root.

    Returns:
        The merged DFS-Tree, with this level's contraction virtuals spliced
        out (the root is kept even if virtual — the caller owns it).
    """
    # Step 1 (reverse-topological sibling order) is the division's.
    merged = division.ordered.copy()

    # Step 2: graft each part tree at its T_0 leaf.
    for part, part_tree in zip(division.parts, part_trees):
        if part_tree.root != part.root:
            raise ValueError(
                f"part {part.index} tree rooted at {part_tree.root}, "
                f"expected {part.root}"
            )
        for node in part_tree.preorder():
            if node == part.root:
                continue
            merged.add_node(node, virtual=part_tree.is_virtual(node))
            merged.attach(node, part_tree.parent[node])

    # Step 3: splice out virtual nodes (contraction nodes and any virtual
    # part roots), keeping the merged root for the caller.
    splice_non_root_virtuals(merged)
    return merged
