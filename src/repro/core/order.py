"""Dynamic order queries on a mutating spanning tree.

EdgeByEdge restructures the tree after (potentially) *every* edge it reads,
so a static preorder index would be rebuilt O(m) times — exactly the
"maintaining a total order is expensive" drawback the paper calls out for
the existing solutions.  This module answers ancestor / preorder-comparison
queries directly from the live tree in O(depth + siblings) per query, with
no global renumbering:

* the LCA is found by walking both root paths;
* for order-incomparable nodes, the preorder comparison reduces to the
  positions of the two LCA children in the LCA's child list
  (:mod:`repro.core.tree`), O(siblings) per query.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import InvalidGraphError
from .classify import EdgeType
from .tree import SpanningTree


def root_path(tree: SpanningTree, node: int) -> List[int]:
    """The path ``[node, parent, ..., root]``."""
    path = [node]
    parent = tree.parent.get(node)
    if parent is None and node != tree.root:
        if node not in tree.parent:
            raise InvalidGraphError(f"unknown node {node}")
        raise InvalidGraphError(f"node {node} is detached")
    while parent is not None:
        path.append(parent)
        parent = tree.parent[parent]
    return path


def find_lca(tree: SpanningTree, u: int, v: int) -> Tuple[int, Optional[int], Optional[int]]:
    """The LCA of ``u`` and ``v`` plus the LCA children on each path.

    Returns:
        ``(w, a, b)`` where ``w`` is the lowest common ancestor, ``a`` is
        the child of ``w`` on the path to ``u`` (``None`` when ``w == u``),
        and ``b`` likewise for ``v``.
    """
    path_u = root_path(tree, u)
    on_path_u = {node: index for index, node in enumerate(path_u)}
    current = v
    child_on_v_side: Optional[int] = None
    while current not in on_path_u:
        child_on_v_side = current
        current = tree.parent[current]
        if current is None:  # pragma: no cover - disconnected trees are invalid
            raise InvalidGraphError(f"nodes {u} and {v} have no common ancestor")
    lca = current
    index = on_path_u[lca]
    child_on_u_side = path_u[index - 1] if index > 0 else None
    return lca, child_on_u_side, child_on_v_side


def is_ancestor(tree: SpanningTree, u: int, v: int) -> bool:
    """Whether ``u`` is an ancestor of ``v`` (nodes are self-ancestors)."""
    current: Optional[int] = v
    while current is not None:
        if current == u:
            return True
        current = tree.parent[current]
    return False


def classify_edge_dynamic(tree: SpanningTree, u: int, v: int) -> EdgeType:
    """Classify edge ``(u, v)`` against the live (possibly mutating) tree.

    Semantics match :meth:`repro.core.classify.IntervalIndex.classify`, at
    O(depth + siblings) per call instead of O(1)-after-O(n)-rebuild.
    """
    if tree.parent.get(v) == u:
        return EdgeType.TREE
    if u == v:
        return EdgeType.BACKWARD
    lca, child_u, child_v = find_lca(tree, u, v)
    if child_u is None:  # u is a strict ancestor of v
        return EdgeType.FORWARD
    if child_v is None:  # v is a strict ancestor of u
        return EdgeType.BACKWARD
    if _precedes(tree, lca, child_u, child_v):
        return EdgeType.FORWARD_CROSS
    return EdgeType.BACKWARD_CROSS


def _precedes(tree: SpanningTree, parent: int, a: int, b: int) -> bool:
    """Whether child ``a`` of ``parent`` comes before its sibling ``b``."""
    siblings = tree.child_lists[parent]
    return siblings.index(a) < siblings.index(b)
