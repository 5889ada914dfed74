"""Edge classification against an ordered spanning tree (Section 2).

Given an ordered spanning tree ``T`` of ``G``, every edge of ``G`` is one of:

* **tree** — an edge of ``T``;
* **forward** — ``u`` is a (strict) ancestor of ``v``;
* **backward** — ``u`` is a descendant of ``v`` (includes self-loops);
* **forward-cross** — no ancestor relation and ``u`` precedes ``v`` in
  preorder;
* **backward-cross** — no ancestor relation and ``u`` follows ``v``.

An ordered spanning tree is a DFS-Tree iff it admits **no forward-cross
edge** — the invariant every algorithm in this library drives toward.

:class:`IntervalIndex` supports O(1) classification while the tree is
frozen: each node's preorder number and subtree size make ancestorship an
interval containment test.  Both come from a :class:`Preorder` — the nodes
in preorder and where each subtree ends — which the in-memory DFS returns
with every tree it builds, so a rebuilt tree is indexed without walking
it again; :meth:`Preorder.of` walks any other tree once.  Rebuild the
index after any tree mutation; for classification *during* mutation use
:mod:`repro.core.order`.  :class:`CutLabels` numbers a division's cut tree
the same way and labels every node with its deepest cut ancestor.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Dict, List, NamedTuple, Optional, cast

from .tree import SpanningTree


class EdgeType(enum.Enum):
    """The Section-2 edge taxonomy."""

    TREE = "tree"
    FORWARD = "forward"
    BACKWARD = "backward"
    FORWARD_CROSS = "forward-cross"
    BACKWARD_CROSS = "backward-cross"


class Preorder(NamedTuple):
    """A tree's nodes in preorder, with where each subtree ends.

    ``nodes[i:ends[i]]`` is the subtree of ``nodes[i]``: ``ends[i]`` is
    one past the last preorder position in it.  Only nodes reachable from
    the root appear.
    """

    nodes: List[int]
    ends: List[int]

    @classmethod
    def of(cls, tree: SpanningTree) -> "Preorder":
        """One walk of ``tree`` plus a bottom-up fold of the ends."""
        nodes = _preorder(tree)
        position = dict(zip(nodes, range(len(nodes))))
        parent = tree.parent
        ends = list(range(1, len(nodes) + 1))
        # Reversed preorder meets a parent's last child first, after every
        # descendant of that child, so its end is final when it is read.
        for at in range(len(nodes) - 1, 0, -1):
            up = position[cast(int, parent[nodes[at]])]
            if ends[up] < ends[at]:
                ends[up] = ends[at]
        return cls(nodes, ends)


class IntervalIndex:
    """Preorder/size interval labelling of a frozen :class:`SpanningTree`.

    ``pre[u] <= pre[v] < pre[u] + size[u]`` iff ``u`` is an ancestor of
    ``v`` (a node is its own ancestor).  ``preorder`` must be the tree's
    own (as :func:`~repro.core.inmemory.dfs_preferring_tree` returns it);
    without it the tree is walked once.
    """

    __slots__ = ("pre", "size", "parent")

    def __init__(
        self, tree: SpanningTree, preorder: Optional[Preorder] = None
    ) -> None:
        nodes, ends = preorder if preorder is not None else Preorder.of(tree)
        positions = range(len(nodes))
        self.pre: Dict[int, int] = dict(zip(nodes, positions))
        self.size: Dict[int, int] = dict(
            zip(nodes, map(int.__sub__, ends, positions))
        )
        self.parent = tree.parent

    # ------------------------------------------------------------------
    def covers(self, node: int) -> bool:
        """Whether ``node`` was reachable from the root at build time."""
        return node in self.pre

    def is_ancestor(self, u: int, v: int) -> bool:
        """Whether ``u`` is an ancestor of ``v`` (nodes are self-ancestors)."""
        pre_u = self.pre[u]
        return pre_u <= self.pre[v] < pre_u + self.size[u]

    def preorder_position(self, node: int) -> int:
        """The node's preorder number."""
        return self.pre[node]

    def classify(self, u: int, v: int) -> EdgeType:
        """Classify graph edge ``(u, v)`` against the indexed tree."""
        if self.parent.get(v) == u:
            return EdgeType.TREE
        if u == v:
            return EdgeType.BACKWARD
        pre_u = self.pre[u]
        pre_v = self.pre[v]
        if pre_u <= pre_v < pre_u + self.size[u]:
            return EdgeType.FORWARD
        if pre_v <= pre_u < pre_v + self.size[v]:
            return EdgeType.BACKWARD
        if pre_u < pre_v:
            return EdgeType.FORWARD_CROSS
        return EdgeType.BACKWARD_CROSS


class CutLabels:
    """Every node's cut label, and ancestry among the cut nodes.

    A cut tree (Definition 6.5) holds the root and every ancestor of each
    of its nodes, so ancestry among cut nodes is the same in the cut tree
    as in the whole tree.  Cut nodes are numbered in cut-tree preorder.

    ``label[x]`` is the number of ``x``'s deepest cut ancestor (a cut node
    is its own), for every node reachable from the root.  ``order[r]`` is
    the cut node numbered ``r`` and ``end[r]`` is ``r`` plus its cut
    subtree size, so numbers ``r < s`` belong to unrelated cut nodes
    exactly when ``s >= end[r]``.  One preorder sweep builds it.
    """

    __slots__ = ("label", "order", "end")

    def __init__(self, tree: SpanningTree, cut_nodes: AbstractSet[int]) -> None:
        if tree.root is not None and tree.root not in cut_nodes:
            raise ValueError("a cut tree must contain the root")
        # Only the root lacks a parent, and the root labels itself.
        parent = cast(Dict[int, int], tree.parent)
        label: Dict[int, int] = {}
        order: List[int] = []
        for node in _preorder(tree):
            if node in cut_nodes:
                label[node] = len(order)
                order.append(node)
            else:
                label[node] = label[parent[node]]
        sizes = [1] * len(order)
        for rank in range(len(order) - 1, 0, -1):  # children before parents
            sizes[label[parent[order[rank]]]] += sizes[rank]
        self.label = label
        self.order = order
        self.end = [rank + size for rank, size in enumerate(sizes)]

    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether cut node ``a`` is an ancestor of cut node ``b``."""
        rank = self.label[a]
        return rank <= self.label[b] < self.end[rank]


def _preorder(tree: SpanningTree) -> List[int]:
    """Every node reachable from the root, in preorder.

    An inlined child-list walk: it runs once per restructure batch and
    per division, where a generator's indirection is measurable.
    """
    root = tree.root
    if root is None:
        return []
    get_children = tree.child_lists.get
    order: List[int] = []
    append = order.append
    stack = [root]
    stack_pop = stack.pop
    stack_extend = stack.extend
    while stack:
        node = stack_pop()
        append(node)
        children = get_children(node)
        if children:
            stack_extend(reversed(children))
    return order
