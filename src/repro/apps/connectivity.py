"""Semi-external articulation points and bridges.

Cut vertices and bridges of the underlying undirected graph are the
classic lowpoint applications of DFS (Tarjan's original use).  They fit
the semi-external model cleanly:

1. symmetrize the edge file and compute a DFS forest semi-externally;
2. one scan accumulates, per node, the minimum discovery time reachable
   through a single non-tree edge (``O(n)`` memory);
3. one bottom-up pass over the in-memory tree folds the per-subtree
   lowpoints and applies the standard criteria:

   * a tree edge ``(p, c)`` is a **bridge** iff ``low[c] > disc[p]``;
   * a non-root ``u`` is an **articulation point** iff some child ``c``
     has ``low[c] >= disc[u]``; the root is one iff it has >= 2 children.

The underlying undirected graph is treated as a *simple* graph: the
symmetrized edge file is deduplicated with one external sort (``sort(m)``
I/Os), so anti-parallel directed pairs and duplicates collapse into one
undirected edge.  Self-loops are ignored.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from ..api import semi_external_dfs
from ..graph.disk_graph import DiskGraph

Edge = Tuple[int, int]


@dataclass
class ConnectivityReport:
    """Articulation points and bridges of the underlying undirected graph."""

    articulation_points: Set[int]
    bridges: Set[Edge]  # canonical orientation: (parent, child) of the tree

    def is_biconnected(self, node_count: int) -> bool:
        """Whether the graph is biconnected (connected, no cut vertex).

        Only meaningful when the graph is connected and has >= 3 nodes.
        """
        return node_count >= 3 and not self.articulation_points


def _symmetrize_simple(graph: DiskGraph) -> DiskGraph:
    """``G ∪ G^R``, deduplicated: every undirected edge appears exactly
    twice (once per direction)."""
    from ..storage.external_sort import sort_edge_file

    def both():
        for u, v in graph.scan():
            if u != v:
                yield (u, v)
                yield (v, u)

    doubled = DiskGraph.from_edges(
        graph.device, graph.node_count, both(), validate=False
    )
    try:
        memory_edges = max(4096, graph.node_count)
        unique = sort_edge_file(
            graph.device, doubled.edge_file, memory_edges=memory_edges, unique=True
        )
    finally:
        doubled.delete()
    return DiskGraph(graph.device, graph.node_count, unique)


@contextmanager
def _lowpoints(
    graph: DiskGraph, memory: int, algorithm: str
) -> Iterator[
    Tuple[DiskGraph, List[int], Dict[int, int], Dict[int, int], Dict[int, int]]
]:
    """The lowpoint state both reports start from, over ``G ∪ G^R``.

    Yields ``(symmetric, order, disc, parent_of, low)``: the symmetrized
    graph (deleted on exit), the DFS preorder, each node's discovery
    time, the tree parent of every non-root node, and each node's
    lowpoint.
    """
    symmetric = _symmetrize_simple(graph)
    try:
        result = semi_external_dfs(symmetric, memory, algorithm=algorithm)
        tree = result.tree
        order = result.order
        disc: Dict[int, int] = {
            node: position for position, node in enumerate(order)
        }
        parent_of: Dict[int, int] = {}
        for node in order:
            parent = tree.parent[node]
            if parent is not None and not tree.is_virtual(parent):
                parent_of[node] = parent

        # One scan: per node, the best (smallest) discovery time reachable
        # over ONE non-tree edge.  In a DFS forest of a symmetric graph
        # every non-tree edge joins an ancestor/descendant pair; the
        # (child -> parent) counterpart of each tree edge is skipped (the
        # file is deduplicated, so it appears exactly once per direction).
        low: Dict[int, int] = dict(disc)
        for u, v in symmetric.scan():
            if u == v or parent_of.get(u) == v or parent_of.get(v) == u:
                continue
            if disc[v] < low[u]:
                low[u] = disc[v]
            if disc[u] < low[v]:
                low[v] = disc[u]

        # Fold lowpoints bottom-up (reverse preorder = children before
        # parents).
        for node in reversed(order):
            parent = parent_of.get(node)
            if parent is not None and low[node] < low[parent]:
                low[parent] = low[node]
        yield symmetric, order, disc, parent_of, low
    finally:
        symmetric.delete()


def connectivity_report(
    graph: DiskGraph,
    memory: int,
    algorithm: str = "divide-td",
) -> ConnectivityReport:
    """Compute articulation points and bridges semi-externally.

    Args:
        graph: the (directed) graph on disk; direction is ignored.
        memory: semi-external budget ``M``.
        algorithm: which semi-external DFS computes the spanning forest.
    """
    with _lowpoints(graph, memory, algorithm) as (_, order, disc, parent_of, low):
        articulation: Set[int] = set()
        bridges: Set[Edge] = set()
        root_children: Dict[int, int] = {}
        for node in order:
            parent = parent_of.get(node)
            if parent is None:
                continue
            if low[node] > disc[parent]:
                bridges.add((parent, node))
            grand = parent_of.get(parent)
            if grand is None:
                root_children[parent] = root_children.get(parent, 0) + 1
            elif low[node] >= disc[parent]:
                articulation.add(parent)
        for root, children in root_children.items():
            if children >= 2:
                articulation.add(root)
        return ConnectivityReport(articulation, bridges)


def biconnected_components(
    graph: DiskGraph,
    memory: int,
    algorithm: str = "divide-td",
) -> List[Set[Edge]]:
    """Partition the undirected edges into biconnected components.

    Same semi-external recipe as :func:`connectivity_report` plus one more
    O(n) top-down pass: every non-root node ``c`` either *opens* a new
    component at its tree edge (``low[c] >= disc[parent(c)]``) or inherits
    its parent's component; a back edge belongs to its deep endpoint's
    component.  Edges are returned with canonical ``(min, max)``
    orientation; self-loops are ignored.

    Returns:
        Components (edge sets), largest first; together they partition
        the simple undirected edge set.
    """
    with _lowpoints(graph, memory, algorithm) as (
        symmetric, order, disc, parent_of, low
    ):
        # component representative: preorder is top-down, so parents are
        # resolved before their children
        component_of: Dict[int, int] = {}
        for node in order:
            parent = parent_of.get(node)
            if parent is None:
                continue  # roots carry no tree edge
            if low[node] >= disc[parent]:
                component_of[node] = node  # opens a new component
            else:
                component_of[node] = component_of.get(parent, parent)

        groups: Dict[int, Set[Edge]] = {}
        for node, parent in parent_of.items():
            edge = (node, parent) if node < parent else (parent, node)
            groups.setdefault(component_of[node], set()).add(edge)
        for u, v in symmetric.scan():
            if u == v or parent_of.get(u) == v or parent_of.get(v) == u:
                continue
            # deep endpoint = the one discovered later
            deep = u if disc[u] > disc[v] else v
            edge = (u, v) if u < v else (v, u)
            groups[component_of[deep]].add(edge)
        return sorted(groups.values(), key=len, reverse=True)
