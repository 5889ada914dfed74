"""A compact in-memory directed graph.

Nodes are integers ``0 .. n-1``.  The representation is an adjacency list
(one Python list per node), which is what the in-memory DFS over ``G_M``
wants: out-neighbors in a controllable order, cheap iteration, and parallel
edges allowed (an edge file may legitimately contain duplicates).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..errors import InvalidGraphError

Edge = Tuple[int, int]


class Digraph:
    """Adjacency-list directed graph over nodes ``0 .. n-1``.

    >>> g = Digraph(3)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.edges())
    [(0, 1), (1, 2)]
    """

    __slots__ = ("node_count", "adjacency", "edge_count")

    def __init__(self, node_count: int) -> None:
        if node_count < 0:
            raise InvalidGraphError("node_count must be non-negative")
        self.node_count = node_count
        self.adjacency: List[List[int]] = [[] for _ in range(node_count)]
        self.edge_count = 0

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[Edge]) -> "Digraph":
        """Build a graph from an edge iterable."""
        graph = cls(node_count)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise InvalidGraphError(
                f"node {node} out of range for graph with {self.node_count} nodes"
            )

    def add_edge(self, u: int, v: int) -> None:
        """Add directed edge ``u -> v`` (parallel edges allowed)."""
        self._check_node(u)
        self._check_node(v)
        self.adjacency[u].append(v)
        self.edge_count += 1

    def out_neighbors(self, u: int) -> List[int]:
        """The out-neighbor list of ``u`` (live view; do not mutate)."""
        self._check_node(u)
        return self.adjacency[u]

    def out_degree(self, u: int) -> int:
        """Number of out-edges of ``u``."""
        self._check_node(u)
        return len(self.adjacency[u])

    def in_degrees(self) -> List[int]:
        """In-degree of every node, computed in one pass."""
        degrees = [0] * self.node_count
        for targets in self.adjacency:
            for v in targets:
                degrees[v] += 1
        return degrees

    def degrees(self) -> List[int]:
        """Total (in + out) degree of every node."""
        totals = self.in_degrees()
        for u, targets in enumerate(self.adjacency):
            totals[u] += len(targets)
        return totals

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in adjacency order."""
        for u, targets in enumerate(self.adjacency):
            for v in targets:
                yield (u, v)

    def reversed(self) -> "Digraph":
        """The graph with every edge direction flipped."""
        flipped = Digraph(self.node_count)
        for u, v in self.edges():
            flipped.add_edge(v, u)
        return flipped

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` (the paper's graph size measure)."""
        return self.node_count + self.edge_count

    def __repr__(self) -> str:
        return f"Digraph(n={self.node_count}, m={self.edge_count})"
