"""Eulerian path / circuit computation — the paper's abstract lists it
among the graph problems that need DFS-style traversal machinery.

The *feasibility* test is fully semi-external: one scan accumulates all
in/out degrees (``O(n)`` memory) and a union-find over the same scan
checks that all edges share one weak component.  *Construction*
(Hierholzer's algorithm) inherently consumes edges in random order, so it
loads the adjacency once (``scan(m)`` I/Os, ``O(n + m)`` memory) — the
documented memory concession, same as the paper's in-memory base case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import InvalidGraphError
from ..graph.disk_graph import DiskGraph
from .components import UnionFind


@dataclass
class EulerReport:
    """Outcome of the Eulerian feasibility test."""

    has_circuit: bool
    has_path: bool
    start: Optional[int]  # a valid start node for the path/circuit
    reason: str


def check_eulerian(graph: DiskGraph) -> EulerReport:
    """Semi-external Eulerian feasibility (one scan).

    A digraph has an Eulerian circuit iff every node has equal in- and
    out-degree and all edges lie in one weakly connected component; a
    (non-circuit) path additionally allows exactly one node with
    ``out = in + 1`` (the start) and one with ``in = out + 1`` (the end).
    """
    n = graph.node_count
    out_degree = [0] * n
    in_degree = [0] * n
    dsu = UnionFind(n)
    edge_count = 0
    first_endpoint: Optional[int] = None
    for u, v in graph.scan():
        out_degree[u] += 1
        in_degree[v] += 1
        dsu.union(u, v)
        edge_count += 1
        if first_endpoint is None:
            first_endpoint = u

    if edge_count == 0:
        return EulerReport(True, True, None, "no edges")

    component = dsu.find(first_endpoint)
    for node in range(n):
        if (out_degree[node] or in_degree[node]) and dsu.find(node) != component:
            return EulerReport(False, False, None, "edges span multiple components")

    surplus_out = [node for node in range(n) if out_degree[node] == in_degree[node] + 1]
    surplus_in = [node for node in range(n) if in_degree[node] == out_degree[node] + 1]
    off_by_one = set(surplus_out) | set(surplus_in)
    balanced = all(
        out_degree[node] == in_degree[node]
        for node in range(n)
        if node not in off_by_one
    )
    if not balanced or len(surplus_out) > 1 or len(surplus_in) > 1:
        return EulerReport(False, False, None, "degree imbalance")
    if not surplus_out and not surplus_in:
        return EulerReport(True, True, first_endpoint, "all degrees balanced")
    if len(surplus_out) == 1 and len(surplus_in) == 1:
        return EulerReport(False, True, surplus_out[0], "exactly one source/sink pair")
    return EulerReport(False, False, None, "degree imbalance")


def eulerian_path(graph: DiskGraph) -> Optional[List[int]]:
    """An Eulerian path/circuit as a node sequence, or ``None``.

    Feasibility is checked semi-externally first; construction then loads
    the adjacency once and runs iterative Hierholzer.

    Returns:
        ``[v0, v1, ..., vm]`` visiting every edge exactly once, or
        ``None`` when no Eulerian path exists.  An edgeless graph yields
        an empty list.
    """
    report = check_eulerian(graph)
    if not report.has_path:
        return None
    if report.start is None:
        return []

    adjacency: List[List[int]] = [[] for _ in range(graph.node_count)]
    for u, v in graph.scan():
        adjacency[u].append(v)
    cursor = [0] * graph.node_count

    path: List[int] = []
    stack = [report.start]
    while stack:
        node = stack[-1]
        targets = adjacency[node]
        if cursor[node] < len(targets):
            stack.append(targets[cursor[node]])
            cursor[node] += 1
        else:
            path.append(stack.pop())
    path.reverse()
    if len(path) != graph.edge_count + 1:
        raise InvalidGraphError(
            "internal error: Hierholzer did not consume every edge"
        )
    return path
