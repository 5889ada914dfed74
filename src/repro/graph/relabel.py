"""Relabel an on-disk graph by a node permutation — typically a DFS order.

The paper's §4.1 (drawback 3) blames baseline iteration counts on low
*locality*: edges stored far from their position in the DFS visiting
sequence.  Renumbering nodes by a previously computed DFS order (and
optionally sorting the edge file by source) produces a layout where
subsequent traversals touch nearly-sorted data — a standard trick for
graph compression.  (The locality ablation benchmark reaches the same
layout without renumbering: it sorts the edge file by preorder with
``sort_edge_file``.)
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import InvalidGraphError
from .disk_graph import DiskGraph


def relabel_graph(graph: DiskGraph, order: Sequence[int]) -> DiskGraph:
    """Rewrite ``graph`` with node ``order[i]`` renamed to ``i``.

    Args:
        order: a permutation of ``range(graph.node_count)`` — e.g.
            ``DFSResult.order``.

    Returns:
        A new :class:`DiskGraph` on the same device (one scan + one write
        of the edge file).  The original graph is left untouched.
    """
    node_count = graph.node_count
    if sorted(order) != list(range(node_count)):
        raise InvalidGraphError("order must be a permutation of the node ids")
    new_id: List[int] = [0] * node_count
    for position, node in enumerate(order):
        new_id[node] = position
    return DiskGraph.from_edges(
        graph.device,
        node_count,
        ((new_id[u], new_id[v]) for u, v in graph.scan()),
        validate=False,
    )
