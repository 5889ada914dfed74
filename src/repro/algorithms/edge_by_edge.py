"""``EdgeByEdge`` — the per-edge restructuring baseline of Sibeyn et al.

Scan the edge file; whenever the scanned edge ``(u, v)`` is forward-cross
with respect to the in-memory tree, restructure immediately: delete the tree
edge ``(parent(v), v)`` and add ``(u, v)`` (re-parenting ``v``'s subtree
under ``u``).  Repeat full passes until one pass makes no change.

Because the tree mutates under the scan, classification uses the dynamic
O(depth + siblings) climbing comparator instead of a preorder index —
maintaining a total order under mutation is exactly the cost the paper's
drawback (1) describes.
"""

from __future__ import annotations

from typing import Optional

from ..graph.disk_graph import DiskGraph
from ..obs import Tracer
from ..core.classify import EdgeType, IntervalIndex
from ..core.order import classify_edge_dynamic
from .base import DFSResult, RunContext, initial_star_tree


def edge_by_edge(
    graph: DiskGraph,
    memory: int,
    start: Optional[int] = None,
    max_passes: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> DFSResult:
    """Compute a DFS-Tree with the per-edge restructuring heuristic.

    Args:
        graph: the graph on disk.
        memory: budget ``M`` in elements (only the tree is held: ``3|V|``).
        start: optional DFS start node.
        max_passes: cap on scan passes; defaults to ``2n + 16``.
        tracer: a :class:`~repro.obs.Tracer` to receive one
            ``restructure`` span per scan pass.

    Raises:
        ConvergenceError: if the heuristic exceeds ``max_passes``.
    """
    # Adaptive classification: while the tree is unchanged this pass an
    # O(1)-per-edge interval index answers; after a fix the index is
    # stale.  A bounded number of O(n) rebuilds is worth paying (late,
    # nearly-converged passes have few fixes), beyond that the pass falls
    # back to O(depth + siblings) climbing.  Either path classifies
    # exactly, so the computed tree is identical to the naive
    # implementation's.
    rebuild_allowance = max(1, graph.edge_count // max(1, graph.node_count))

    with RunContext(
        graph, memory, "edge-by-edge", deadline_seconds, tracer, max_passes
    ) as context:
        tree = initial_star_tree(graph, context.allocator, start)
        while True:
            context.check_deadline()
            update = False
            fixes = 0
            index = IntervalIndex(tree)
            with context.tracer.span(
                "restructure", nodes=graph.node_count,
                edges=graph.edge_file.edge_count,
            ) as span:
                for u, v in graph.edge_file.scan():
                    if u == v:
                        continue
                    if index is not None:
                        kind = index.classify(u, v)
                    else:
                        kind = classify_edge_dynamic(tree, u, v)
                    if kind is EdgeType.FORWARD_CROSS:
                        # Replace (parent(v), v) by (u, v): v's subtree moves
                        # under u.  u and v are order-incomparable (the edge
                        # is cross), so u cannot lie inside v's subtree.
                        tree.reattach(v, u)
                        update = True
                        fixes += 1
                        if fixes <= rebuild_allowance:
                            index = IntervalIndex(tree)
                        else:
                            index = None
                span.annotate(reattachments=fixes, update=update)
            context.bump("reattachments", fixes)
            if context.end_pass(update):
                return context.finish(tree)
