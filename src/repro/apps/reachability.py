"""Semi-external single-source reachability.

Reachability queries are another §1 motivation.  With only ``O(n)``
memory, the reachable set of a source is computed by *semi-external
label propagation*: keep one bit per node, scan the edge file, and mark
``v`` whenever ``u`` is already marked; repeat until a scan makes no
change.  Each scan costs ``scan(m)`` I/Os and the pass count is bounded
by the depth of the BFS layering compressed by in-scan chaining (edges
that happen to be ordered source-first propagate within one pass —
another face of the locality observation in the paper's §4.1).

:func:`reachable_mask` is that propagation.  Sealing a run with pinned
sources (:func:`repro.serve.seal_result`) stores its masks, and
:meth:`~repro.serve.TreeArtifact.reachable_set` /
:meth:`~repro.serve.TreeArtifact.reachable` answer from them with zero
graph I/O.
"""

from __future__ import annotations

from ..graph.disk_graph import DiskGraph


def reachable_mask(
    graph: DiskGraph, source: int, max_passes: int = 0
) -> bytearray:
    """One bit per node: reachable from ``source`` (the propagation core).

    Args:
        max_passes: optional safety cap; 0 means unlimited (the loop
            always terminates in at most ``n`` passes).
    """
    if not 0 <= source < graph.node_count:
        raise ValueError(f"source {source} out of range")
    marked = bytearray(graph.node_count)
    marked[source] = 1
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for u, v in graph.scan():
            if marked[u] and not marked[v]:
                marked[v] = 1
                changed = True
        if max_passes and passes >= max_passes:
            break
    return marked
