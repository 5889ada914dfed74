"""Semi-external breadth-first search — the DFS family's sibling traversal.

Wan & Han's semi-external BFS (arXiv:2507.12925) under this repo's cost
model: the only in-memory state is O(n) — a level array, a parent array,
and one pass's improvement proposals — while the edge set stays on disk
and is scanned block-by-block through the kernel layer.  Each *relaxation
pass* freezes the level array, streams every edge block through
``Kernel.relax_levels`` (``level[v] -> level[u] + 1`` where that
improves), and applies the merged proposals at the pass boundary; the
run converges when a pass improves nothing.

Freezing the levels per pass (Jacobi iteration, like the restructure
baseline's batch discipline) buys determinism: a pass's outcome depends
only on the levels entering it, so the result is bit-identical across
kernel backends, block codecs, and block sizes, and the pass count is
exactly ``depth(start) + 1`` — each pass settles one more BFS level, and
the final pass proves the fixpoint.

The run returns the BFS-tree in memory and writes nothing: a virtual
root ``γ`` adopts the start node and every unreached node, and each
reached node hangs under its BFS parent.  To keep it on disk, publish
it: ``ArtifactStore(root).publish_tree(result.tree, name)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.tree import SpanningTree
from ..errors import ConvergenceError
from ..graph.disk_graph import DiskGraph
from ..obs import Tracer
from .base import BFSResult, RunContext

#: Level value marking an unreached node inside the kernel columns (the
#: public :class:`BFSResult` surfaces these as ``None``).
UNREACHED = -1


def _build_bfs_tree(
    context: RunContext,
    levels: List[int],
    parents: List[int],
    start: Optional[int],
) -> SpanningTree:
    """Materialize the γ-rooted BFS-tree from the level/parent arrays.

    γ's children are the start node followed by every unreached node in
    ascending id order (the same free-restart convention as the DFS
    initial star); each reached node's children appear in ascending id
    order, which is forced by the deterministic parent rule rather than
    chosen here.
    """
    gamma = context.allocator.allocate()
    parent_map: Dict[int, Optional[int]] = {gamma: None}
    children: Dict[int, List[int]] = {gamma: []}
    roots = [] if start is None else [start]
    roots += [v for v in range(len(levels)) if levels[v] == UNREACHED]
    children[gamma] = roots
    for v in roots:
        parent_map[v] = gamma
    for v in range(len(levels)):
        if levels[v] > 0:
            parent = parents[v]
            parent_map[v] = parent
            children.setdefault(parent, []).append(v)
    return SpanningTree.from_structure(gamma, parent_map, children, {gamma})


def _bfs_order(levels: List[int]) -> List[int]:
    """The level-sorted visit order: reached nodes by (level, id), then
    the unreached ones by id."""
    reached: List[Tuple[int, int]] = []
    unreached: List[int] = []
    for node in range(len(levels)):
        if levels[node] == UNREACHED:
            unreached.append(node)
        else:
            reached.append((levels[node], node))
    reached.sort()
    return [node for _, node in reached] + unreached


def semi_external_bfs(
    graph: DiskGraph,
    memory: int,
    start: Optional[int] = None,
    max_passes: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> BFSResult:
    """Compute a BFS-tree of an on-disk graph under a memory budget.

    Args:
        graph: the graph on disk.
        memory: budget ``M`` in elements (``>= 3 * |V|``: levels,
            parents, and one pass's proposals).
        start: BFS source node (default 0).
        max_passes: cap on relaxation passes; defaults to ``2n + 16``
            (any reachable level settles within ``n`` passes).
        deadline_seconds: optional wall-clock limit, checked per block.
        tracer: a :class:`~repro.obs.Tracer` to receive the run's span
            events (one ``relax`` span per pass).

    Returns:
        A :class:`~repro.algorithms.base.BFSResult`; ``levels[v]`` is
        ``None`` exactly when ``v`` is unreachable from ``start``, and
        the parent of every reached non-start node is the
        scan-order-first tail among its minimal-level in-edges.

    Raises:
        ConvergenceError: the pass cap or the deadline was exceeded.
        ValueError: ``start`` out of range.
    """
    context = RunContext(
        graph, memory, "bfs", deadline_seconds, tracer, max_passes
    )
    node_count = graph.node_count
    try:
        if start is None and node_count:
            start = 0
        if start is not None and not 0 <= start < node_count:
            raise ValueError(f"start node {start} out of range")
        levels = [UNREACHED] * node_count
        parents = [UNREACHED] * node_count
        if start is not None:
            levels[start] = 0
        kernel = graph.device.kernel
        edge_file = graph.edge_file
        while True:
            context.check_deadline()
            if context.passes >= context.pass_limit:
                raise ConvergenceError(
                    f"bfs did not converge within {context.pass_limit} passes"
                )
            frozen = kernel.make_level_column(levels)
            # Merged proposals for this pass: v -> (level, parent).  The
            # strictly-less replacement mirrors the kernels' own rule, so
            # across blocks the winner is still the first edge in overall
            # scan order achieving the global minimum.
            best: Dict[int, Tuple[int, int]] = {}
            with context.tracer.span(
                "relax", nodes=node_count,
                kernel=kernel.name, codec=graph.device.block_codec,
            ) as span:
                for u_col, v_col in edge_file.scan_columns():
                    context.check_deadline()
                    for v, level, parent in kernel.relax_levels(
                        frozen, u_col, v_col
                    ):
                        previous = best.get(v)
                        if previous is None or level < previous[0]:
                            best[v] = (level, parent)
                span.annotate(
                    edges=edge_file.edge_count, improved=len(best),
                )
            context.passes += 1
            for v, (level, parent) in best.items():
                levels[v] = level
                parents[v] = parent
            context.bump("improvements", len(best))
            if not best:
                break
        return context.finish_result(
            BFSResult, _build_bfs_tree(context, levels, parents, start),
            order=_bfs_order(levels),
            levels=[
                None if level == UNREACHED else level for level in levels
            ],
        )
    finally:
        context.release()
