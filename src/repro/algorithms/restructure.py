"""The shared ``Restructure(G, T, M)`` procedure (Algorithm 1, lines 7–16).

One call makes one pass over the edge file in memory-sized batches.  Per
batch it classifies every edge against the current tree through the
device kernel's ``classify_slice`` (O(1) per edge via an interval index
rebuilt only when the tree changes) and, if at least one forward-cross
edge was loaded, rebuilds the tree with the tree-order-preferring
in-memory DFS over ``G_M = T ∪ (batch edges)``.  The DFS hands back its
visit order, from which the kernel indexes the rebuilt tree; only the
pass's first index walks the tree it is given.

The scan loads ``G_M`` one memory-load at a time, as Algorithm 1 does:
before each group of blocks it asks for the batch's remaining room,
``batch_capacity − loaded``, so each kernel call classifies the
consecutive whole blocks that still fit in the batch (or one block, when
not even one fits).  A group that fills the batch mid-block is resumed
against the rebuilt tree at the offset ``classify_slice`` returns, so
batch boundaries fall on the same edge whatever the grouping.  During a
pass the edges in memory are the retained cross edges plus the current
group, which holds at most the batch's remaining room, plus one block
read ahead of it: within ``M − 3·|V_i|`` plus one block, the bound
semi-external BFS keeps.

Only *cross* edges are retained in the batch adjacency: forward and
backward edges (ancestor-related endpoints) provably cannot become
forward-cross under the tree-preferring rebuild, so carrying them changes
nothing about the result — but every scanned non-tree edge still counts
against the batch capacity, because batch boundaries (and hence I/O
behaviour) must match the paper's procedure, which loads them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import MemoryBudgetExceeded
from ..storage.block_device import BlockDevice
from ..storage.edge_file import EdgeFile
from ..core.inmemory import dfs_preferring_tree
from ..core.tree import SpanningTree


@dataclass
class RestructureOutcome:
    """What one Restructure pass did."""

    tree: SpanningTree
    update: bool  # a forward-cross edge existed somewhere in this pass
    batches: int
    rebuilds: int  # batches that actually triggered an in-memory DFS


def restructure(
    edge_file: EdgeFile,
    tree: SpanningTree,
    batch_capacity: int,
    stack_device: Optional[BlockDevice] = None,
    check_deadline: Optional[Callable[[], None]] = None,
) -> RestructureOutcome:
    """One batched pass of Algorithm 1's Restructure.

    Args:
        edge_file: the (sub)graph's edges on disk.
        batch_capacity: how many edges one batch may load: the memory
            left next to the tree
            (:meth:`~repro.algorithms.base.RunContext.free_memory`).
        stack_device: charged for the in-memory DFS's node-stack page
            spills (see :func:`~repro.core.inmemory.dfs_preferring_tree`);
            edge-by-batch passes its graph's device.
        check_deadline: optional callback invoked before each batch is
            flushed (i.e. once per memory-load of edges).  A caller with a
            wall-clock deadline passes
            :meth:`~repro.algorithms.base.RunContext.check_deadline` here
            so a single huge pass cannot overshoot the limit by a whole
            scan; the callback aborts by raising.

    Returns:
        The (possibly replaced) tree plus the pass's update flag and batch
        counts.

    Raises:
        MemoryBudgetExceeded: when not even one edge fits beside the tree.
    """
    if batch_capacity < 1:
        raise MemoryBudgetExceeded(
            "no memory left for batch edges next to the spanning tree; "
            f"batch capacity {batch_capacity}"
        )

    kernel = edge_file.device.kernel
    index = kernel.make_index(tree)

    update = False
    batches = 0
    rebuilds = 0
    extra: Dict[int, List[int]] = {}
    loaded = 0
    batch_has_forward_cross = False

    def flush_batch() -> None:
        nonlocal tree, index, extra, loaded, batch_has_forward_cross
        nonlocal batches, rebuilds, update
        if loaded == 0:
            return
        if check_deadline is not None:
            check_deadline()
        batches += 1
        if batch_has_forward_cross:
            update = True
            rebuilds += 1
            tree, preorder = dfs_preferring_tree(
                tree, extra, stack_device=stack_device
            )
            index = kernel.make_index(tree, preorder)
        extra = {}
        loaded = 0
        batch_has_forward_cross = False

    classify = kernel.classify_slice
    for u_col, v_col in edge_file.scan_columns(lambda: batch_capacity - loaded):
        length = len(u_col)
        position = 0
        while position < length:
            position, counted, has_forward_cross, cross = classify(
                index, u_col, v_col, position, batch_capacity - loaded
            )
            for u, v in cross:
                targets = extra.get(u)
                if targets is None:
                    extra[u] = [v]
                else:
                    targets.append(v)
            loaded += counted
            if has_forward_cross:
                batch_has_forward_cross = True
            if loaded >= batch_capacity:
                flush_batch()
    flush_batch()
    return RestructureOutcome(tree=tree, update=update, batches=batches, rebuilds=rebuilds)
