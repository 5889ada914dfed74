"""The shared ``Restructure(G, T, M)`` procedure (Algorithm 1, lines 7–16).

One call makes one pass over the edge file in memory-sized batches.  Per
batch it classifies every edge against the current tree, block by block
through the device kernel's ``classify_slice`` (O(1) per edge via an
interval index rebuilt only when the tree changes) and, if at least one
forward-cross edge was loaded, rebuilds the tree with the
tree-order-preferring in-memory DFS over ``G_M = T ∪ (batch edges)``.

Only *cross* edges are retained in the batch adjacency: forward and
backward edges (ancestor-related endpoints) provably cannot become
forward-cross under the tree-preferring rebuild, so carrying them changes
nothing about the result — but every scanned non-tree edge still *charges*
the ``|G_M| <= M`` budget, because batch boundaries (and hence I/O
behaviour) must match the paper's procedure, which loads them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import MemoryBudgetExceeded
from ..kernels import resolve_kernel
from ..storage.block_device import BlockDevice
from ..storage.buffer_pool import MemoryBudget
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
    budget: MemoryBudget,
    stack_device: Optional[BlockDevice] = None,
    check_deadline: Optional[Callable[[], None]] = None,
) -> RestructureOutcome:
    """One batched pass of Algorithm 1's Restructure.

    Args:
        edge_file: the (sub)graph's edges on disk.
        budget: memory budget; the tree must already be charged under the
            label ``"tree"``, and the batch is granted the remainder.
        stack_device: forwarded to the in-memory DFS so its node stack can
            spill as an external stack (the SEMI-DFS configuration).
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
    batch_capacity = budget.available
    if batch_capacity < 1:
        raise MemoryBudgetExceeded(
            "no memory left for batch edges next to the spanning tree; "
            f"budget {budget.capacity}, used {budget.used}"
        )

    device_kernel = edge_file.device.kernel
    kernel = device_kernel
    index = kernel.make_index(tree)
    if index is None:
        # A dense index over sparse ids would be mostly holes, so the
        # kernel declined; the python kernel never declines.  Scanned
        # columns are then re-materialized in its native column type,
        # which also keeps foreign int types out of the batch adjacency.
        kernel = resolve_kernel("python")
        index = kernel.make_index(tree)
    convert = kernel is not device_kernel

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
            tree = dfs_preferring_tree(tree, extra, stack_device=stack_device)
            # The rebuild preserves the node set, so a kernel that
            # accepted the tree accepts the rebuilt one too.
            index = kernel.make_index(tree)
        extra = {}
        loaded = 0
        batch_has_forward_cross = False

    classify = kernel.classify_slice
    for u_col, v_col in edge_file.scan_columns():
        if convert:
            u_col, v_col = kernel.make_columns(u_col, v_col)
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
