"""In-memory graph algorithms: tree-preferring DFS, Tarjan SCC, topo sort.

The central routine is :func:`dfs_preferring_tree` — the in-memory DFS that
Algorithm 1's Restructure applies to ``G_M = T ∪ (batch edges)``.  Its
adjacency order lists the current tree children *first, in their current
sibling order*, then the batch edges, implementing the paper's note that
"DFS should visit the nodes which stay in memory before newly loaded ones":
when the batch forces no change, the DFS reproduces ``T`` exactly.  It
returns the new tree together with its :class:`~repro.core.classify.Preorder`
(its visit order and where each subtree ends), so the caller indexes the
tree without walking it again.

The DFS stack holds one int per node (its visit position); when a device
is passed, the page I/O of an external-memory stack is charged to it
inline — the stack the paper charges to SEMI-DFS in its Exp-1/Exp-5
discussions.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import InvalidGraphError, NotADAGError
from ..storage.block_device import BlockDevice
from .classify import Preorder
from .tree import SpanningTree

Adjacency = Mapping[int, Sequence[int]]

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..storage.edge_file import EdgeFile


def adjacency_from_edge_file(edge_file: "EdgeFile") -> Dict[int, List[int]]:
    """Materialize an edge file's adjacency for an in-memory solve.

    This is the *designated* loader for the divide & conquer base case:
    the recursion calls it only after proving ``|V_i| + |E_i| ≤ M``, so
    the materialization is exactly the memory the model already budgets
    for the part.  Self-loops are dropped (they never affect a DFS
    tree).  Outside this module, accumulating scan output into memory is
    a conformance violation (SEX201/SEX211) — route base cases here.
    """
    adjacency: Dict[int, List[int]] = {}
    for u_col, v_col in edge_file.scan_columns():
        # tolist() re-materializes backend columns (numpy ndarray or
        # stdlib array) as plain python ints in one call, keeping
        # foreign int types out of the adjacency dict and the tree.
        for u, v in zip(u_col.tolist(), v_col.tolist()):
            if u == v:
                continue
            targets = adjacency.get(u)
            if targets is None:
                adjacency[u] = [v]
            else:
                targets.append(v)
    return adjacency


def dfs_preferring_tree(
    tree: SpanningTree,
    extra_adjacency: Optional[Adjacency] = None,
    stack_device: Optional[BlockDevice] = None,
) -> Tuple[SpanningTree, Preorder]:
    """DFS over ``G_M = tree ∪ extra_adjacency``; returns the new DFS tree.

    Args:
        tree: the current in-memory spanning tree (spans every node, so the
            DFS reaches every node from ``tree.root``).
        extra_adjacency: the batch's non-tree out-edges per node; targets
            must be nodes of ``tree``.
        stack_device: when given, the node stack is charged to it as an
            external-memory stack.  A page holds ``B`` (the device's
            ``block_elements``) entries, one per node, and two pages stay
            hot in memory.
            A push onto two full hot pages spills the deeper one (one
            write); a pop from an empty hot region while pages are spilled
            reloads the top spilled page (one read).

    Returns:
        ``(new_tree, preorder)``: a fresh :class:`SpanningTree` over the
        same node set (virtual flags preserved), which has no forward-cross
        edges w.r.t. any edge of ``G_M``, and its :class:`Preorder` — the
        DFS visit order, with each node's subtree end written when its
        targets run out.
    """
    root = tree.root
    if root is None:
        raise InvalidGraphError("tree has no root")
    extra = extra_adjacency or {}

    # Adjacency is materialized lazily on first visit: current tree
    # children first (their sibling order is the memory-resident visit
    # preference), then batch edges.  Both lists are only read, so a node
    # with one source borrows it instead of copying.
    get_children = tree.child_lists.get
    node_count = len(tree.parent)

    # Nodes are numbered by their position in ``order``, the visit order,
    # which is the new tree's preorder.  The stack and the per-node lists
    # hold positions, so a node's subtree end is written where its
    # targets run out.
    visited = {root}
    order = [root]
    order_append = order.append
    ends = [0] * node_count
    no_targets: Sequence[int] = ()
    adjacency = [no_targets] * node_count
    next_index = [0] * node_count
    count = 1
    new_parent: Dict[int, Optional[int]] = {root: None}
    children_acc: Dict[int, List[int]] = {}

    def targets_of(node: int, at: int) -> None:
        children = get_children(node)
        batch_targets = extra.get(node)
        if not batch_targets:
            adjacency[at] = children or ()
        elif children:
            adjacency[at] = children + list(batch_targets)
        else:
            adjacency[at] = batch_targets

    # The stack is a plain list; when `stack_device` is given, the spill
    # rule in the docstring is counted inline: `hot_elements` entries sit
    # in memory above `spilled_pages` full pages on the device.
    page = stack_device.block_elements if stack_device is not None else 0
    hot_capacity = 2 * page
    hot_elements = 0
    spilled_pages = 0
    spill_writes = 0
    spill_reads = 0

    plain_stack: List[int] = []
    stack_append = plain_stack.append
    stack_pop = plain_stack.pop

    targets_of(root, 0)
    stack_append(0)
    if page:
        hot_elements = 1
    while plain_stack:
        at = stack_pop()
        if page:
            if hot_elements == 0 and spilled_pages:
                spilled_pages -= 1
                spill_reads += 1
                hot_elements = page
            hot_elements -= 1
        targets = adjacency[at]
        index = next_index[at]
        child = None
        while index < len(targets):
            candidate = targets[index]
            index += 1
            if candidate not in visited:
                child = candidate
                break
        next_index[at] = index
        if child is None:
            ends[at] = count
            continue
        if count == node_count:
            raise InvalidGraphError(
                "DFS reached more nodes than the tree holds; a batch "
                "target lies outside the tree"
            )
        node = order[at]
        visited.add(child)
        order_append(child)
        new_parent[child] = node
        acc = children_acc.get(node)
        if acc is None:
            children_acc[node] = [child]
        else:
            acc.append(child)
        targets_of(child, count)
        stack_append(at)  # resume `node` after the child's subtree
        stack_append(count)
        count += 1
        if page:
            for _ in range(2):
                if hot_elements == hot_capacity:
                    spilled_pages += 1
                    spill_writes += 1
                    hot_elements -= page
                hot_elements += 1
    if stack_device is not None and (spill_writes or spill_reads):
        stack_device.stats.add_writes(spill_writes)
        stack_device.stats.add_reads(spill_reads)

    if count != node_count:
        missing = node_count - count
        raise InvalidGraphError(
            f"DFS did not span the tree's node set ({missing} nodes unreached); "
            "the input tree must span all nodes"
        )
    new_tree = SpanningTree.from_structure(
        root, new_parent, children_acc, tree.virtual
    )
    return new_tree, Preorder(order, ends)


def tarjan_scc(nodes: Iterable[int], adjacency: Adjacency) -> List[List[int]]:
    """Strongly connected components (iterative Tarjan).

    Returns:
        Components in *reverse topological order* of the condensation (the
        order Tarjan naturally emits).
    """
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    scc_stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for start in nodes:
        if start in index_of:
            continue
        # Each work entry is [node, neighbor_position].
        work: List[List[int]] = [[start, 0]]
        while work:
            node, position = work[-1]
            if position == 0:
                index_of[node] = counter
                lowlink[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack[node] = True
            targets = adjacency.get(node, ())
            advanced = False
            while position < len(targets):
                target = targets[position]
                position += 1
                if target not in index_of:
                    work[-1][1] = position
                    work.append([target, 0])
                    advanced = True
                    break
                if on_stack.get(target):
                    if index_of[target] < lowlink[node]:
                        lowlink[node] = index_of[target]
            if advanced:
                continue
            work[-1][1] = position
            # All neighbors explored: retire `node`.
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def topological_sort(
    nodes: Iterable[int],
    adjacency: Adjacency,
    priority: Optional[Mapping[int, int]] = None,
) -> List[int]:
    """Kahn's algorithm; deterministic (seeds processed in sorted order).

    Args:
        priority: optional rank per node; among simultaneously-ready nodes
            the smallest ``(priority, id)`` pair is emitted first.  This is
            how the merge step preserves an existing sibling priority (the
            start-node hint) wherever the DAG leaves the order free.
            Without it, ties break on node id alone.

    Raises:
        NotADAGError: when the graph contains a cycle.
    """
    node_list = sorted(set(nodes))
    in_degree: Dict[int, int] = {node: 0 for node in node_list}
    for node in node_list:
        for target in adjacency.get(node, ()):
            if target not in in_degree:
                raise InvalidGraphError(f"edge target {target} not in node set")
            in_degree[target] += 1

    def rank(node: int) -> Tuple[int, int]:
        if priority is None:
            return (0, node)
        return (priority.get(node, len(node_list)), node)

    ready = [rank(node) for node in node_list if in_degree[node] == 0]
    heapq.heapify(ready)  # smallest (priority, id) first, for determinism
    order: List[int] = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for target in adjacency.get(node, ()):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                heapq.heappush(ready, rank(target))
    if len(order) != len(node_list):
        raise NotADAGError("graph contains a cycle; topological sort impossible")
    return order
