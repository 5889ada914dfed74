"""In-memory graph algorithms: tree-preferring DFS, Tarjan SCC, topo sort.

The central routine is :func:`dfs_preferring_tree` — the in-memory DFS that
Algorithm 1's Restructure applies to ``G_M = T ∪ (batch edges)``.  Its
adjacency order lists the current tree children *first, in their current
sibling order*, then the batch edges, implementing the paper's note that
"DFS should visit the nodes which stay in memory before newly loaded ones":
when the batch forces no change, the DFS reproduces ``T`` exactly.

The DFS stack holds plain node ids; when a device is passed, its spill
I/O is accounted inline with the exact semantics of
:class:`~repro.storage.external_stack.ExternalStack` — the external-memory
stack the paper charges to SEMI-DFS in its Exp-1/Exp-5 discussions.
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
) -> SpanningTree:
    """DFS over ``G_M = tree ∪ extra_adjacency``; returns the new DFS tree.

    Args:
        tree: the current in-memory spanning tree (spans every node, so the
            DFS reaches every node from ``tree.root``).
        extra_adjacency: the batch's non-tree out-edges per node; targets
            must be nodes of ``tree``.
        stack_device: when given, stack-spill I/Os are charged to that
            device exactly as an
            :class:`~repro.storage.external_stack.ExternalStack` would
            (page = one block, two hot pages).

    Returns:
        A fresh :class:`SpanningTree` over the same node set (virtual flags
        preserved), whose preorder is the DFS visit order.  The result has
        no forward-cross edges w.r.t. any edge of ``G_M``.
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

    adjacency: Dict[int, Sequence[int]] = {}
    next_index: Dict[int, int] = {}
    new_parent: Dict[int, Optional[int]] = {root: None}
    children_acc: Dict[int, List[int]] = {}
    visited = {root}

    def targets_of(node: int) -> None:
        children = get_children(node)
        batch_targets = extra.get(node)
        if not batch_targets:
            adjacency[node] = children or ()
        elif children:
            adjacency[node] = children + list(batch_targets)
        else:
            adjacency[node] = batch_targets
        next_index[node] = 0

    # The node stack is a plain list; when `stack_device` is given its
    # spill I/O is accounted inline with the exact semantics of
    # :class:`ExternalStack` (page size = block, 2 hot pages): a write
    # when a push crosses a page boundary beyond the hot region, a read
    # when pops drain the hot region while pages remain spilled.  The
    # integer arithmetic costs nothing against routing 2 function calls
    # per DFS step through the stack object.
    page = stack_device.block_elements if stack_device is not None else 0
    hot_capacity = 2 * page  # ExternalStack's default hot_pages = 2
    hot_elements = 0
    spilled_pages = 0
    spill_writes = 0
    spill_reads = 0

    plain_stack: List[int] = []
    stack_append = plain_stack.append
    stack_pop = plain_stack.pop

    targets_of(root)
    stack_append(root)
    if page:
        hot_elements = 1
    while plain_stack:
        node = stack_pop()
        if page:
            if hot_elements == 0 and spilled_pages:
                spilled_pages -= 1
                spill_reads += 1
                hot_elements = page
            hot_elements -= 1
        targets = adjacency[node]
        index = next_index[node]
        child = None
        while index < len(targets):
            candidate = targets[index]
            index += 1
            if candidate not in visited:
                child = candidate
                break
        next_index[node] = index
        if child is not None:
            visited.add(child)
            new_parent[child] = node
            acc = children_acc.get(node)
            if acc is None:
                children_acc[node] = [child]
            else:
                acc.append(child)
            targets_of(child)
            stack_append(node)  # resume `node` after the child's subtree
            stack_append(child)
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

    if len(visited) != node_count:
        missing = node_count - len(visited)
        raise InvalidGraphError(
            f"DFS did not span the tree's node set ({missing} nodes unreached); "
            "the input tree must span all nodes"
        )
    return SpanningTree.from_structure(root, new_parent, children_acc, tree.virtual)


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
