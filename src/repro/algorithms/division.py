"""The division core shared by Divide-Star and Divide-TD.

Both Algorithm 3 and Algorithm 4 follow the same skeleton — they differ
only in the cut they carve out of the spanning tree (the root's children
versus a budgeted multi-level cut-tree):

1. **Collect S-edges** (one scan): an edge whose endpoints' deepest cut
   ancestors are unrelated is a cross-edge whose LCA is an expanded cut
   node; each distinct such label pair is pushed up once, into Σ.
2. **Contract Σ's SCCs** (Theorem 6.1): fresh virtual nodes absorb each
   multi-node SCC, in Σ and in the tree alike.
3. **Build T_0 top-down**: expandable cut nodes contribute their children;
   contraction virtuals stay leaves (their subgraphs cannot be divided
   further at this level).  Σ is restricted to ``V(T_0)``.
4. **Materialize the parts** (one scan + part writes): every edge with both
   endpoints in the same leaf subtree is routed to that part's edge file.

Step 4 is skipped when the division is invalid (fewer than two parts), so a
failed attempt costs one scan, not two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from ..obs import NULL_TRACER, Tracer
from ..storage.edge_file import EdgeFile, PartitionWriter
from ..core.classify import CutLabels
from ..core.tree import SpanningTree, VirtualNodeAllocator
from .sgraph import SummaryGraph, contract_sigma_sccs, s_edge_endpoints


@dataclass
class Part:
    """One divided subgraph ``G_i`` (``i >= 1``) with its subtree ``T_i``."""

    index: int
    root: int
    tree: SpanningTree
    real_nodes: List[int]  # non-virtual nodes of the part
    edge_file: EdgeFile

    @property
    def size(self) -> int:
        """``|G_i| = |V_i| + |E_i|``."""
        return len(self.real_nodes) + self.edge_file.edge_count


@dataclass
class Division:
    """A valid root-based division: ``T_0``, Σ, and the parts."""

    t0: SpanningTree
    sigma: SummaryGraph
    parts: List[Part]
    contractions: int

    @property
    def part_count(self) -> int:
        return len(self.parts)


def _extract_subtree(tree: SpanningTree, root: int) -> Tuple[SpanningTree, List[int]]:
    """Copy the subtree rooted at ``root`` into a standalone tree."""
    parent: Dict[int, Optional[int]] = {}
    child_lists: Dict[int, List[int]] = {}
    virtual: Set[int] = set()
    real_nodes: List[int] = []
    for node in tree.preorder(start=root):
        parent[node] = tree.parent[node]
        children = tree.child_lists.get(node)
        if children:
            child_lists[node] = list(children)
        if tree.is_virtual(node):
            virtual.add(node)
        else:
            real_nodes.append(node)
    parent[root] = None
    return SpanningTree.from_structure(root, parent, child_lists, virtual), real_nodes


def _simulate_part_count(
    tree: SpanningTree,
    sccs: List[List[int]],
    cut_nodes: Set[int],
    expanded: Set[int],
) -> int:
    """The number of parts the division would produce, without mutating.

    Mirrors the top-down ``T_0`` construction with every multi-node SCC of
    Σ (``sccs``) treated as a single (contracted) leaf.
    """
    group_of: Dict[int, int] = {}
    for group_id, component in enumerate(sccs):
        if len(component) > 1:
            for node in component:
                group_of[node] = group_id
    leaves = 0
    seen_groups: Set[int] = set()
    root = tree.root
    queue = [root]
    while queue:
        node = queue.pop()
        group = group_of.get(node)
        if group is not None:
            if group not in seen_groups:
                seen_groups.add(group)
                leaves += 1
            continue
        if node != root and node not in expanded:
            leaves += 1
            continue
        children = [child for child in tree.children(node) if child in cut_nodes]
        if not children:
            leaves += 1 if node != root else 0
            continue
        queue.extend(children)
    return leaves


def collect_sigma(
    edge_file: EdgeFile,
    tree: SpanningTree,
    cut_nodes: Set[int],
    expanded: Set[int],
    tracer: Tracer = NULL_TRACER,
) -> SummaryGraph:
    """Division step 1: Σ over the cut, in one scan (the ``sgraph`` span)."""
    labels = CutLabels(tree, cut_nodes)
    device = edge_file.device
    kernel = device.kernel
    cut_index = kernel.make_cut_index(labels)

    sigma = SummaryGraph()
    with tracer.span(
        "sgraph", edges=edge_file.edge_count, cut_nodes=len(cut_nodes),
        kernel=kernel.name, codec=device.block_codec,
    ) as sgraph_span:
        for node in cut_nodes:
            sigma.add_node(node)
        for parent_node in expanded:
            for child in tree.children(parent_node):
                sigma.add_edge(parent_node, child)
        pairs: Set[Tuple[int, int]] = set()
        collect = kernel.collect_cut_pairs
        for u_col, v_col in edge_file.scan_columns():
            collect(cut_index, u_col, v_col, pairs)
        for cut_u, cut_v in sorted(pairs):
            a, b, _ = s_edge_endpoints(tree, labels, cut_u, cut_v)
            sigma.add_edge(a, b)
        sgraph_span.annotate(cut_pairs=len(pairs), s_edges=sigma.edge_count)
    tracer.count("sgraph.cut_pairs", len(pairs))
    return sigma


def divide_with_cut(
    edge_file: EdgeFile,
    tree: SpanningTree,
    cut_nodes: Set[int],
    expanded: Set[int],
    allocator: VirtualNodeAllocator,
    tracer: Tracer = NULL_TRACER,
) -> Optional[Division]:
    """Run division steps 1–4 for a given cut.  ``None`` when invalid.

    Mutates ``tree`` only when the division will be valid: the part count
    is simulated (with Σ's SCCs collapsed) before the node contraction is
    applied, so failed attempts leave the tree untouched.  The S-edge
    scan and the part-routing scan each get a child span on ``tracer``
    (nested under the caller's ``divide`` span).
    """
    if len(cut_nodes) <= 1 or not expanded:
        return None
    device = edge_file.device
    sigma = collect_sigma(edge_file, tree, cut_nodes, expanded, tracer)

    # Before mutating anything, simulate the part count the contraction
    # would leave: each multi-node SCC of Σ collapses its sibling group
    # into ONE leaf.  An invalid division (p <= 1) must not alter the
    # tree — otherwise every failed attempt on a hard-to-divide graph
    # grows a chain of useless virtual nodes.
    sccs = sigma.sccs()
    if _simulate_part_count(tree, sccs, cut_nodes, expanded) <= 1:
        return None

    # Step 2: make Σ a DAG via SCC-aware contraction (mutates Σ and tree).
    contractions = contract_sigma_sccs(sigma, tree, allocator, sccs)
    new_virtuals = {virtual for virtual, _ in contractions}

    # Step 3: build T_0 top-down; contraction virtuals are leaves.
    in_cut = cut_nodes | new_virtuals
    t0 = SpanningTree()
    root = tree.root
    t0.add_node(root, virtual=tree.is_virtual(root))
    t0.root = root
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if node in new_virtuals:
            continue  # a contracted SCC cannot be divided at this level
        if node != root and node not in expanded:
            continue  # leaf of the cut-tree: do not descend
        for child in tree.children(node):
            if child in in_cut:
                t0.add_node(child, virtual=tree.is_virtual(child))
                t0.attach(child, node)
                queue.append(child)
    sigma.restrict(set(t0.nodes))

    leaves = [node for node in t0.preorder() if not t0.child_lists.get(node)]
    if len(leaves) <= 1:
        return None

    # Step 4: owner map + one columnar routing scan into the part files.
    kernel = device.kernel
    with tracer.span(
        "partition", parts=len(leaves), kernel=kernel.name,
        codec=device.block_codec,
    ):
        owner: Dict[int, int] = {}
        part_meta: List[Tuple[int, int]] = []  # (index, root)
        for part_index, leaf in enumerate(leaves, start=1):
            part_meta.append((part_index, leaf))
            for node in tree.preorder(start=leaf):
                owner[node] = part_index
        owner_index = kernel.make_owner_index(owner)
        writer = PartitionWriter(device, [i for i, _ in part_meta])
        try:
            route = kernel.route_edges
            for u_col, v_col in edge_file.scan_columns():
                for part_key, part_u_col, part_v_col in route(
                    owner_index, u_col, v_col
                ):
                    writer.route_columns(part_key, part_u_col, part_v_col)
            part_files = writer.seal()
        except ReproError:
            # A fault mid-routing (injected block fault, retries
            # exhausted, budget trip) must not strand half-written part
            # files on the device: the caller retries the whole division
            # against the intact parent edge file.
            writer.discard()
            raise

    parts: List[Part] = []
    for part_index, leaf in part_meta:
        subtree, real_nodes = _extract_subtree(tree, leaf)
        parts.append(
            Part(
                index=part_index,
                root=leaf,
                tree=subtree,
                real_nodes=real_nodes,
                edge_file=part_files[part_index],
            )
        )
    return Division(
        t0=t0, sigma=sigma, parts=parts, contractions=len(contractions)
    )
