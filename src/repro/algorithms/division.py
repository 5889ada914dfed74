"""The division core shared by Divide-Star and Divide-TD.

Both Algorithm 3 and Algorithm 4 follow the same skeleton — they differ
only in the cut they carve out of the spanning tree (the root's children
versus a budgeted multi-level cut-tree):

1. **Collect S-edges** (one scan): an edge whose endpoints' deepest cut
   ancestors are unrelated is a cross-edge whose LCA is an expanded cut
   node; each distinct such label pair is pushed up once, into Σ.
2. **Contract Σ's SCCs** (Theorem 6.1): fresh virtual nodes absorb each
   multi-node SCC, in Σ and in the tree alike.
3. **Build T_0 top-down** (:func:`_t0_edges`): expandable cut nodes
   contribute their children; contraction virtuals stay leaves (their
   subgraphs cannot be divided further at this level).  Σ is restricted
   to ``V(T_0)``.
4. **Materialize the parts** (one scan + part writes): every edge with both
   endpoints in the same leaf subtree is routed to that part's edge file.

The same walk counts the parts before step 2, with each multi-node SCC
standing in for its contraction, so a division with fewer than two parts
costs one scan and changes nothing.  Merge step 1 is
:attr:`Division.ordered`, shared by the start-head check and the merge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Dict, Iterator, List, Optional, Set, Tuple

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

    @cached_property
    def ordered(self) -> SpanningTree:
        """``T_0`` with every sibling group in Σ's reverse topological order.

        This is merge step 1.  The order breaks ties by ``T_0``'s preorder
        rank, so wherever Σ leaves two siblings unordered they keep their
        relative order — in particular the start-node hint, which lives
        entirely in γ's child order, survives division and reassembly
        instead of being re-sorted by id.
        """
        ordered = self.t0.copy()
        priority: Dict[int, int] = {
            node: rank for rank, node in enumerate(ordered.preorder())
        }
        sibling_rank: Dict[int, int] = {
            node: rank
            for rank, node in enumerate(
                self.sigma.reverse_topological_order(priority)
            )
        }
        for node in priority:
            children = ordered.child_list(node)
            if len(children) > 1:
                children.sort(key=sibling_rank.__getitem__)
                ordered.reorder_children(node, children)
        return ordered


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


def _t0_edges(
    tree: SpanningTree,
    in_cut: Container[int],
    expanded: Container[int],
    leaves: Container[int],
) -> Iterator[Tuple[int, int]]:
    """``T_0``'s ``(parent, child)`` edges, top down and in sibling order.

    From the root and from each expanded node the walk descends into the
    in-cut children; it never goes below a node in ``leaves``.
    """
    root = tree.root
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if node in leaves or (node != root and node not in expanded):
            continue
        for child in tree.children(node):
            if child in in_cut:
                yield node, child
                queue.append(child)


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

    Mutates ``tree`` only when the division will be valid: the parts are
    counted by the ``T_0`` walk with Σ's SCCs standing in for their
    contractions before any contraction is applied, so failed attempts
    leave the tree and the allocator untouched and write no part file.
    The S-edge scan and the part-routing scan each get a child span on
    ``tracer`` (nested under the caller's ``divide`` span).
    """
    if len(cut_nodes) <= 1 or not expanded:
        return None
    device = edge_file.device
    sigma = collect_sigma(edge_file, tree, cut_nodes, expanded, tracer)

    # Count the parts before mutating anything: the walk stops at every
    # member of a multi-node SCC of Σ, and each SCC counts once, as the
    # leaf its contraction virtual will be.  An invalid division (p <= 1)
    # must not alter the tree — otherwise every failed attempt on a
    # hard-to-divide graph grows a chain of useless virtual nodes.
    sccs = sigma.sccs()
    scc_of: Dict[int, int] = {
        node: component[0]
        for component in sccs if len(component) > 1
        for node in component
    }
    edges = list(_t0_edges(tree, cut_nodes, expanded, scc_of))
    inner = {parent for parent, _ in edges}
    groups = {scc_of.get(child, child) for _, child in edges if child not in inner}
    if len(groups) <= 1:
        return None

    # Step 2: make Σ a DAG via SCC-aware contraction (mutates Σ and tree).
    contractions = contract_sigma_sccs(sigma, tree, allocator, sccs)
    new_virtuals = {virtual for virtual, _ in contractions}

    # Step 3: build T_0 by the same walk; contraction virtuals are leaves
    # (a contracted SCC cannot be divided at this level).
    t0 = SpanningTree()
    root = tree.root
    t0.add_node(root, virtual=tree.is_virtual(root))
    t0.root = root
    for parent, child in _t0_edges(
        tree, cut_nodes | new_virtuals, expanded, new_virtuals
    ):
        t0.add_node(child, virtual=tree.is_virtual(child))
        t0.attach(child, parent)
    sigma.restrict(set(t0.nodes))
    leaves = [node for node in t0.preorder() if not t0.child_lists.get(node)]

    # Step 4: extract each part's subtree, then one columnar routing scan
    # into the part files by the owner map of the extracted nodes.
    kernel = device.kernel
    with tracer.span(
        "partition", parts=len(leaves), kernel=kernel.name,
        codec=device.block_codec,
    ):
        extracted = [_extract_subtree(tree, leaf) for leaf in leaves]
        owner: Dict[int, int] = {
            node: index
            for index, (subtree, _) in enumerate(extracted, start=1)
            for node in subtree.parent
        }
        owner_index = kernel.make_owner_index(owner)
        writer = PartitionWriter(device, list(range(1, len(leaves) + 1)))
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

    parts = [
        Part(index, leaf, subtree, real_nodes, part_files[index])
        for index, (leaf, (subtree, real_nodes)) in enumerate(
            zip(leaves, extracted), start=1
        )
    ]
    return Division(
        t0=t0, sigma=sigma, parts=parts, contractions=len(contractions)
    )
