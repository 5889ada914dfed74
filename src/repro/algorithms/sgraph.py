"""The summary graph Σ and the S-edge machinery (Section 6.1).

``Σ`` captures the relationships between divided subgraphs without touching
the full graph again: its nodes are the nodes of ``T_0``, its edges are
``T_0``'s tree edges plus the **S-edges** — cross-edges pushed up the tree
(Definition 6.2/6.3) until both endpoints are children of their LCA.  By
Theorem 6.1 a root-based division is DFS-preservable iff ``Σ`` is a DAG;
when it is not, the **node contraction operation** (SCC-aware division)
merges each multi-node SCC of ``Σ`` under a fresh virtual node.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..errors import InvalidDivisionError
from ..core.classify import CutLabels, IntervalIndex
from ..core.inmemory import tarjan_scc, topological_sort
from ..core.tree import SpanningTree, VirtualNodeAllocator


class SummaryGraph:
    """Σ: a small in-memory digraph over (a subset of) ``V(T_0)``."""

    def __init__(self) -> None:
        self.nodes: Set[int] = set()
        self.adjacency: Dict[int, Set[int]] = {}

    def add_node(self, node: int) -> None:
        if node not in self.nodes:
            self.nodes.add(node)
            self.adjacency[node] = set()

    def add_edge(self, source: int, target: int) -> None:
        """Add edge (deduplicated); both endpoints must be Σ nodes."""
        if source not in self.nodes or target not in self.nodes:
            raise InvalidDivisionError(
                f"S-edge ({source}, {target}) endpoint outside Σ's node set"
            )
        if source != target:
            self.adjacency[source].add(target)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self.adjacency.values())

    def edges(self) -> Iterable[Tuple[int, int]]:
        for source, targets in self.adjacency.items():
            for target in targets:
                yield (source, target)

    # ------------------------------------------------------------------
    def sccs(self) -> List[List[int]]:
        """Strongly connected components (reverse topological order)."""
        ordered = {node: sorted(targets) for node, targets in self.adjacency.items()}
        return tarjan_scc(sorted(self.nodes), ordered)

    def is_dag(self) -> bool:
        """Whether Σ is a DAG (Theorem 6.1's validity condition)."""
        return all(len(component) == 1 for component in self.sccs())

    def topological_order(self) -> List[int]:
        """A deterministic topological order of Σ (must be a DAG)."""
        ordered = {node: sorted(targets) for node, targets in self.adjacency.items()}
        return topological_sort(self.nodes, ordered)

    def reverse_topological_order(
        self, priority: Optional[Dict[int, int]] = None
    ) -> List[int]:
        """A deterministic *reverse* topological order of Σ (must be a DAG).

        Every S-edge ``a -> b`` places ``b`` before ``a``, which is exactly
        the sibling order the merge step needs (potential forward-cross
        S-edges become backward-cross).  ``priority`` ranks the nodes among
        which the DAG leaves the order free — the merge passes the current
        sibling order so an unconstrained start-node hint survives division
        and reassembly instead of being re-sorted by node id.
        """
        reversed_adjacency: Dict[int, List[int]] = {node: [] for node in self.nodes}
        for source, targets in self.adjacency.items():
            for target in targets:
                reversed_adjacency[target].append(source)
        for targets_list in reversed_adjacency.values():
            targets_list.sort()
        return topological_sort(self.nodes, reversed_adjacency, priority=priority)

    def contract(self, members: Iterable[int], virtual_node: int) -> None:
        """Node contraction: replace ``members`` by ``virtual_node``.

        In-edges from outside the set are redirected to ``virtual_node``;
        out-edges likewise; edges internal to the set disappear.
        """
        member_set = set(members)
        if not member_set <= self.nodes:
            raise InvalidDivisionError("contraction members must be Σ nodes")
        self.add_node(virtual_node)
        incoming: Set[int] = set()
        outgoing: Set[int] = set()
        for member in member_set:
            for target in self.adjacency[member]:
                if target not in member_set:
                    outgoing.add(target)
        for node in self.nodes:
            if node in member_set or node == virtual_node:
                continue
            targets = self.adjacency[node]
            if targets & member_set:
                self.adjacency[node] = {t for t in targets if t not in member_set}
                incoming.add(node)
        for node in incoming:
            self.adjacency[node].add(virtual_node)
        for target in outgoing:
            if target != virtual_node:
                self.adjacency[virtual_node].add(target)
        for member in member_set:
            self.nodes.discard(member)
            self.adjacency.pop(member, None)

    def restrict(self, keep: Set[int]) -> None:
        """Drop every node (and incident edge) outside ``keep``."""
        drop = self.nodes - keep
        for node in drop:
            self.nodes.discard(node)
            self.adjacency.pop(node, None)
        for node in self.nodes:
            self.adjacency[node] &= self.nodes

    def __repr__(self) -> str:
        return f"SummaryGraph(nodes={len(self.nodes)}, edges={self.edge_count})"


def s_edge_endpoints(
    tree: SpanningTree, index: Union[IntervalIndex, CutLabels], u: int, v: int
) -> Tuple[int, int, int]:
    """The S-edge of cross-edge ``(u, v)`` plus the LCA (Definition 6.3).

    Pushes each endpoint up while its parent is not an ancestor of the
    other endpoint; at the fixpoint both are children of the LCA, so the
    S-edge always connects two siblings.  ``index`` answers ancestry for
    both endpoints and their ancestors (``CutLabels`` does, for cut nodes).

    Returns:
        ``(a, b, lca)`` where ``(a, b)`` is the S-edge.
    """
    parent = tree.parent
    is_ancestor = index.is_ancestor
    a = u
    while True:
        p = parent[a]
        if p is None or is_ancestor(p, v):
            break
        a = p
    b = v
    while True:
        p = parent[b]
        if p is None or is_ancestor(p, u):
            break
        b = p
    lca = parent[a]
    if lca is None or parent[b] != lca:
        raise InvalidDivisionError(
            f"({u}, {v}) is not a cross edge: pushup did not meet at an LCA"
        )
    return a, b, lca


def contract_sigma_sccs(
    sigma: SummaryGraph,
    tree: SpanningTree,
    allocator: VirtualNodeAllocator,
    sccs: Optional[List[List[int]]] = None,
) -> List[Tuple[int, List[int]]]:
    """Apply the SCC-aware node contraction to ``Σ`` *and* the tree.

    Every multi-node SCC of Σ consists of siblings in the tree (S-edges
    only ever connect siblings, and tree edges cannot close a cycle), so
    contraction re-parents the members under a fresh virtual node that
    takes their place.  ``sccs`` reuses an earlier ``sigma.sccs()``.

    Returns:
        ``[(virtual_node, members_in_sibling_order), ...]``.
    """
    contractions: List[Tuple[int, List[int]]] = []
    for component in sigma.sccs() if sccs is None else sccs:
        if len(component) <= 1:
            continue
        members = set(component)
        parents = {tree.parent[m] for m in members}
        if len(parents) != 1 or None in parents:
            raise InvalidDivisionError(
                f"Σ SCC members {sorted(members)} are not siblings "
                f"(parents: {parents})"
            )
        (common_parent,) = parents
        siblings = tree.child_lists[common_parent]
        ordered = [c for c in siblings if c in members]
        virtual = allocator.allocate()
        tree.add_node(virtual, virtual=True)
        # The virtual takes the *first member's* sibling slot: sibling
        # order encodes restart priority — the start-node hint in
        # particular — and a contraction that sank the absorbed group to
        # the back would silently demote it.
        tree.child_lists[common_parent] = [
            virtual if c == ordered[0] else c
            for c in siblings if c == ordered[0] or c not in members
        ]
        tree.parent[virtual] = common_parent
        tree.child_lists[virtual] = ordered
        for member in ordered:
            tree.parent[member] = virtual
        sigma.contract(members, virtual)
        contractions.append((virtual, ordered))
    return contractions
