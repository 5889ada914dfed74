"""The ordered spanning tree held in memory by every semi-external algorithm.

A DFS-Tree is an *ordered* spanning tree: sibling order is part of the
result, because the preorder it induces is the DFS total order.  This module
provides :class:`SpanningTree`, an ordered rooted tree over arbitrary integer
node ids, kept as two maps (plus its ``root`` and ``virtual`` set) and
nothing else:

* ``parent`` — every node's parent (``None`` for the root and for detached
  nodes);
* ``child_lists`` — every internal node's children, in sibling order.

A sibling's position in its parent's list is its order, so attach is an
append and detach, reattach and the dynamic edge classifier
(:mod:`repro.core.order`) cost O(siblings) in the list.

Virtual nodes (the global root ``γ`` and SCC-contraction nodes) are ordinary
tree nodes flagged virtual; they are allocated by
:class:`VirtualNodeAllocator` so ids never collide across recursion levels.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import InvalidGraphError


class VirtualNodeAllocator:
    """Hands out fresh virtual node ids above the real node range."""

    def __init__(self, first_id: int) -> None:
        self._next = first_id

    def allocate(self) -> int:
        """Return a fresh, never-before-used virtual node id."""
        node = self._next
        self._next += 1
        return node

    @property
    def next_id(self) -> int:
        """The id the next :meth:`allocate` call will return."""
        return self._next


class SpanningTree:
    """An ordered rooted tree over integer node ids.

    Nodes must be added (:meth:`add_node`) before they can be attached.
    The tree tracks which nodes are *virtual* (``γ`` / contraction nodes);
    everything else is a real graph node.  A leaf has no ``child_lists``
    entry (or an empty one).
    """

    __slots__ = ("parent", "child_lists", "root", "virtual")

    def __init__(self) -> None:
        self.parent: Dict[int, Optional[int]] = {}
        self.child_lists: Dict[int, List[int]] = {}
        self.root: Optional[int] = None
        self.virtual: Set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def initial_star(
        cls,
        node_ids: Iterable[int],
        virtual_root: int,
        order: Optional[Sequence[int]] = None,
    ) -> "SpanningTree":
        """The paper's initial spanning tree: virtual ``γ`` over all nodes.

        Args:
            order: optional visit order for the children; defaults to sorted
                node id order.  Putting a chosen start node first makes the
                DFS begin there (the paper's Exp-6 treatment).
        """
        children = list(order) if order is not None else sorted(node_ids)
        if order is not None and set(children) != set(node_ids):
            raise InvalidGraphError("order must be a permutation of node_ids")
        parent: Dict[int, Optional[int]] = dict.fromkeys(children, virtual_root)
        if len(parent) != len(children) or virtual_root in parent:
            raise InvalidGraphError("initial star nodes must be distinct")
        parent[virtual_root] = None
        return cls.from_structure(
            virtual_root, parent, {virtual_root: children}, {virtual_root}
        )

    @classmethod
    def from_structure(
        cls,
        root: int,
        parent: Dict[int, Optional[int]],
        children_in_order: Dict[int, List[int]],
        virtual: Set[int],
    ) -> "SpanningTree":
        """A tree over the given parent links and ordered child lists.

        The tree keeps both maps as its own (the caller hands them over
        and must not change them afterwards); only ``virtual`` is copied.
        This is the constructor the restructure hot path uses to
        materialize each batch's new tree.

        Args:
            parent: parent of every node (``None`` for the root).
            children_in_order: children per node, in sibling order; nodes
                without children may be omitted.
            virtual: the virtual-node subset.
        """
        tree = cls()
        tree.root = root
        tree.parent = parent
        tree.child_lists = children_in_order
        tree.virtual = set(virtual)
        return tree

    def add_node(self, node: int, virtual: bool = False) -> None:
        """Register ``node`` as an isolated (detached) tree node."""
        if node in self.parent:
            raise InvalidGraphError(f"node {node} already in tree")
        self.parent[node] = None
        if virtual:
            self.virtual.add(node)

    def __contains__(self, node: int) -> bool:
        return node in self.parent

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def nodes(self) -> Iterable[int]:
        """All node ids registered in the tree (attached or not)."""
        return self.parent.keys()

    def is_virtual(self, node: int) -> bool:
        """Whether ``node`` is a virtual (γ / contraction) node."""
        return node in self.virtual

    # ------------------------------------------------------------------
    # structural mutation
    # ------------------------------------------------------------------
    def attach(self, child: int, parent: int) -> None:
        """Attach a detached ``child`` as ``parent``'s last child."""
        if self.parent.get(child, "missing") is not None:
            if child not in self.parent:
                raise InvalidGraphError(f"unknown node {child}")
            raise InvalidGraphError(f"node {child} is already attached")
        if parent not in self.parent:
            raise InvalidGraphError(f"unknown parent {parent}")
        self.parent[child] = parent
        siblings = self.child_lists.get(parent)
        if siblings is None:
            self.child_lists[parent] = [child]
        else:
            siblings.append(child)

    def detach(self, node: int) -> None:
        """Detach ``node`` (with its whole subtree) from its parent."""
        parent = self.parent.get(node)
        if parent is None:
            if node not in self.parent:
                raise InvalidGraphError(f"unknown node {node}")
            raise InvalidGraphError(f"node {node} is not attached")
        siblings = self.child_lists[parent]
        siblings.remove(node)
        if not siblings:
            del self.child_lists[parent]
        self.parent[node] = None

    def reattach(self, node: int, new_parent: int) -> None:
        """Move ``node`` (with its subtree) under ``new_parent``, last.

        The caller must ensure ``new_parent`` is not inside ``node``'s
        subtree; the EdgeByEdge restructuring rule guarantees this because
        a forward-cross edge's endpoints are order-incomparable.
        """
        self.detach(node)
        self.attach(node, new_parent)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def children(self, node: int) -> Iterator[int]:
        """Iterate ``node``'s children in sibling order."""
        return iter(self.child_list(node))

    def child_list(self, node: int) -> List[int]:
        """``node``'s children in sibling order, as a fresh list."""
        if node not in self.parent:
            raise InvalidGraphError(f"unknown node {node}")
        return list(self.child_lists.get(node, ()))

    def preorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Iterative preorder traversal from ``start`` (default: root)."""
        node = self.root if start is None else start
        if node is None:
            return
        child_lists = self.child_lists
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            children = child_lists.get(current)
            if children:
                stack.extend(reversed(children))

    def subtree(self, node: int) -> Iterator[int]:
        """All nodes of the subtree rooted at ``node`` (preorder)."""
        return self.preorder(start=node)

    def postorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Iterative postorder traversal (the DFS *finish* order)."""
        node = self.root if start is None else start
        if node is None:
            return
        child_lists = self.child_lists
        stack = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if expanded:
                yield current
                continue
            stack.append((current, True))
            for child in reversed(child_lists.get(current, ())):
                stack.append((child, False))

    def tree_edges(self) -> Iterator[Tuple[int, int]]:
        """All ``(parent, child)`` tree edges reachable from the root."""
        for node in self.preorder():
            parent = self.parent[node]
            if parent is not None:
                yield (parent, node)

    # ------------------------------------------------------------------
    # sibling-group surgery (used by Merge)
    # ------------------------------------------------------------------
    def reorder_children(self, parent: int, ordered: Sequence[int]) -> None:
        """Replace ``parent``'s sibling order with ``ordered``.

        ``ordered`` must be a permutation of the current children.
        """
        if sorted(self.child_list(parent)) != sorted(ordered):
            raise InvalidGraphError(
                "reorder_children requires a permutation of the current children"
            )
        if ordered:
            self.child_lists[parent] = list(ordered)

    def splice_out(self, node: int) -> None:
        """Remove ``node``, promoting its children into its place.

        Implements Algorithm 5 lines 6–10: the children take ``node``'s
        position in its parent's sibling order, preserving both the parent
        group's order and the children's relative order.
        """
        parent = self.parent.get(node)
        if parent is None:
            raise InvalidGraphError(f"cannot splice out the root or detached node {node}")
        grand_children = self.child_lists.pop(node, [])
        siblings = self.child_lists[parent]
        position = siblings.index(node)
        siblings[position:position + 1] = grand_children
        if not siblings:
            del self.child_lists[parent]
        for child in grand_children:
            self.parent[child] = parent
        del self.parent[node]
        self.virtual.discard(node)

    # ------------------------------------------------------------------
    def copy(self) -> "SpanningTree":
        """A structural deep copy (shares no mutable state)."""
        clone = SpanningTree()
        clone.parent = dict(self.parent)
        clone.child_lists = {
            node: list(children) for node, children in self.child_lists.items()
        }
        clone.root = self.root
        clone.virtual = set(self.virtual)
        return clone

    def __repr__(self) -> str:
        return (
            f"SpanningTree(nodes={len(self.parent)}, root={self.root}, "
            f"virtual={len(self.virtual)})"
        )
