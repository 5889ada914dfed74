"""The ordered spanning tree held in memory by every semi-external algorithm.

A DFS-Tree is an *ordered* spanning tree: sibling order is part of the
result, because the preorder it induces is the DFS total order.  This module
provides :class:`SpanningTree`, an ordered rooted tree over arbitrary integer
node ids with O(1) structural mutations:

* children form a doubly-linked sibling list (``first_child`` /
  ``next_sibling`` / ...), so detach / attach-first / attach-last are O(1)
  even for the virtual root with ``n`` children;
* every node carries a *sibling key*, monotone within its sibling group
  (appends get increasing keys, prepends decreasing ones), so two siblings'
  relative order is a single integer comparison — the primitive the dynamic
  edge classifier (:mod:`repro.core.order`) builds on.

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
    everything else is a real graph node.
    """

    __slots__ = (
        "parent",
        "first_child",
        "last_child",
        "next_sibling",
        "prev_sibling",
        "sibling_key",
        "_next_key",
        "_min_key",
        "root",
        "virtual",
    )

    def __init__(self) -> None:
        self.parent: Dict[int, Optional[int]] = {}
        self.first_child: Dict[int, Optional[int]] = {}
        self.last_child: Dict[int, Optional[int]] = {}
        self.next_sibling: Dict[int, Optional[int]] = {}
        self.prev_sibling: Dict[int, Optional[int]] = {}
        self.sibling_key: Dict[int, int] = {}
        self._next_key: Dict[int, int] = {}
        self._min_key: Dict[int, int] = {}
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
        tree = cls()
        tree.add_node(virtual_root, virtual=True)
        tree.root = virtual_root
        children = list(order) if order is not None else sorted(node_ids)
        if order is not None and set(children) != set(node_ids):
            raise InvalidGraphError("order must be a permutation of node_ids")
        for node in children:
            tree.add_node(node)
            tree.attach(node, virtual_root)
        return tree

    @classmethod
    def from_structure(
        cls,
        root: int,
        parent: Dict[int, Optional[int]],
        children_in_order: Dict[int, List[int]],
        virtual: Set[int],
    ) -> "SpanningTree":
        """Bulk-build a tree from parent links and ordered child lists.

        Semantically identical to ``add_node`` + ``attach``-in-order, but
        an order of magnitude cheaper — this is the constructor the
        restructure hot path uses to materialize each batch's new tree.

        Args:
            parent: parent of every node (``None`` for the root).
            children_in_order: children per node, in sibling order; nodes
                without children may be omitted.
            virtual: the virtual-node subset.
        """
        tree = cls()
        tree.root = root
        tree.parent = dict(parent)
        tree.virtual = set(virtual)
        first_child: Dict[int, Optional[int]] = dict.fromkeys(parent, None)
        last_child: Dict[int, Optional[int]] = dict.fromkeys(parent, None)
        next_sibling: Dict[int, Optional[int]] = dict.fromkeys(parent, None)
        prev_sibling: Dict[int, Optional[int]] = dict.fromkeys(parent, None)
        sibling_key: Dict[int, int] = dict.fromkeys(parent, 0)
        next_key: Dict[int, int] = dict.fromkeys(parent, 0)
        for node, children in children_in_order.items():
            if not children:
                continue
            first_child[node] = children[0]
            last_child[node] = children[-1]
            next_key[node] = len(children)
            previous = None
            for key, child in enumerate(children, start=1):
                sibling_key[child] = key
                prev_sibling[child] = previous
                if previous is not None:
                    next_sibling[previous] = child
                previous = child
        tree.first_child = first_child
        tree.last_child = last_child
        tree.next_sibling = next_sibling
        tree.prev_sibling = prev_sibling
        tree.sibling_key = sibling_key
        tree._next_key = next_key
        tree._min_key = dict.fromkeys(parent, 0)
        return tree

    @classmethod
    def from_preorder(
        cls,
        root: int,
        nodes: Sequence[int],
        parents: Sequence[int],
        virtual_flags: Sequence[int],
        no_parent: int = -1,
    ) -> "SpanningTree":
        """Build a tree from parallel preorder columns.

        The columnar twin of the ``add_node`` + ``attach`` wire-format
        loop: ``nodes`` lists every node in preorder, ``parents[i]`` is
        the parent of ``nodes[i]`` (``no_parent`` for the root), and a
        nonzero ``virtual_flags[i]`` marks a virtual node.  Because
        preorder lists each sibling group in sibling order, appending
        children per parent reproduces sibling keys 1..n exactly as the
        attach loop would.

        Raises:
            InvalidGraphError: mismatched column lengths or duplicates.
        """
        if len(nodes) != len(parents) or len(nodes) != len(virtual_flags):
            raise InvalidGraphError(
                "preorder columns must have equal lengths, got "
                f"{len(nodes)}/{len(parents)}/{len(virtual_flags)}"
            )
        parent_map: Dict[int, Optional[int]] = {}
        children: Dict[int, List[int]] = {}
        virtual: Set[int] = set()
        for raw_node, raw_parent, flags in zip(nodes, parents, virtual_flags):
            node = int(raw_node)
            parent = int(raw_parent)
            if node in parent_map:
                raise InvalidGraphError(f"node {node} listed twice in preorder")
            if parent == no_parent:
                parent_map[node] = None
            else:
                parent_map[node] = parent
                children.setdefault(parent, []).append(node)
            if flags:
                virtual.add(node)
        return cls.from_structure(int(root), parent_map, children, virtual)

    def add_node(self, node: int, virtual: bool = False) -> None:
        """Register ``node`` as an isolated (detached) tree node."""
        if node in self.parent:
            raise InvalidGraphError(f"node {node} already in tree")
        self.parent[node] = None
        self.first_child[node] = None
        self.last_child[node] = None
        self.next_sibling[node] = None
        self.prev_sibling[node] = None
        self.sibling_key[node] = 0
        self._next_key[node] = 0
        self._min_key[node] = 0
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
    # structural mutation (all O(1))
    # ------------------------------------------------------------------
    def attach(self, child: int, parent: int, first: bool = False) -> None:
        """Attach a detached ``child`` under ``parent``.

        Appends to the sibling list by default; prepends when ``first``.
        """
        if self.parent.get(child, "missing") is not None:
            if child not in self.parent:
                raise InvalidGraphError(f"unknown node {child}")
            raise InvalidGraphError(f"node {child} is already attached")
        if parent not in self.parent:
            raise InvalidGraphError(f"unknown parent {parent}")
        self.parent[child] = parent
        if first:
            self._min_key[parent] -= 1
            self.sibling_key[child] = self._min_key[parent]
            old_first = self.first_child[parent]
            self.next_sibling[child] = old_first
            self.prev_sibling[child] = None
            if old_first is not None:
                self.prev_sibling[old_first] = child
            self.first_child[parent] = child
            if self.last_child[parent] is None:
                self.last_child[parent] = child
        else:
            self._next_key[parent] += 1
            self.sibling_key[child] = self._next_key[parent]
            old_last = self.last_child[parent]
            self.prev_sibling[child] = old_last
            self.next_sibling[child] = None
            if old_last is not None:
                self.next_sibling[old_last] = child
            self.last_child[parent] = child
            if self.first_child[parent] is None:
                self.first_child[parent] = child

    def detach(self, node: int) -> None:
        """Detach ``node`` (with its whole subtree) from its parent."""
        parent = self.parent.get(node)
        if parent is None:
            if node not in self.parent:
                raise InvalidGraphError(f"unknown node {node}")
            raise InvalidGraphError(f"node {node} is not attached")
        before = self.prev_sibling[node]
        after = self.next_sibling[node]
        if before is not None:
            self.next_sibling[before] = after
        else:
            self.first_child[parent] = after
        if after is not None:
            self.prev_sibling[after] = before
        else:
            self.last_child[parent] = before
        self.parent[node] = None
        self.prev_sibling[node] = None
        self.next_sibling[node] = None

    def reattach(self, node: int, new_parent: int, first: bool = False) -> None:
        """Move ``node`` (with its subtree) under ``new_parent``.

        The caller must ensure ``new_parent`` is not inside ``node``'s
        subtree; the EdgeByEdge restructuring rule guarantees this because
        a forward-cross edge's endpoints are order-incomparable.
        """
        self.detach(node)
        self.attach(node, new_parent, first=first)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def children(self, node: int) -> Iterator[int]:
        """Iterate ``node``'s children in sibling order."""
        child = self.first_child.get(node)
        if child is None and node not in self.parent:
            raise InvalidGraphError(f"unknown node {node}")
        while child is not None:
            yield child
            child = self.next_sibling[child]

    def child_list(self, node: int) -> List[int]:
        """``node``'s children in sibling order, as a list."""
        return list(self.children(node))

    def preorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Iterative preorder traversal from ``start`` (default: root)."""
        node = self.root if start is None else start
        if node is None:
            return
        stack = [node]
        first_child = self.first_child
        next_sibling = self.next_sibling
        stop_parent = self.parent.get(node)
        while stack:
            current = stack.pop()
            yield current
            # Push the next sibling (resume point) before descending.
            sibling = next_sibling[current]
            if sibling is not None and self.parent[current] != stop_parent:
                stack.append(sibling)
            child = first_child[current]
            if child is not None:
                stack.append(child)

    def subtree(self, node: int) -> Iterator[int]:
        """All nodes of the subtree rooted at ``node`` (preorder)."""
        return self.preorder(start=node)

    def postorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Iterative postorder traversal (the DFS *finish* order)."""
        node = self.root if start is None else start
        if node is None:
            return
        stack = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if expanded:
                yield current
                continue
            stack.append((current, True))
            for child in reversed(self.child_list(current)):
                stack.append((child, False))

    def depth_of(self, node: int) -> int:
        """Distance from ``node`` to the root (O(depth))."""
        depth = 0
        current = self.parent.get(node)
        if current is None and node != self.root and node in self.parent:
            raise InvalidGraphError(f"node {node} is detached")
        while current is not None:
            depth += 1
            current = self.parent[current]
        return depth

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
        current = self.child_list(parent)
        if sorted(current) != sorted(ordered):
            raise InvalidGraphError(
                "reorder_children requires a permutation of the current children"
            )
        for child in current:
            self.detach(child)
        for child in ordered:
            self.attach(child, parent)

    def splice_out(self, node: int) -> None:
        """Remove virtual ``node``, promoting its children into its place.

        Implements Algorithm 5 lines 6–10: the children take ``node``'s
        position in its parent's sibling order, preserving both the parent
        group's order and the children's relative order.
        """
        parent = self.parent.get(node)
        if parent is None:
            raise InvalidGraphError(f"cannot splice out the root or detached node {node}")
        grand_children = self.child_list(node)
        siblings = self.child_list(parent)
        position = siblings.index(node)
        new_order = siblings[:position] + grand_children + siblings[position + 1 :]
        for child in grand_children:
            self.detach(child)
        self.detach(node)
        # Rebuild the parent's sibling group in the new order.
        for child in self.child_list(parent):
            self.detach(child)
        for child in new_order:
            self.attach(child, parent)
        self._remove_node(node)

    def _remove_node(self, node: int) -> None:
        """Forget a detached, childless node entirely."""
        if self.first_child[node] is not None:
            raise InvalidGraphError(f"node {node} still has children")
        for mapping in (
            self.parent,
            self.first_child,
            self.last_child,
            self.next_sibling,
            self.prev_sibling,
            self.sibling_key,
            self._next_key,
            self._min_key,
        ):
            mapping.pop(node, None)
        self.virtual.discard(node)

    # ------------------------------------------------------------------
    def copy(self) -> "SpanningTree":
        """A structural deep copy (shares no mutable state)."""
        clone = SpanningTree()
        clone.parent = dict(self.parent)
        clone.first_child = dict(self.first_child)
        clone.last_child = dict(self.last_child)
        clone.next_sibling = dict(self.next_sibling)
        clone.prev_sibling = dict(self.prev_sibling)
        clone.sibling_key = dict(self.sibling_key)
        clone._next_key = dict(self._next_key)
        clone._min_key = dict(self._min_key)
        clone.root = self.root
        clone.virtual = set(self.virtual)
        return clone

    def __repr__(self) -> str:
        return (
            f"SpanningTree(nodes={len(self.parent)}, root={self.root}, "
            f"virtual={len(self.virtual)})"
        )
