"""Unit + model-based tests for the ordered spanning tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpanningTree, VirtualNodeAllocator
from repro.errors import InvalidGraphError


def build_sample() -> SpanningTree:
    """      0
           / | \\
          1  2  3
         / \\     \\
        4   5     6
    """
    tree = SpanningTree()
    for node in range(7):
        tree.add_node(node)
    tree.root = 0
    for child, parent in [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 3)]:
        tree.attach(child, parent)
    return tree


class TestConstruction:
    def test_initial_star_layout(self):
        tree = SpanningTree.initial_star([0, 1, 2], virtual_root=3)
        assert tree.root == 3
        assert tree.is_virtual(3)
        assert tree.child_list(3) == [0, 1, 2]
        assert list(tree.preorder()) == [3, 0, 1, 2]

    def test_initial_star_custom_order(self):
        tree = SpanningTree.initial_star([0, 1, 2], 3, order=[2, 0, 1])
        assert tree.child_list(3) == [2, 0, 1]

    def test_initial_star_rejects_bad_order(self):
        with pytest.raises(InvalidGraphError):
            SpanningTree.initial_star([0, 1], 2, order=[0, 0])

    def test_duplicate_node_rejected(self):
        tree = SpanningTree()
        tree.add_node(1)
        with pytest.raises(InvalidGraphError):
            tree.add_node(1)

    def test_attach_unknown_nodes_rejected(self):
        tree = SpanningTree()
        tree.add_node(0)
        with pytest.raises(InvalidGraphError):
            tree.attach(1, 0)
        with pytest.raises(InvalidGraphError):
            tree.attach(0, 9)

    def test_double_attach_rejected(self):
        tree = build_sample()
        with pytest.raises(InvalidGraphError):
            tree.attach(4, 2)

    def test_allocator_hands_out_fresh_ids(self):
        allocator = VirtualNodeAllocator(100)
        assert allocator.allocate() == 100
        assert allocator.allocate() == 101
        assert allocator.next_id == 102


class TestTraversal:
    def test_preorder(self):
        assert list(build_sample().preorder()) == [0, 1, 4, 5, 2, 3, 6]

    def test_postorder(self):
        assert list(build_sample().postorder()) == [4, 5, 1, 2, 6, 3, 0]

    def test_subtree(self):
        assert list(build_sample().subtree(1)) == [1, 4, 5]
        assert list(build_sample().subtree(6)) == [6]

    def test_subtree_does_not_leak_to_siblings(self):
        tree = build_sample()
        assert 2 not in set(tree.subtree(1))
        assert 3 not in set(tree.subtree(1))

    def test_tree_edges(self):
        assert sorted(build_sample().tree_edges()) == [
            (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6),
        ]

    def test_depth_of(self):
        tree = build_sample()
        assert tree.depth_of(0) == 0
        assert tree.depth_of(4) == 2

    def test_empty_tree_traversals(self):
        tree = SpanningTree()
        assert list(tree.preorder()) == []
        assert list(tree.postorder()) == []


class TestMutation:
    def test_detach_middle_sibling(self):
        tree = build_sample()
        tree.detach(2)
        assert tree.child_list(0) == [1, 3]
        assert tree.parent[2] is None

    def test_detach_keeps_subtree(self):
        tree = build_sample()
        tree.detach(1)
        assert list(tree.subtree(1)) == [1, 4, 5]

    def test_reattach_moves_subtree(self):
        tree = build_sample()
        tree.reattach(1, 3)
        assert tree.child_list(3) == [6, 1]
        assert list(tree.preorder()) == [0, 2, 3, 6, 1, 4, 5]

    def test_detach_root_like_node_rejected(self):
        tree = build_sample()
        with pytest.raises(InvalidGraphError):
            tree.detach(0)  # the root is not attached

    def test_detaching_the_last_child_leaves_a_leaf(self):
        tree = build_sample()
        tree.detach(6)
        assert tree.child_list(3) == []
        assert 3 not in tree.child_lists


class TestSurgery:
    def test_reorder_children(self):
        tree = build_sample()
        tree.reorder_children(0, [3, 1, 2])
        assert tree.child_list(0) == [3, 1, 2]
        assert list(tree.preorder()) == [0, 3, 6, 1, 4, 5, 2]

    def test_reorder_rejects_non_permutation(self):
        tree = build_sample()
        with pytest.raises(InvalidGraphError):
            tree.reorder_children(0, [1, 2])
        with pytest.raises(InvalidGraphError):
            tree.reorder_children(0, [1, 2, 2])

    def test_splice_out_promotes_children_in_place(self):
        tree = build_sample()
        tree.virtual.add(1)
        tree.splice_out(1)
        assert tree.child_list(0) == [4, 5, 2, 3]
        assert 1 not in tree
        assert list(tree.preorder()) == [0, 4, 5, 2, 3, 6]

    def test_splice_out_leaf(self):
        tree = build_sample()
        tree.splice_out(2)
        assert tree.child_list(0) == [1, 3]

    def test_splice_out_root_rejected(self):
        tree = build_sample()
        with pytest.raises(InvalidGraphError):
            tree.splice_out(0)

    def test_splice_preserves_real_preorder(self):
        tree = build_sample()
        tree.virtual.add(3)
        before = [n for n in tree.preorder() if n != 3]
        tree.splice_out(3)
        assert list(tree.preorder()) == before


class TestCopy:
    def test_copy_is_deep(self):
        tree = build_sample()
        clone = tree.copy()
        clone.reattach(1, 3)
        assert tree.child_list(0) == [1, 2, 3]
        assert clone.child_list(0) == [2, 3]

    def test_copy_preserves_virtual_flags(self):
        tree = SpanningTree.initial_star([0, 1], 2)
        clone = tree.copy()
        assert clone.is_virtual(2)
        assert clone.root == 2


# ----------------------------------------------------------------------
# model-based testing: compare against a naive list-of-children model
# ----------------------------------------------------------------------
class NaiveTree:
    """Reference implementation with plain ordered child lists."""

    def __init__(self):
        self.children = {0: []}
        self.parent = {0: None}

    def add(self, node, parent):
        self.children[node] = []
        self.parent[node] = parent
        self.children[parent].append(node)

    def reattach(self, node, parent):
        self.children[self.parent[node]].remove(node)
        self.parent[node] = parent
        self.children[parent].append(node)

    def preorder(self):
        out, stack = [], [0]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children[node]))
        return out


@st.composite
def tree_scripts(draw):
    """A script of adds followed by reattaches on a growing tree."""
    size = draw(st.integers(min_value=2, max_value=25))
    adds = []
    for node in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        adds.append((node, parent))
    move_count = draw(st.integers(min_value=0, max_value=10))
    moves = [
        (
            draw(st.integers(min_value=1, max_value=size - 1)),
            draw(st.integers(min_value=0, max_value=size - 1)),
        )
        for _ in range(move_count)
    ]
    return adds, moves


@settings(max_examples=60)
@given(tree_scripts())
def test_spanning_tree_matches_naive_model(script):
    adds, moves = script
    tree = SpanningTree()
    tree.add_node(0)
    tree.root = 0
    model = NaiveTree()
    for node, parent in adds:
        tree.add_node(node)
        tree.attach(node, parent)
        model.add(node, parent)
    for node, parent in moves:
        # skip illegal moves (target inside the moving subtree, or self)
        if node == parent or parent in set(tree.subtree(node)):
            continue
        tree.reattach(node, parent)
        model.reattach(node, parent)
    assert list(tree.preorder()) == model.preorder()
    for node in model.parent:
        assert tree.parent[node] == model.parent[node]
        assert tree.child_list(node) == model.children[node]


class TestFromStructure:
    def test_equivalent_to_incremental_build(self):
        import random as _random

        rng = _random.Random(17)
        incremental = SpanningTree()
        incremental.add_node(0)
        incremental.root = 0
        parent = {0: None}
        children = {}
        virtual = {0}
        incremental.virtual.add(0)
        for node in range(1, 40):
            p = rng.randrange(node)
            incremental.add_node(node, virtual=(node % 7 == 0))
            incremental.attach(node, p)
            parent[node] = p
            children.setdefault(p, []).append(node)
            if node % 7 == 0:
                virtual.add(node)
        bulk = SpanningTree.from_structure(0, parent, children, virtual)
        assert list(bulk.preorder()) == list(incremental.preorder())
        assert list(bulk.postorder()) == list(incremental.postorder())
        for node in range(40):
            assert bulk.parent[node] == incremental.parent[node]
            assert bulk.child_list(node) == incremental.child_list(node)
            assert bulk.is_virtual(node) == incremental.is_virtual(node)

    def test_bulk_tree_supports_mutation(self):
        bulk = SpanningTree.from_structure(
            0, {0: None, 1: 0, 2: 0, 3: 1}, {0: [1, 2], 1: [3]}, set()
        )
        bulk.reattach(3, 2)
        assert bulk.child_list(2) == [3]
        assert bulk.child_list(1) == []
        bulk.add_node(4)
        bulk.attach(4, 0)
        assert bulk.child_list(0) == [1, 2, 4]
        assert list(bulk.preorder()) == [0, 1, 2, 3, 4]

    def test_keeps_the_maps_it_is_handed(self):
        parent = {0: None, 1: 0}
        children = {0: [1]}
        bulk = SpanningTree.from_structure(0, parent, children, {0})
        assert bulk.parent is parent
        assert bulk.child_lists is children

    def test_tree_holds_only_parent_links_and_child_lists(self):
        assert SpanningTree.__slots__ == (
            "parent", "child_lists", "root", "virtual",
        )

    def test_empty_children_entries_tolerated(self):
        bulk = SpanningTree.from_structure(
            0, {0: None, 1: 0}, {0: [1], 1: []}, set()
        )
        assert list(bulk.preorder()) == [0, 1]
