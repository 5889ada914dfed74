"""The dynamic (climbing) order queries must agree with the interval index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IntervalIndex,
    SpanningTree,
    classify_edge_dynamic,
    find_lca,
    is_ancestor,
)
from repro.errors import InvalidGraphError


def random_ordered_tree(node_count: int, seed: int) -> SpanningTree:
    """A random tree whose sibling groups are shuffled out of id order."""
    rng = random.Random(seed)
    tree = SpanningTree()
    tree.add_node(0)
    tree.root = 0
    for node in range(1, node_count):
        tree.add_node(node)
        tree.attach(node, rng.randrange(node))
    for node in range(node_count):
        children = tree.child_list(node)
        rng.shuffle(children)
        tree.reorder_children(node, children)
    return tree


class TestAgainstIntervalOracle:
    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=999))
    def test_classification_agrees(self, node_count, seed):
        tree = random_ordered_tree(node_count, seed)
        index = IntervalIndex(tree)
        rng = random.Random(seed + 1)
        for _ in range(min(60, node_count * 3)):
            u = rng.randrange(node_count)
            v = rng.randrange(node_count)
            if u == v:
                continue
            dynamic = classify_edge_dynamic(tree, u, v)
            static = index.classify(u, v)
            assert dynamic is static, (u, v, dynamic, static)

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=999))
    def test_is_ancestor_agrees(self, node_count, seed):
        tree = random_ordered_tree(node_count, seed)
        index = IntervalIndex(tree)
        rng = random.Random(seed + 3)
        for _ in range(min(60, node_count * 3)):
            u = rng.randrange(node_count)
            v = rng.randrange(node_count)
            assert is_ancestor(tree, u, v) == index.is_ancestor(u, v)


class TestLCA:
    def test_lca_identifies_path_children(self):
        tree = SpanningTree()
        for node in range(7):
            tree.add_node(node)
        tree.root = 0
        for child, parent in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 3)]:
            tree.attach(child, parent)
        lca, child_u, child_v = find_lca(tree, 6, 4)
        assert lca == 1
        assert child_u == 3  # toward 6
        assert child_v == 4  # toward 4 (v itself)

    def test_lca_when_one_is_ancestor(self):
        tree = random_ordered_tree(10, seed=5)
        lca, child_u, child_v = find_lca(tree, 0, 7)
        assert lca == 0
        assert child_u is None  # u == lca

    def test_lca_of_node_with_itself(self):
        tree = random_ordered_tree(10, seed=6)
        lca, child_u, child_v = find_lca(tree, 4, 4)
        assert lca == 4
        assert child_u is None and child_v is None

    def test_detached_node_rejected(self):
        tree = random_ordered_tree(5, seed=7)
        tree.add_node(99)
        with pytest.raises(InvalidGraphError):
            find_lca(tree, 99, 0)

    def test_after_mutation(self):
        """Dynamic queries must reflect live mutations immediately."""
        tree = random_ordered_tree(20, seed=8)
        index_before = IntervalIndex(tree)
        # find some cross pair and re-parent
        moved = None
        for u in range(20):
            for v in range(20):
                if u != v and not index_before.is_ancestor(u, v) and not index_before.is_ancestor(v, u):
                    moved = (u, v)
                    break
            if moved:
                break
        assert moved is not None
        u, v = moved
        tree.reattach(v, u)
        assert is_ancestor(tree, u, v)
        index_after = IntervalIndex(tree)
        assert index_after.is_ancestor(u, v)
