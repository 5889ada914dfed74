"""Tests for the spanning-tree wire format and its sealed round trip."""

import random

import pytest

from repro.core import SpanningTree
from repro.core.tree_io import tree_from_values, tree_values
from repro.errors import StorageError
from repro.serve import ArtifactStore


def random_tree_with_virtuals(node_count: int, seed: int) -> SpanningTree:
    rng = random.Random(seed)
    tree = SpanningTree()
    tree.add_node(node_count, virtual=True)  # γ
    tree.root = node_count
    for node in range(node_count):
        tree.add_node(node)
        parent = node_count if node == 0 else rng.randrange(node)
        tree.attach(node, parent, first=rng.random() < 0.3)
    return tree


def roundtrip(device, tree: SpanningTree) -> SpanningTree:
    """Publish ``tree`` through the run's artifact store and open it back."""
    store = ArtifactStore.for_run(device)
    ref = store.publish_tree(tree, "tree")
    return store.open(str(ref)).tree


class TestRoundtrip:
    def test_structure_preserved(self, device):
        tree = random_tree_with_virtuals(60, seed=1)
        loaded = roundtrip(device, tree)
        assert loaded.root == tree.root
        assert list(loaded.preorder()) == list(tree.preorder())
        for node in tree.preorder():
            assert loaded.parent[node] == tree.parent[node]
            assert loaded.child_list(node) == tree.child_list(node)

    def test_virtual_flags_preserved(self, device):
        tree = random_tree_with_virtuals(10, seed=2)
        tree.add_node(99, virtual=True)
        tree.attach(99, 0)
        loaded = roundtrip(device, tree)
        assert loaded.is_virtual(10)
        assert loaded.is_virtual(99)
        assert not loaded.is_virtual(5)

    def test_detached_nodes_not_saved(self, device):
        tree = random_tree_with_virtuals(5, seed=3)
        tree.add_node(77)  # never attached
        loaded = roundtrip(device, tree)
        assert 77 not in loaded

    def test_single_node_tree(self, device):
        tree = SpanningTree()
        tree.add_node(0)
        tree.root = 0
        loaded = roundtrip(device, tree)
        assert list(loaded.preorder()) == [0]

    def test_sibling_order_preserved_after_reorder(self, device):
        tree = SpanningTree()
        for node in range(4):
            tree.add_node(node)
        tree.root = 0
        for child in (1, 2, 3):
            tree.attach(child, 0)
        tree.reorder_children(0, [3, 1, 2])
        loaded = roundtrip(device, tree)
        assert loaded.child_list(0) == [3, 1, 2]


class TestIOAccounting:
    def test_save_and_load_charge_block_io(self, device_factory):
        device = device_factory(block_elements=16)
        store = ArtifactStore.for_run(device)
        tree = random_tree_with_virtuals(50, seed=4)
        before = device.stats.snapshot()
        ref = store.publish_tree(tree, "tree")
        wrote = (device.stats.snapshot() - before).writes
        # 3 header + 3*51 ints = 156 values -> ceil(156/16) = 10 blocks;
        # a tree-only artifact has no query columns
        assert wrote == 10
        before = device.stats.snapshot()
        store.open(str(ref))
        assert (device.stats.snapshot() - before).reads == 10


class TestErrors:
    def test_rootless_tree_rejected(self):
        with pytest.raises(StorageError):
            tree_values(SpanningTree())

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError, match="not a tree checkpoint"):
            tree_from_values([0, 0, 0], context="payload")

    def test_truncated_file_rejected(self):
        values = tree_values(random_tree_with_virtuals(20, seed=5))
        with pytest.raises(StorageError, match="truncated"):
            tree_from_values(values[: len(values) // 2], context="payload")
