"""Storing and loading spanning trees: the ``parent``/``pre`` round trip.

A tree reaches the disk only as an artifact's ``parent`` and ``pre``
columns (:meth:`repro.serve.ArtifactStore.publish_tree`), and
:meth:`~repro.serve.ArtifactStore.open` rebuilds it from them.
"""

import os
import random

import pytest

from repro.core import SpanningTree
from repro.errors import ArtifactError
from repro.serve import ArtifactStore


def random_gamma_tree(node_count: int, seed: int) -> SpanningTree:
    """A random tree under a virtual root, sibling groups out of id order."""
    rng = random.Random(seed)
    tree = SpanningTree()
    tree.add_node(node_count, virtual=True)  # γ
    tree.root = node_count
    for node in range(node_count):
        tree.add_node(node)
        parent = node_count if node == 0 else rng.randrange(node)
        tree.attach(node, parent)
    for node in range(node_count + 1):
        children = tree.child_list(node)
        rng.shuffle(children)
        tree.reorder_children(node, children)
    return tree


def roundtrip(device, tree: SpanningTree) -> SpanningTree:
    """Publish ``tree`` through the run's artifact store and open it back."""
    store = ArtifactStore.for_run(device)
    ref = store.publish_tree(tree, "tree")
    return store.open(str(ref)).tree


class TestRoundtrip:
    def test_structure_preserved(self, device):
        tree = random_gamma_tree(60, seed=1)
        loaded = roundtrip(device, tree)
        assert loaded.root == tree.root
        assert loaded.virtual == {60}
        assert list(loaded.preorder()) == list(tree.preorder())
        assert loaded.parent == tree.parent
        for node in tree.preorder():
            assert loaded.child_list(node) == tree.child_list(node)

    def test_detached_nodes_not_saved(self, device):
        tree = random_gamma_tree(5, seed=3)
        tree.add_node(4_000)  # never attached
        loaded = roundtrip(device, tree)
        assert 4_000 not in loaded
        assert len(loaded) == 6

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


def publish_and_open_io(device, tree):
    """(writes, reads, files) of publishing ``tree`` and opening it back."""
    store = ArtifactStore.for_run(device)
    before = device.stats.snapshot()
    ref = store.publish_tree(tree, "tree")
    writes = (device.stats.snapshot() - before).writes
    before = device.stats.snapshot()
    store.open(str(ref))
    reads = (device.stats.snapshot() - before).reads
    return writes, reads, sorted(os.listdir(ref.path))


class TestIOAccounting:
    def test_save_and_load_charge_block_io(self, device_factory):
        device = device_factory(block_elements=16, block_codec="fixed32")
        writes, reads, files = publish_and_open_io(
            device, random_gamma_tree(50, seed=4)
        )
        # two 50-value columns -> 2 * ceil(50/16) = 8 blocks each way;
        # a tree-only artifact has no query columns
        assert (writes, reads) == (8, 8)
        assert files == ["manifest.json", "parent.col", "pre.col"]

    @pytest.mark.parametrize("node_count", [1, 15, 16, 17, 64])
    def test_block_io_is_exactly_two_columns(self, device_factory, node_count):
        device = device_factory(block_elements=16, block_codec="fixed32")
        blocks = 2 * -(-node_count // 16)
        writes, reads, _ = publish_and_open_io(
            device, random_gamma_tree(node_count, seed=node_count)
        )
        assert (writes, reads) == (blocks, blocks)


class TestErrors:
    def test_rootless_tree_rejected(self, device):
        with pytest.raises(ArtifactError, match="rootless"):
            ArtifactStore.for_run(device).publish_tree(SpanningTree(), "t")

    def test_virtual_node_below_the_root_rejected(self, device):
        tree = random_gamma_tree(10, seed=2)
        tree.add_node(99, virtual=True)
        tree.attach(99, 0)
        store = ArtifactStore.for_run(device)
        with pytest.raises(ArtifactError, match="only the root"):
            store.publish_tree(tree, "t")
        assert store.versions("t") == []

    def test_virtual_root_inside_the_node_ids_rejected(self, device):
        tree = SpanningTree.initial_star([0, 1, 3], virtual_root=2)
        with pytest.raises(ArtifactError, match="collides"):
            ArtifactStore.for_run(device).publish_tree(tree, "t", node_count=4)

    def test_node_outside_the_node_ids_rejected(self, device):
        tree = SpanningTree.initial_star([0, 1, 7], virtual_root=9)
        with pytest.raises(ArtifactError, match="outside"):
            ArtifactStore.for_run(device).publish_tree(tree, "t")

    def test_truncated_file_rejected(self, device):
        store = ArtifactStore.for_run(device)
        ref = store.publish_tree(random_gamma_tree(200, seed=5), "t")
        path = os.path.join(ref.path, "pre.col")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(Exception):  # CorruptBlockError or integrity
            store.open(str(ref))
