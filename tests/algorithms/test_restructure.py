"""Tests for the shared Restructure procedure (Algorithm 1, lines 7-16)."""

import math

from repro import DiskGraph
from repro.algorithms import initial_star_tree, restructure
from repro.core import verify_dfs_tree
from repro.core.tree import VirtualNodeAllocator
from repro.graph import random_graph


def setup_run(device, graph, memory):
    disk = DiskGraph.from_digraph(device, graph)
    allocator = VirtualNodeAllocator(graph.node_count)
    tree = initial_star_tree(disk, allocator)
    capacity = memory - 3 * graph.node_count  # what M leaves next to the tree
    return disk, tree, capacity


class TestSinglePass:
    def test_pass_scans_whole_file_once(self, device_factory):
        device = device_factory(block_elements=16, block_codec="fixed32")
        graph = random_graph(50, 4, seed=1)
        disk, tree, capacity = setup_run(device, graph, 3 * 50 + 1000)
        before = device.stats.snapshot()
        restructure(disk.edge_file, tree, capacity)
        delta = device.stats.snapshot() - before
        assert delta.reads == math.ceil(graph.edge_count / 16)
        assert delta.writes == 0

    def test_update_flag_true_when_forward_cross_seen(self, device):
        graph = random_graph(50, 4, seed=2)
        disk, tree, capacity = setup_run(device, graph, 3 * 50 + 1000)
        outcome = restructure(disk.edge_file, tree, capacity)
        # from the id-ordered star, a random graph always has some
        # forward-cross edge (any edge (u, v) with u < v and u not an
        # ancestor yet)
        assert outcome.update

    def test_update_flag_false_on_converged_tree(self, device):
        graph = random_graph(50, 4, seed=3)
        disk, tree, capacity = setup_run(device, graph, 3 * 50 + 10_000)
        outcome = restructure(disk.edge_file, tree, capacity)
        while outcome.update:
            outcome = restructure(disk.edge_file, outcome.tree, capacity)
        assert verify_dfs_tree(disk, outcome.tree).ok
        # one more pass confirms stability
        final = restructure(disk.edge_file, outcome.tree, capacity)
        assert not final.update
        assert final.rebuilds == 0

    def test_batch_count_reflects_capacity(self, device):
        graph = random_graph(60, 5, seed=4)  # 300 edges
        disk, tree, capacity = setup_run(device, graph, 3 * 60 + 75)
        outcome = restructure(disk.edge_file, tree, capacity)
        # capacity 75 edges -> at least ceil(non-tree-edges / 75) batches
        assert outcome.batches >= 3

    def test_whole_graph_in_one_batch(self, device):
        graph = random_graph(60, 5, seed=5)
        disk, tree, capacity = setup_run(device, graph, 3 * 60 + 10_000)
        outcome = restructure(disk.edge_file, tree, capacity)
        assert outcome.batches == 1
        # a single batch over the full edge set IS an in-memory DFS:
        assert verify_dfs_tree(disk, outcome.tree).ok

    def test_budget_too_small_raises(self, device):
        graph = random_graph(10, 2, seed=6)
        disk, tree, capacity = setup_run(device, graph, 3 * 10)
        try:
            restructure(disk.edge_file, tree, capacity)
            raised = False
        except Exception:
            raised = True
        assert raised

    def test_tree_edges_skipped_for_memory(self, device):
        """A file that only contains current tree edges converges at once."""
        graph = random_graph(30, 3, seed=7)
        disk, tree, capacity = setup_run(device, graph, 3 * 30 + 10_000)
        outcome = restructure(disk.edge_file, tree, capacity)
        tree_only = DiskGraph.from_edges(
            device,
            31,
            [
                (u, v)
                for u, v in outcome.tree.tree_edges()
                if not outcome.tree.is_virtual(u)
            ],
            validate=False,
        )
        final = restructure(tree_only.edge_file, outcome.tree, capacity)
        assert not final.update
        assert final.rebuilds == 0


class TestPerBatchDeadline:
    """The check_deadline callback must be able to abort a pass mid-scan."""

    def test_callback_fires_once_per_batch(self, device):
        graph = random_graph(200, 4, seed=8)
        # a tight budget forces many small batches within the single pass
        disk, tree, capacity = setup_run(device, graph, 3 * 200 + 60)
        calls = []
        restructure(
            disk.edge_file, tree, capacity,
            check_deadline=lambda: calls.append(None),
        )
        outcome_calls = len(calls)
        assert outcome_calls >= 2  # the pass genuinely ran in batches

    def test_raising_callback_aborts_the_pass(self, device):
        from repro.errors import ConvergenceError

        graph = random_graph(200, 4, seed=8)
        disk, tree, capacity = setup_run(device, graph, 3 * 200 + 60)
        calls = []

        def expire_after_two():
            calls.append(None)
            if len(calls) >= 2:
                raise ConvergenceError("wall-clock deadline expired mid-pass")

        before = device.stats.snapshot()
        try:
            restructure(
                disk.edge_file, tree, capacity, check_deadline=expire_after_two
            )
            raised = False
        except ConvergenceError:
            raised = True
        assert raised
        assert len(calls) == 2  # aborted at the second batch, not at the end
        # the aborted pass stopped reading: strictly fewer blocks than a scan
        delta = device.stats.snapshot() - before
        assert delta.reads < disk.edge_file.block_count
