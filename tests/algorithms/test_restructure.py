"""Tests for the shared Restructure procedure (Algorithm 1, lines 7-16)."""

import math

import pytest

from repro import BlockDevice, DiskGraph
from repro.algorithms import edge_by_batch, initial_star_tree, restructure
from repro.core import verify_dfs_tree
from repro.core.tree import VirtualNodeAllocator
from repro.graph import random_graph
from repro.kernels import available_backends


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


def classify_calls(monkeypatch, graph, memory, codec, kernel):
    """``(calls, edges per block, passes)`` of an edge-by-batch run with a
    spy on the device kernel's ``classify_slice``; each call is recorded
    as ``(start, edges handed over, capacity, stop)``."""
    with BlockDevice(
        block_elements=16, block_codec=codec, kernel=kernel
    ) as device:
        disk = DiskGraph.from_digraph(device, graph)
        blocks = [len(u_col) for u_col, _ in disk.edge_file.scan_columns()]
        classify = device.kernel.classify_slice
        calls = []

        def spy(index, u_col, v_col, start, capacity):
            classified = classify(index, u_col, v_col, start, capacity)
            calls.append((start, len(u_col), capacity, classified[0]))
            return classified

        monkeypatch.setattr(device.kernel, "classify_slice", spy)
        result = edge_by_batch(disk, memory)
    return calls, blocks, result.passes


@pytest.mark.parametrize("kernel", available_backends())
@pytest.mark.parametrize("codec", ["fixed32", "delta-varint"])
@pytest.mark.parametrize("free", [1, 40, 150, "m"])
def test_classify_calls_hold_at_most_the_batch_room(
    monkeypatch, kernel, codec, free
):
    """A group starts with a ``start == 0`` call and holds consecutive
    whole blocks totalling at most that call's capacity (the batch's
    remaining room), or one block; it ends only where the next block
    would overflow that room.  A mid-group flush resumes the same group
    where the last call stopped.  At ``M = 3n + 1`` every group is one
    block; at ``M = 3n + m`` one group covers the file."""
    graph = random_graph(90, 5, seed=21)
    if free == "m":
        free = graph.edge_count
    calls, blocks, passes = classify_calls(
        monkeypatch, graph, 3 * graph.node_count + free, codec, kernel
    )
    assert passes > 1
    groups = []
    position = 0
    previous_stop = None
    for start, size, capacity, stop in calls:
        if start:  # resumed after a flush, against the rebuilt tree
            assert start == previous_stop and size == groups[-1]
            previous_stop = stop
            continue
        assert not groups or previous_stop == groups[-1]  # it was done
        group = []
        while sum(group) < size:
            group.append(blocks[position % len(blocks)])
            position += 1
        assert sum(group) == size  # whole blocks only
        assert size <= capacity <= free or len(group) == 1
        if position % len(blocks):  # not the last group of its pass
            assert size + blocks[position % len(blocks)] > capacity
        groups.append(size)
        previous_stop = stop
    assert position == passes * len(blocks)
    if free == 1:
        assert groups == blocks * passes
    if free == graph.edge_count:
        assert groups == [graph.edge_count] * passes
