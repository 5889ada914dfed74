"""Backend equivalence at the restructure / whole-run level.

The paper's I/O accounting must be bit-for-bit independent of the kernel
backend: one charged read per scanned block, identical batch boundaries,
identical rebuild decisions.  These tests run the same workload on one
device per backend and assert the counters — not just the results — match.
"""

import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.algorithms import initial_star_tree, restructure
from repro.core.tree import SpanningTree, VirtualNodeAllocator
from repro.graph import random_graph
from repro.kernels import numpy_available
from repro.storage import edge_file_from_edges

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)


def run_restructure_trace(kernel, graph, node_count, memory, block_elements=16):
    """All RestructureOutcome counters + I/O deltas, pass by pass, to a fixpoint."""
    with BlockDevice(block_elements=block_elements, kernel=kernel) as device:
        disk = DiskGraph.from_digraph(device, graph)
        allocator = VirtualNodeAllocator(node_count)
        tree = initial_star_tree(disk, allocator)
        return trace_to_fixpoint(device, disk.edge_file, tree, node_count, memory)


def trace_to_fixpoint(device, edge_file, tree, node_count, memory):
    free = memory - 3 * node_count
    trace = []
    for _ in range(2 * node_count + 16):
        before = device.stats.snapshot()
        outcome = restructure(edge_file, tree, free)
        io = device.stats.snapshot() - before
        trace.append(
            (outcome.update, outcome.batches, outcome.rebuilds,
             io.reads, io.writes)
        )
        tree = outcome.tree
        if not outcome.update:
            break
    assert all(type(node) is int for node in tree.parent)
    preorder = list(tree.preorder())
    return trace, preorder


class TestRestructureEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_outcome_counters_identical(self, seed):
        node_count = 70
        graph = random_graph(node_count, 4, seed=seed)
        # tight budget => multiple batches per pass, so batch-boundary
        # placement (the subtle part of the vectorized path) is exercised
        memory = 3 * node_count + 60
        py = run_restructure_trace("python", graph, node_count, memory)
        np_ = run_restructure_trace("numpy", graph, node_count, memory)
        assert np_ == py

    def test_single_batch_runs_identical(self):
        node_count = 50
        graph = random_graph(node_count, 5, seed=9)
        memory = 3 * node_count + 100_000
        py = run_restructure_trace("python", graph, node_count, memory)
        np_ = run_restructure_trace("numpy", graph, node_count, memory)
        assert np_ == py
        assert py[0][0][1] == 1  # whole file fit one batch


class TestSparseIds:
    def test_restructure_matches_the_python_kernel(self):
        """A tree over ids spread far apart classifies through numpy's
        dense index exactly as through the python kernel's dict index."""
        node_count = 70
        spread = 50  # ids 0, 50, 100, ...
        graph = random_graph(node_count, 4, seed=5)
        edges = [(u * spread, v * spread) for u, v in graph.edges()]
        nodes = [node * spread for node in range(node_count)]
        memory = 3 * node_count + 60
        traces = {}
        for kernel in ("python", "numpy"):
            with BlockDevice(block_elements=16, kernel=kernel) as device:
                edge_file = edge_file_from_edges(device, edges)
                tree = SpanningTree.initial_star(nodes, spread * node_count)
                traces[kernel] = trace_to_fixpoint(
                    device, edge_file, tree, node_count, memory
                )
        assert traces["numpy"] == traces["python"]
        assert traces["python"][0][0][1] > 1  # several batches per pass


class TestFullRunEquivalence:
    @pytest.mark.parametrize(
        "algorithm", ["edge-by-batch", "divide-star", "divide-td"]
    )
    @pytest.mark.parametrize("seed", [3, 13])
    def test_io_counters_and_order_identical(self, algorithm, seed):
        node_count = 300
        graph = random_graph(node_count, 5, seed=seed)
        memory = 3 * node_count + 700
        summaries = {}
        for kernel in ("python", "numpy"):
            with BlockDevice(block_elements=64, kernel=kernel) as device:
                disk = DiskGraph.from_digraph(device, graph)
                result = semi_external_dfs(
                    disk, memory, algorithm=algorithm
                )
                assert result.kernel == kernel
                summaries[kernel] = (
                    result.order,
                    result.io.reads,
                    result.io.writes,
                    result.passes,
                    result.divisions,
                    result.details.get("batches"),
                )
        assert summaries["numpy"] == summaries["python"]

    def test_edge_by_batch_external_stack_identical(self):
        """Stack-spill I/O rides on the rebuild decisions; must match too."""
        node_count = 400
        graph = random_graph(node_count, 4, seed=21)
        memory = 3 * node_count + 500
        summaries = {}
        for kernel in ("python", "numpy"):
            with BlockDevice(block_elements=32, kernel=kernel) as device:
                disk = DiskGraph.from_digraph(device, graph)
                result = semi_external_dfs(
                    disk, memory, algorithm="edge-by-batch",
                )
                summaries[kernel] = (
                    result.order, result.io.reads, result.io.writes,
                    result.passes, result.details.get("rebuilds"),
                )
        assert summaries["numpy"] == summaries["python"]
