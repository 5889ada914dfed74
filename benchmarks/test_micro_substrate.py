"""Substrate microbenchmarks (proper pytest-benchmark timing loops).

These calibrate the simulated external-memory layer itself: edge-file scan
throughput, external sort, and the in-memory tree-preferring DFS that
Restructure leans on.
"""

import pytest

from repro import BlockDevice, DiskGraph
from repro.core import SpanningTree, dfs_preferring_tree
from repro.graph import random_graph
from repro.storage import edge_file_from_edges, sort_edge_file

EDGES = 50_000


@pytest.fixture(scope="module")
def scan_device():
    with BlockDevice() as device:
        edge_file = edge_file_from_edges(
            device, ((i % 997, i % 1009) for i in range(EDGES))
        )
        yield device, edge_file


def test_edge_file_scan_throughput(benchmark, scan_device):
    device, edge_file = scan_device

    def scan():
        count = 0
        for _ in edge_file.scan():
            count += 1
        return count

    assert benchmark(scan) == EDGES


def test_edge_file_block_scan_throughput(benchmark, scan_device):
    device, edge_file = scan_device

    def scan_blocks():
        count = 0
        for block in edge_file.scan_blocks():
            count += len(block)
        return count

    assert benchmark(scan_blocks) == EDGES


def test_external_sort(benchmark, scan_device):
    device, edge_file = scan_device

    def sort_once():
        output = sort_edge_file(device, edge_file, memory_edges=8192)
        count = output.edge_count
        output.delete()
        return count

    assert benchmark(sort_once) == EDGES


def test_inmemory_tree_preferring_dfs(benchmark):
    graph = random_graph(5_000, 5, seed=1)
    tree = SpanningTree.initial_star(range(5_000), 5_000)
    extra = {u: list(graph.out_neighbors(u)) for u in range(5_000)}

    result, preorder = benchmark(lambda: dfs_preferring_tree(tree, extra))
    assert len(result) == 5_001
    assert len(preorder.nodes) == len(preorder.ends) == 5_001
