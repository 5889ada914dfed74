"""Larger-scale validation (marked slow): the benchmark-sized regime.

The rest of the suite runs on hundreds-of-nodes graphs; these tests take
one pass at benchmark scale to catch anything that only shows up with
real recursion depth, thousands of sibling groups, or many batches.
"""

import pytest

from repro import BlockDevice, DiskGraph, RunOptions, semi_external_dfs
from repro.core import verify_dfs_tree
from repro.graph import power_law_graph_edges, random_graph_edges

from .conftest import assert_valid_dfs_result


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["power-law", "random"])
@pytest.mark.parametrize("algorithm", ["divide-star", "divide-td"])
def test_benchmark_scale_validity(kind, algorithm):
    node_count = 6_000
    if kind == "power-law":
        edges = list(power_law_graph_edges(node_count, 5, seed=3))
    else:
        edges = list(random_graph_edges(node_count, 5, seed=3))
    with BlockDevice(block_elements=512) as device:
        disk = DiskGraph.from_edges(device, node_count, edges, validate=False)
        memory = int(node_count * 4.2)
        result = semi_external_dfs(
            disk, memory, algorithm=algorithm,
            options=RunOptions(deadline_seconds=240),
        )
        assert sorted(result.order) == list(range(node_count))
        report = verify_dfs_tree(disk, result.tree)
        assert report.ok, report.forward_cross_count


@pytest.mark.slow
def test_deep_recursion_no_stack_issues():
    """A long path forces maximal tree depth through every code path."""
    node_count = 12_000
    edges = [(i, i + 1) for i in range(node_count - 1)]
    edges += [(node_count - 1, 0)]  # close the cycle
    with BlockDevice(block_elements=512) as device:
        from repro.graph import Digraph

        graph = Digraph.from_edges(node_count, edges)
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * node_count + 2_000
        for algorithm in ["edge-by-batch", "divide-td"]:
            result = semi_external_dfs(disk, memory, algorithm=algorithm,
                                       options=RunOptions(deadline_seconds=240))
            assert_valid_dfs_result(result, disk, graph)


@pytest.mark.slow
def test_dataset_standins_all_valid_at_bench_scale():
    from repro.graph import all_datasets

    for name, spec in all_datasets(scale=0.05).items():
        with BlockDevice(block_elements=256) as device:
            disk = DiskGraph.from_edges(
                device, spec.node_count, spec.edges(), validate=False
            )
            memory = 3 * spec.node_count + disk.edge_count // 10
            result = semi_external_dfs(disk, memory, algorithm="divide-td",
                                       options=RunOptions(deadline_seconds=240))
            assert sorted(result.order) == list(range(spec.node_count)), name
            assert verify_dfs_tree(disk, result.tree).ok, name
