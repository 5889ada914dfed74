#!/usr/bin/env python3
"""Quickstart: DFS a graph that lives on disk, under a memory budget.

Builds a 1,200-node power-law graph, stores its edges on a simulated
block device, and computes a DFS-Tree with each of the four semi-external
algorithms — comparing their I/O cost and verifying every result against
the defining DFS-Tree property (no forward-cross edges on a full scan).

Run:  python examples/quickstart.py
"""

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.core import verify_dfs_tree
from repro.graph import power_law_graph_edges


def main() -> None:
    node_count = 1_200
    degree = 5

    # A small block size keeps the block-I/O numbers readable at this
    # example's scale (the library default is 4096 edges per block).
    with BlockDevice(block_elements=512) as device:
        print(f"materializing a {node_count}-node, degree-{degree} power-law "
              f"graph on {device.directory} ...")
        graph = DiskGraph.from_edges(
            device,
            node_count,
            power_law_graph_edges(node_count, degree, seed=7),
            validate=False,
        )
        print(f"graph: n={graph.node_count}, m={graph.edge_count}, "
              f"|G|={graph.size} elements, "
              f"{graph.edge_file.block_count} blocks on disk")

        # The semi-external budget: the spanning tree (3n) plus a batch
        # worth 20% of the edges.
        memory = 3 * node_count + graph.edge_count // 5
        print(f"memory budget M = {memory} elements "
              f"({memory / graph.size:.0%} of |G|)\n")

        print(f"{'algorithm':14s} {'time':>7s} {'I/Os':>7s} {'passes':>6s} "
              f"{'divisions':>9s}  valid")
        for algorithm in ["edge-by-edge", "edge-by-batch", "divide-star",
                          "divide-td"]:
            result = semi_external_dfs(graph, memory, algorithm=algorithm)
            report = verify_dfs_tree(graph, result.tree)
            print(f"{algorithm:14s} {result.elapsed_seconds:6.2f}s "
                  f"{result.io.total:7d} {result.passes:6d} "
                  f"{result.divisions:9d}  {report.ok}")

        # The DFS total order is the result's preorder:
        result = semi_external_dfs(graph, memory, algorithm="divide-td",
                                   start=0)
        print(f"\nDFS order starting at node 0: "
              f"{result.order[:10]} ... ({len(result.order)} nodes)")


if __name__ == "__main__":
    main()
