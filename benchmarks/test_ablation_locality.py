"""Ablation: edge-file locality (paper §4.1, drawback 3).

The paper blames part of SEMI-DFS's iteration count on the arbitrary
on-disk edge order ("they do not consider the possibility to group
together the edges that are near each other in the visiting sequence").
This ablation measures that claim directly: after one restructure pass,
re-sort the edge file by the source's preorder position and rerun
SEMI-DFS.  Expected: fewer passes / fewer I/Os on the sorted file.
"""

from repro import BlockDevice, DiskGraph
from repro.algorithms import edge_by_batch, initial_star_tree, restructure
from repro.bench import default_nodes, memory_for_gb, synthetic_edges
from repro.bench.harness import CellResult
from repro.core import IntervalIndex
from repro.core.tree import VirtualNodeAllocator
from repro.storage import sort_edge_file


def run_locality_ablation():
    node_count = max(64, default_nodes() // 2)
    memory = int(node_count * 4.2)
    edges = list(synthetic_edges("power-law", node_count, 5))
    rows = []
    with BlockDevice() as device:
        graph = DiskGraph.from_edges(device, node_count, edges, validate=False)

        baseline = edge_by_batch(graph, memory, deadline_seconds=120)
        rows.append(
            CellResult(
                x="unsorted", algorithm="edge-by-batch",
                time_seconds=baseline.elapsed_seconds, ios=baseline.io.total,
                passes=baseline.passes, divisions=0,
                node_count=node_count, edge_count=len(edges),
            )
        )

        # Seed several passes so the preorder reflects the eventual DFS
        # order, then sort the file by it.  (Sorting by an arbitrary or
        # barely-converged order does not help — locality is relative to
        # the *visiting sequence*, which is exactly the paper's point.)
        allocator = VirtualNodeAllocator(node_count)
        tree = initial_star_tree(graph, allocator)
        free = memory - 3 * node_count  # what M leaves next to the tree
        for _ in range(8):
            outcome = restructure(graph.edge_file, tree, free)
            tree = outcome.tree
            if not outcome.update:
                break
        index = IntervalIndex(tree)
        sorted_file = sort_edge_file(
            device,
            graph.edge_file,
            memory_edges=memory,
            key=lambda e: (index.preorder_position(e[0]),
                           index.preorder_position(e[1])),
        )
        sorted_graph = DiskGraph(device, node_count, sorted_file)
        sorted_run = edge_by_batch(sorted_graph, memory, deadline_seconds=120)
        rows.append(
            CellResult(
                x="preorder-sorted", algorithm="edge-by-batch",
                time_seconds=sorted_run.elapsed_seconds, ios=sorted_run.io.total,
                passes=sorted_run.passes, divisions=0,
                node_count=node_count, edge_count=len(edges),
            )
        )
    return rows


def test_ablation_locality(benchmark, report_series):
    rows = benchmark.pedantic(run_locality_ablation, rounds=1, iterations=1)
    report_series(
        "ablation_locality",
        "Ablation: SEMI-DFS on unsorted vs preorder-sorted edge file",
        "edge order",
        rows,
    )
