"""Ablation: cut-tree budget vs division fan-out (paper Exp-4 explanation).

The paper explains Divide-TD's memory sensitivity by "with more memory,
the corresponding S-Graph has more nodes and edges and the graph will be
divided into more subgraphs".  This ablation isolates that mechanism: on
one fixed restructured tree, grow the Σ budget and record the cut size
and the number of parts the division produces.
"""

from repro import BlockDevice, DiskGraph
from repro.algorithms import (
    build_cut_tree,
    divide_with_cut,
    initial_star_tree,
    restructure,
)
from repro.bench import default_nodes, synthetic_edges
from repro.core.tree import VirtualNodeAllocator


def run_cut_tree_ablation():
    node_count = max(64, default_nodes() // 2)
    memory = int(node_count * 4.2)
    edges = synthetic_edges("power-law", node_count, 5)
    lines = [
        "sigma budget  cut nodes  expanded  parts  sigma edges",
        "------------  ---------  --------  -----  -----------",
    ]
    with BlockDevice() as device:
        graph = DiskGraph.from_edges(device, node_count, edges, validate=False)
        allocator = VirtualNodeAllocator(node_count)
        tree = initial_star_tree(graph, allocator)
        free = memory - 3 * node_count  # what M leaves next to the tree
        for _ in range(3):
            outcome = restructure(graph.edge_file, tree, free)
            tree = outcome.tree
            if not outcome.update:
                break
        # The cut always contains the Divide-Star core (one sibling
        # group), so budgets below that core's square show the star
        # division; growth appears once |Tc|^2 fits the budget.
        star_core = node_count // 4
        budgets = [16]
        budgets += [int((star_core * f) ** 2) for f in (1.2, 2.0, 4.0, 8.0)]
        for sigma_budget in budgets:
            working = tree.copy()
            cut_nodes, expanded = build_cut_tree(working, sigma_budget)
            division = divide_with_cut(
                graph.edge_file, working, cut_nodes, expanded,
                VirtualNodeAllocator(allocator.next_id),
            )
            parts = division.part_count if division else 0
            sigma_edges = division.sigma.edge_count if division else 0
            if division:
                for part in division.parts:
                    part.edge_file.delete()
            lines.append(
                f"{sigma_budget:12d}  {len(cut_nodes):9d}  {len(expanded):8d}  "
                f"{parts:5d}  {sigma_edges:11d}"
            )
    return "\n".join(lines)


def test_ablation_cut_tree(benchmark, report_text):
    table = benchmark.pedantic(run_cut_tree_ablation, rounds=1, iterations=1)
    report_text(
        "ablation_cut_tree",
        "Ablation: Σ budget vs division fan-out (Divide-TD mechanism)\n" + table,
    )
