#!/usr/bin/env python3
"""Scenario: scheduling a build pipeline whose dependency graph is on disk.

Topological sort is the first application the paper's introduction
motivates.  This example models a large generated build system — tens of
thousands of targets with dependency edges — too big (by assumption) to
hold in memory, computes a build order with one semi-external DFS, and
then demonstrates cycle diagnosis after a bad edge is introduced: the
broken graph's DFS is sealed once and both questions are answered from
the sealed artifact.

Run:  python examples/toposort_pipeline.py
"""

import random

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.apps import sealed_topological_order
from repro.errors import NotADAGError
from repro.serve import seal_result


def build_dependency_edges(target_count: int, seed: int = 3):
    """A layered build graph: each target depends on a few earlier ones."""
    rng = random.Random(seed)
    for target in range(1, target_count):
        for _ in range(rng.randint(1, 4)):
            dependency = rng.randrange(max(0, target - 2000), target)
            # edge dependency -> target: dependency must build first
            yield (dependency, target)


def main() -> None:
    target_count = 30_000
    with BlockDevice() as device:
        graph = DiskGraph.from_edges(
            device, target_count, build_dependency_edges(target_count),
            validate=False,
        )
        memory = 3 * target_count + graph.edge_count // 4
        print(f"build graph: {target_count} targets, "
              f"{graph.edge_count} dependency edges on disk")

        order = sealed_topological_order(graph, memory, algorithm="divide-td")
        position = {target: i for i, target in enumerate(order)}
        violations = sum(
            1 for u, v in graph.scan() if position[u] >= position[v]
        )
        print(f"build order computed; first 8 targets: {order[:8]}")
        print(f"dependency violations: {violations} (must be 0)")

        # Now someone adds a dependency from a late target back to an
        # early one — the classic circular-dependency incident.
        broken = DiskGraph.from_edges(
            device,
            target_count,
            list(graph.scan()) + [(target_count - 1, 5)],
            validate=False,
        )
        sealed = seal_result(
            broken, semi_external_dfs(broken, memory),
            with_scc=False, graph_digest=False,
        )
        try:
            sealed.toposort_slice()
            print("ERROR: cycle not detected!")
        except NotADAGError:
            print("\ncycle correctly rejected: the build graph is not a DAG")
        witness = sealed.find_cycle()
        print(f"offending dependency cycle has {len(witness)} targets, "
              f"e.g. {witness[:6]} ...")


if __name__ == "__main__":
    main()
