#!/usr/bin/env python3
"""Scenario: resilience audit of an infrastructure network on disk.

Uses two of the library's DFS applications together with run tracing:

1. articulation points and bridges find the single points of failure of
   a hub-structured network (semi-external lowpoint computation);
2. a span `Tracer` exposes how Divide-TD actually carves the graph —
   which recursion level divided, into how many parts, of what sizes
   (each part's nodes plus edges, |V_i|+|E_i|) —
   and where the block I/O went, phase by phase.

Run:  python examples/network_resilience.py
"""

import random

from repro import BlockDevice, DiskGraph, Tracer
from repro.algorithms import divide_td_dfs
from repro.apps import connectivity_report, weakly_connected_components
from repro.obs import MemorySink, render_profile


def backbone_network_edges(region_count: int = 24, region_size: int = 120,
                           seed: int = 5):
    """Regions with internal rings, joined by a sparse backbone.

    Each region's gateway (its first node) joins a backbone ring; a few
    regions hang off a single backbone link — those links are the bridges
    a resilience audit must find.
    """
    rng = random.Random(seed)
    node_count = region_count * region_size
    for region in range(region_count):
        base = region * region_size
        for i in range(region_size):  # internal ring: no cuts inside
            yield (base + i, base + (i + 1) % region_size)
            yield (base + (i + 1) % region_size, base + i)
            for _ in range(2):  # redundant chords inside the region
                other = rng.randrange(region_size)
                if other != i:
                    yield (base + i, base + other)
    for region in range(region_count - 1):  # backbone chain
        a, b = region * region_size, (region + 1) * region_size
        yield (a, b)
        yield (b, a)
        if region % 3 == 0 and region + 2 < region_count:
            c = (region + 2) * region_size  # redundancy for some pairs
            yield (a, c)
            yield (c, a)
    # stub regions: spurs that hang off one gateway by a single link
    for region in range(1, region_count, 5):
        hub = region * region_size
        spur = hub + region_size // 2
        yield (hub, spur)


def main() -> None:
    region_count, region_size = 24, 120
    node_count = region_count * region_size
    with BlockDevice(block_elements=256) as device:
        graph = DiskGraph.from_edges(
            device, node_count, backbone_network_edges(region_count, region_size),
            validate=False,
        )
        memory = 3 * node_count + graph.edge_count // 10
        print(f"network: {node_count} nodes, {graph.edge_count} links")

        components = weakly_connected_components(graph)
        print(f"connected components: {len(components)}")

        report = connectivity_report(graph, memory)
        gateways = {node for node in report.articulation_points
                    if node % region_size == 0}
        print(f"articulation points: {len(report.articulation_points)} "
              f"({len(gateways)} of them are region gateways)")
        print(f"bridges (single points of failure): {len(report.bridges)}")
        for parent, child in sorted(report.bridges)[:5]:
            print(f"  bridge between region {parent // region_size} "
                  f"and region {child // region_size}")

        # How does Divide-TD see this topology?
        events = MemorySink()
        result = divide_td_dfs(graph, memory, tracer=Tracer(sinks=[events]))
        print(f"\nDivide-TD: {result.passes} passes, {result.divisions} "
              f"divisions, {result.io.total} block I/Os")
        for event in events.events:
            attrs = event.attributes
            if event.name == "divide" and "parts" in attrs:
                sizes = attrs["part_sizes"]
                preview = ", ".join(map(str, sizes[:6]))
                extra = " ..." if len(sizes) > 6 else ""
                print(f"  depth {attrs['depth']}: divided {attrs['nodes']} "
                      f"nodes into {attrs['parts']} parts "
                      f"(|V_i|+|E_i|: {preview}{extra})")
        print()
        print(render_profile(events.events, result.details))


if __name__ == "__main__":
    main()
