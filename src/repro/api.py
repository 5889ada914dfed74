"""The top-level facade: one call to DFS a graph that lives on disk.

>>> from repro import BlockDevice, DiskGraph, semi_external_dfs
>>> from repro.graph import random_graph
>>> with BlockDevice() as device:
...     graph = DiskGraph.from_digraph(device, random_graph(1000, 5, seed=1))
...     result = semi_external_dfs(graph, memory=4000, algorithm="divide-td")
...     len(result.order)
1000

Options are passed as a typed :class:`~repro.options.RunOptions` value::

    result = semi_external_dfs(
        graph, memory, algorithm="divide-td",
        options=RunOptions(deadline_seconds=60.0, tracer=Tracer()),
    )

Algorithms live in an :class:`~repro.registry.AlgorithmRegistry`
(``repro.ALGORITHMS``), extensible via :func:`register_algorithm`.
"""

from __future__ import annotations

from typing import Optional

from .algorithms.base import RunResult
from .algorithms.bfs import semi_external_bfs
from .algorithms.divide_conquer import divide_star_dfs, divide_td_dfs
from .algorithms.edge_by_batch import edge_by_batch
from .algorithms.edge_by_edge import edge_by_edge
from .graph.disk_graph import DiskGraph
from .options import RunOptions
from .registry import BASE_OPTIONS, AlgorithmRegistry, AlgorithmSpec

#: Options understood by the edge-by-batch baseline on top of the base set.
BATCH_OPTIONS = BASE_OPTIONS | {
    "order", "use_external_stack", "checkpoint_every", "initial_tree",
}

#: Registered algorithms, as used throughout the benchmarks; names
#: include aliases (the paper's name for the batch baseline is
#: ``SEMI-DFS``).  See :class:`~repro.registry.AlgorithmRegistry`.
ALGORITHMS = AlgorithmRegistry()

ALGORITHMS.register(AlgorithmSpec(
    name="edge-by-edge",
    runner=edge_by_edge,
    description="per-edge restructuring heuristic (quadratic; baseline)",
    slow=True,
))
ALGORITHMS.register(AlgorithmSpec(
    name="edge-by-batch",
    runner=edge_by_batch,
    description="batched restructuring baseline (the paper's SEMI-DFS)",
    aliases=("semi-dfs",),
    options=BATCH_OPTIONS,
))
ALGORITHMS.register(AlgorithmSpec(
    name="divide-star",
    runner=divide_star_dfs,
    description="divide & conquer with Divide-Star divisions",
))
ALGORITHMS.register(AlgorithmSpec(
    name="divide-td",
    runner=divide_td_dfs,
    description="divide & conquer with top-down (Divide-TD) divisions",
))
ALGORITHMS.register(AlgorithmSpec(
    name="bfs",
    runner=semi_external_bfs,
    description="semi-external BFS by iterated level relaxation (sibling "
                "traversal; returns a BFSResult)",
    aliases=("semi-bfs",),
))


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register a third-party algorithm under its name and aliases.

    The runner must accept ``(graph, memory, start=..., **options)`` and
    return a :class:`~repro.algorithms.base.RunResult` subclass; it
    becomes available to :func:`semi_external_dfs`, ``repro dfs
    --algorithm`` and ``repro compare`` immediately.
    """
    return ALGORITHMS.register(spec)


def semi_external_dfs(
    graph: DiskGraph,
    memory: int,
    algorithm: str = "divide-td",
    start: Optional[int] = None,
    options: Optional[RunOptions] = None,
) -> RunResult:
    """Run a registered semi-external traversal under a memory budget.

    Args:
        graph: the graph (node count in memory, edges on disk).
        memory: budget ``M`` in elements; must satisfy ``M >= 3 * |V|``
            (the semi-external assumption).
        algorithm: a registered name or alias — ``edge-by-edge``,
            ``edge-by-batch`` / ``semi-dfs``, ``divide-star``,
            ``divide-td``, ``bfs`` / ``semi-bfs``, or anything added via
            :func:`register_algorithm`.
        start: optional start node for the traversal.
        options: typed run options; fields explicitly set but not
            supported by the chosen algorithm raise ``ValueError``.
            See docs/API.md for the per-algorithm option table.

    Returns:
        A :class:`~repro.algorithms.base.RunResult` with the tree, the
        induced node order, the measured I/O and pass counts, and the
        recorded span events — a
        :class:`~repro.algorithms.base.DFSResult` for the DFS family, a
        :class:`~repro.algorithms.base.BFSResult` for ``bfs``.
    """
    spec = ALGORITHMS.spec(algorithm)
    resolved = options if options is not None else RunOptions()
    kwargs = resolved.to_kwargs(spec.options, spec.name)
    return spec.runner(graph, memory, start=start, **kwargs)
