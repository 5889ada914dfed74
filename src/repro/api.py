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

An algorithm accepts the keyword parameters of its runner in
:data:`ALGORITHMS` other than ``graph``, ``memory`` and ``start``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet, List, Optional

from .algorithms.base import RunResult
from .algorithms.bfs import semi_external_bfs
from .algorithms.divide_conquer import divide_star_dfs, divide_td_dfs
from .algorithms.edge_by_batch import edge_by_batch
from .algorithms.edge_by_edge import edge_by_edge
from .graph.disk_graph import DiskGraph
from .options import RunOptions

#: The runner signature every algorithm implements:
#: ``runner(graph, memory, start=..., **option_kwargs) -> RunResult``
#: (a :class:`~repro.algorithms.base.DFSResult` for the DFS family, a
#: :class:`~repro.algorithms.base.BFSResult` for semi-external BFS).
AlgorithmRunner = Callable[..., RunResult]

#: Canonical algorithm name → runner, in ``repro compare`` order.
ALGORITHMS: Dict[str, AlgorithmRunner] = {
    "edge-by-edge": edge_by_edge,
    "edge-by-batch": edge_by_batch,
    "divide-star": divide_star_dfs,
    "divide-td": divide_td_dfs,
    "bfs": semi_external_bfs,
}

#: Alias → canonical name (the paper calls the batch baseline SEMI-DFS).
ALIASES: Dict[str, str] = {"semi-dfs": "edge-by-batch", "semi-bfs": "bfs"}

#: The quadratic per-edge baseline ``repro compare`` skips unless asked.
SLOW_ALGORITHM = "edge-by-edge"

#: The run options each algorithm accepts: its runner's parameters
#: other than the graph, the budget and the start node.
_ACCEPTED_OPTIONS: Dict[str, FrozenSet[str]] = {
    name: frozenset(inspect.signature(runner).parameters)
    - {"graph", "memory", "start"}
    for name, runner in ALGORITHMS.items()
}


def algorithm_names() -> List[str]:
    """Every canonical name and alias, sorted."""
    return sorted([*ALGORITHMS, *ALIASES])


def semi_external_dfs(
    graph: DiskGraph,
    memory: int,
    algorithm: str = "divide-td",
    start: Optional[int] = None,
    options: Optional[RunOptions] = None,
) -> RunResult:
    """Run a semi-external traversal under a memory budget.

    Args:
        graph: the graph (node count in memory, edges on disk).
        memory: budget ``M`` in elements; must satisfy ``M >= 3 * |V|``
            (the semi-external assumption).
        algorithm: a name or alias — ``edge-by-edge``,
            ``edge-by-batch`` / ``semi-dfs``, ``divide-star``,
            ``divide-td``, ``bfs`` / ``semi-bfs``.
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

    Raises:
        ValueError: an unknown algorithm name, listing the known ones.
    """
    name = ALIASES.get(algorithm, algorithm)
    if name not in ALGORITHMS:
        known = ", ".join(algorithm_names())
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}")
    resolved = options if options is not None else RunOptions()
    kwargs = resolved.to_kwargs(_ACCEPTED_OPTIONS[name], name)
    return ALGORITHMS[name](graph, memory, start=start, **kwargs)
