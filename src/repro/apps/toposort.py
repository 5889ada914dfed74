"""Semi-external topological sort — the first motivating application.

A DFS forest's reverse finishing order is a topological order of a DAG,
so topological sort on disk reduces to one semi-external DFS plus one
verification scan that looks for back edges (which certify a cycle).
Sealing a run (:func:`repro.serve.seal_result`) performs the scan once;
the sealed artifact derives the reverse finishing order from its tree
as the ``topo`` column, which
:meth:`~repro.serve.TreeArtifact.toposort_slice` reads.
:func:`sealed_topological_order` computes and seals from a graph.
"""

from __future__ import annotations

from typing import List, Optional

from ..api import semi_external_dfs
from ..graph.disk_graph import DiskGraph
from ..serve.store import seal_result


def sealed_topological_order(
    graph: DiskGraph,
    memory: int,
    algorithm: str = "divide-td",
    start: Optional[int] = None,
) -> List[int]:
    """Compute-and-seal helper: run DFS, seal, and read the topo column.

    One semi-external DFS plus the seal's verification scan; a cycle
    raises :class:`~repro.errors.NotADAGError` with the sealed witness.
    ``repro toposort`` uses it.
    """
    result = semi_external_dfs(graph, memory, algorithm=algorithm, start=start)
    artifact = seal_result(graph, result, with_scc=False, graph_digest=False)
    return artifact.toposort_slice()
