"""Cycle detection via DFS back edges, answered from a sealed artifact.

A digraph contains a cycle iff a DFS of it has a back edge ``(u, v)``
(``v`` an ancestor of ``u``); the cycle is then the tree path
``v -> ... -> u`` closed by the edge.  Sealing a run
(:func:`repro.serve.seal_result`) performs that verification scan once
and records its outcome (``is_dag`` + the first witness in scan order),
so both functions here are O(1) resident reads.
"""

from __future__ import annotations

from typing import List, Optional

from ..serve.store import TreeArtifact


def find_cycle(artifact: TreeArtifact) -> Optional[List[int]]:
    """The sealed directed cycle, or ``None`` when the graph is acyclic.

    Returns:
        The cycle as a node list ``[v, ..., u]`` (so that consecutive
        nodes, wrapping around, are connected by edges), or ``None``.
    """
    return artifact.find_cycle()


def has_cycle(artifact: TreeArtifact) -> bool:
    """Whether the sealed graph contains a directed cycle."""
    return artifact.has_cycle()
