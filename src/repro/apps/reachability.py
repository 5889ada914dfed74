"""Semi-external single-source reachability.

Reachability queries are another §1 motivation.  With only ``O(n)``
memory, the reachable set of a source is computed by *semi-external
label propagation*: keep one bit per node, scan the edge file, and mark
``v`` whenever ``u`` is already marked; repeat until a scan makes no
change.  Each scan costs ``scan(m)`` I/Os and the pass count is bounded
by the depth of the BFS layering compressed by in-scan chaining (edges
that happen to be ordered source-first propagate within one pass —
another face of the locality observation in the paper's §4.1).

:func:`reachable_mask` is that propagation.  The other functions
answer from a sealed :class:`~repro.serve.TreeArtifact` instead: exact
bitsets for sources pinned at publish time (sealed by
:func:`reachable_mask`), and certificate-based verdicts (tree path, SCC
membership, topological order) for arbitrary pairs — zero graph I/O
either way.
"""

from __future__ import annotations

from typing import List, Set

from ..errors import QueryError
from ..graph.disk_graph import DiskGraph
from ..serve.store import TreeArtifact


def reachable_mask(
    graph: DiskGraph, source: int, max_passes: int = 0
) -> bytearray:
    """One bit per node: reachable from ``source`` (the propagation core).

    Args:
        max_passes: optional safety cap; 0 means unlimited (the loop
            always terminates in at most ``n`` passes).
    """
    if not 0 <= source < graph.node_count:
        raise ValueError(f"source {source} out of range")
    marked = bytearray(graph.node_count)
    marked[source] = 1
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for u, v in graph.scan():
            if marked[u] and not marked[v]:
                marked[v] = 1
                changed = True
        if max_passes and passes >= max_passes:
            break
    return marked


def reachable_set(artifact: TreeArtifact, source: int) -> Set[int]:
    """All nodes reachable from ``source`` (including itself).

    Answers from the sealed bitset of a source pinned at publish time,
    with zero graph I/O.
    """
    return set(artifact.reachable_set(source))


def reaches(artifact: TreeArtifact, source: int, target: int) -> bool:
    """Whether ``target`` is reachable from ``source``.

    Uses the sealed certificates (pinned bitset, tree path, SCC
    membership, topological order); when none of them decides the pair
    it raises :class:`~repro.errors.QueryError` with code
    ``undecidable`` rather than guessing — propagate labels over the
    graph with :func:`reachable_mask`, or pin the source at publish
    time.
    """
    verdict, _proof = artifact.reachable(source, target)
    if verdict is None:
        raise QueryError(
            f"sealed columns cannot decide {source} ->* {target}; "
            "pin the source at publish time for exact answers",
            code="undecidable",
        )
    return verdict


def reachability_counts(artifact: TreeArtifact, sources: List[int]) -> List[int]:
    """Size of the sealed reachable set of each pinned source."""
    return [len(artifact.reachable_set(source)) for source in sources]
