"""``EdgeByBatch`` — the paper's Algorithm 1, a.k.a. **SEMI-DFS** [14].

Build the initial ``γ``-star, then repeat batched Restructure passes until a
pass finds no forward-cross edge anywhere.  The whole edge file is scanned
every pass even if a single forward-cross edge remains — the inefficiency
(paper §4.1, drawbacks 2 and 3) that motivates divide & conquer.  Each
in-memory DFS charges its node stack's page spills to the graph's device:
the external-memory stack the paper charges to SEMI-DFS.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.tree import SpanningTree
from ..errors import ConvergenceError, InvalidGraphError
from ..graph.disk_graph import DiskGraph
from ..obs import Tracer
from .base import DFSResult, RunContext, initial_star_tree
from .restructure import restructure


def _check_resume_tree(tree: SpanningTree, node_count: int) -> None:
    """Reject a resume tree that is not rooted or whose real nodes are
    not exactly the graph's ``0..node_count-1``."""
    real = [node for node in tree.nodes if not tree.is_virtual(node)]
    if (
        tree.root is None or len(real) != node_count
        or not all(0 <= node < node_count for node in real)
    ):
        raise InvalidGraphError(
            "initial_tree must be a rooted tree over exactly the graph's "
            f"nodes 0..{node_count - 1}"
        )


def edge_by_batch(
    graph: DiskGraph,
    memory: int,
    start: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
    max_passes: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    checkpoint_every: Optional[int] = None,
    initial_tree: Optional[SpanningTree] = None,
    tracer: Optional[Tracer] = None,
) -> DFSResult:
    """Compute a DFS-Tree with the SEMI-DFS batch heuristic.

    Args:
        graph: the graph on disk.
        memory: budget ``M`` in elements (``>= 3 * |V|``).
        start: optional DFS start node (γ's first child).
        order: optional full restart-priority order over the nodes; the
            relative order of the surviving restart roots is preserved
            across restructuring.
        max_passes: cap on Restructure passes; defaults to ``2n + 16``.
        deadline_seconds: optional wall-clock limit (the paper's timeout).
        checkpoint_every: publish the spanning tree to the run's
            artifact store (``<device>/artifacts``, artifact name
            ``edge-by-batch-ckpt``) every this many passes; runs at
            paper scale take hours, and a checkpoint makes them
            resumable.  The latest checkpoint's version directory lands
            in ``DFSResult.artifact_ref``, or in the
            :class:`~repro.errors.ConvergenceError`'s ``artifact_ref``
            when a cap interrupts the run.
        initial_tree: resume from a checkpoint's tree
            (``ArtifactStore.for_run(device).open(...).tree``) instead
            of the initial γ-star.
        tracer: a :class:`~repro.obs.Tracer` to receive the run's span
            events (one ``restructure`` span per pass, ``checkpoint``
            spans).

    Raises:
        ConvergenceError: if the heuristic exceeds ``max_passes`` or the
            deadline.
        InvalidGraphError: if ``initial_tree`` has no root or its real
            nodes are not exactly the graph's ``0..n-1``.
    """
    checkpoint_ref: Optional[str] = None

    def take_checkpoint() -> None:
        nonlocal checkpoint_ref
        # Imported here, not at module level, so that importing repro does
        # not load the serving stack the store pulls in (HTTP server,
        # hashlib, OpenSSL): only a run that checkpoints needs it.
        from ..serve.store import ArtifactStore

        with context.tracer.span("checkpoint", passes=context.passes):
            ref = ArtifactStore.for_run(graph.device).publish_tree(
                tree, "edge-by-batch-ckpt", kind="checkpoint",
                algorithm="edge-by-batch", node_count=graph.node_count,
                details={"passes": context.passes},
            )
            checkpoint_ref = ref.path

    with RunContext(
        graph, memory, "edge-by-batch", deadline_seconds, tracer, max_passes
    ) as context:
        if initial_tree is not None:
            if start is not None or order is not None:
                raise ValueError("initial_tree excludes start/order")
            _check_resume_tree(initial_tree, graph.node_count)
            tree = initial_tree
            # keep virtual ids fresh above any the checkpoint already uses
            for node in initial_tree.virtual:
                while context.allocator.next_id <= node:
                    context.allocator.allocate()
        else:
            tree = initial_star_tree(graph, context.allocator, start, order)
        # The deadline is checked per pass here *and* per batch inside
        # restructure (check_deadline=): a single pass over a huge edge
        # file can dwarf the remaining budget, and checking only between
        # passes would overshoot the limit by a whole scan.  A deadline
        # and the pass cap take the same checkpoint-on-error path.
        try:
            while True:
                context.check_deadline()
                with context.tracer.span(
                    "restructure", nodes=graph.node_count
                ) as span:
                    outcome = restructure(
                        graph.edge_file, tree,
                        context.free_memory(graph.node_count), graph.device,
                        check_deadline=context.check_deadline,
                    )
                    context.record_restructure(
                        span, graph.edge_file.edge_count, outcome
                    )
                tree = outcome.tree
                converged = context.end_pass(outcome.update)
                if checkpoint_every and context.passes % checkpoint_every == 0:
                    take_checkpoint()
                if converged:
                    result = context.finish(tree)
                    result.artifact_ref = checkpoint_ref
                    return result
        except ConvergenceError as exc:
            if checkpoint_every:
                take_checkpoint()
                exc.artifact_ref = checkpoint_ref
            raise
