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
from ..errors import ConvergenceError
from ..graph.disk_graph import DiskGraph
from ..obs import Tracer
from ..serve.store import ArtifactStore
from .base import DFSResult, RunContext, default_max_passes, initial_star_tree
from .restructure import restructure


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
            spans) and metrics.

    Raises:
        ConvergenceError: if the heuristic exceeds ``max_passes`` or the
            deadline.
    """
    context = RunContext(graph, memory, "edge-by-batch", deadline_seconds, tracer)
    context.budget.charge("tree", context.budget.tree_charge(graph.node_count))
    if initial_tree is not None:
        if start is not None or order is not None:
            raise ValueError("initial_tree excludes start/order")
        tree = initial_tree
        # keep virtual ids fresh above any the checkpoint already uses
        for node in initial_tree.virtual:
            while context.allocator.next_id <= node:
                context.allocator.allocate()
    else:
        tree = initial_star_tree(graph, context.allocator, start, order)
    limit = default_max_passes(graph.node_count) if max_passes is None else max_passes
    checkpoint_ref: Optional[str] = None

    def take_checkpoint() -> None:
        nonlocal checkpoint_ref
        with context.tracer.span("checkpoint", passes=context.passes):
            ref = ArtifactStore.for_run(graph.device).publish_tree(
                tree, "edge-by-batch-ckpt", kind="checkpoint",
                algorithm="edge-by-batch", node_count=graph.node_count,
                details={"passes": context.passes},
            )
            checkpoint_ref = ref.path

    try:
        while True:
            # The deadline is checked per pass here *and* per batch inside
            # restructure (check_deadline=): a single pass over a huge edge
            # file can dwarf the remaining budget, and checking only
            # between passes would overshoot the limit by a whole scan.
            # Either raise takes the same checkpoint-on-deadline path.
            try:
                context.check_deadline()
                with context.tracer.span(
                    "restructure", nodes=graph.node_count
                ) as span:
                    outcome = restructure(
                        graph.edge_file, tree, context.budget, graph.device,
                        check_deadline=context.check_deadline,
                    )
                    span.annotate(
                        edges=graph.edge_file.edge_count,
                        batches=outcome.batches, update=outcome.update,
                    )
            except ConvergenceError as exc:
                if checkpoint_every:
                    take_checkpoint()
                    exc.artifact_ref = checkpoint_ref
                raise
            tree = outcome.tree
            context.passes += 1
            context.bump("batches", outcome.batches)
            context.bump("rebuilds", outcome.rebuilds)
            if checkpoint_every and context.passes % checkpoint_every == 0:
                take_checkpoint()
            if not outcome.update:
                result = context.finish(tree)
                result.artifact_ref = checkpoint_ref
                return result
            if context.passes >= limit:
                error = ConvergenceError(
                    f"edge-by-batch did not converge within {limit} passes"
                )
                if checkpoint_every:
                    take_checkpoint()
                    error.artifact_ref = checkpoint_ref
                raise error
    finally:
        context.release()
