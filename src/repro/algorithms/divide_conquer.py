"""``DivideConquerDFS`` (Algorithm 2): the paper's main contribution.

The recursive procedure over a subgraph on disk:

* **base case** — the subgraph fits in memory (``|G_i| <= M``): load it and
  run the in-memory tree-preferring DFS once;
* otherwise alternate **Restructure** passes with **division attempts**
  (Divide-Star or Divide-TD).  A pass that finds no forward-cross edge
  means the current tree already is a DFS-Tree; a valid division
  (``p > 1`` parts) recurses into each part — each part's restructure scans
  only that part's (much smaller) edge file — and the part DFS-Trees are
  reassembled by :func:`~repro.algorithms.merge.merge_division`.  A
  division is kept only if the merged tree would start at the current
  restart-priority head; the check reads merge step 1
  (:attr:`~repro.algorithms.division.Division.ordered`), the same tree
  the merge grafts into, so the two cannot disagree.

Invariant maintained everywhere (and checked by the test suite): every
tree edge whose parent is a real node is a real graph edge, so the final
tree is a genuine DFS forest of ``G`` under the virtual root ``γ``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..graph.disk_graph import DiskGraph
from ..obs import Tracer
from ..storage.edge_file import EdgeFile
from ..core.inmemory import adjacency_from_edge_file, dfs_preferring_tree
from ..core.tree import SpanningTree
from .base import DFSResult, RunContext, initial_star_tree
from .cut_tree import build_cut_tree, star_cut
from .division import Division, divide_with_cut
from .merge import merge_division, splice_non_root_virtuals
from .restructure import restructure

#: A cut strategy maps (tree, free memory) -> (cut_nodes, expanded); the free
#: memory is what ``M`` leaves next to the level's spanning tree.  Divide-TD's
#: strategy is :func:`~repro.algorithms.cut_tree.build_cut_tree` itself.
CutStrategy = Callable[[SpanningTree, int], Tuple[Set[int], Set[int]]]


def star_strategy(tree: SpanningTree, free: int) -> Tuple[Set[int], Set[int]]:
    """Divide-Star's cut: the root and its children (Algorithm 3)."""
    return star_cut(tree)


def _solve_in_memory(
    edge_file: EdgeFile, tree: SpanningTree, context: RunContext
) -> SpanningTree:
    """Base case: ``|G_i| <= M`` — load the edges and DFS once in memory.

    The materialization happens in the designated in-memory solver
    (:func:`~repro.core.inmemory.adjacency_from_edge_file`), the one
    place the conformance checker permits it: the recursion only gets
    here after proving the part fits the budget.
    """
    extra = adjacency_from_edge_file(edge_file)
    context.bump("inmemory_solves")
    solved, _ = dfs_preferring_tree(tree, extra)
    return solved


def _first_real_node(tree: SpanningTree) -> Optional[int]:
    """The first non-virtual node in preorder — the restart-priority head.

    This is the node a priority-respecting DFS visits first: the start
    hint at the top level, the part root (or first contracted member) in
    a recursive call.  Restructure and the in-memory solve both preserve
    it, so it is the invariant a division must not break.
    """
    for node in tree.preorder():
        if not tree.is_virtual(node):
            return node
    return None


def _division_first_real(division: Division) -> Optional[int]:
    """The first real node the *merged* tree would visit.

    Walks merge step 1's tree (:attr:`Division.ordered`) in preorder and
    returns the first real node it meets, or the head of the first part
    leaf it meets: the recursion preserves a part's first real node, by
    the same invariant this check enforces.
    """
    ordered = division.ordered
    head_of_part: Dict[int, Optional[int]] = {
        part.root: (part.real_nodes[0] if part.real_nodes else None)
        for part in division.parts
    }
    for node in ordered.preorder():
        if node in head_of_part:
            return head_of_part[node]
        if not ordered.is_virtual(node):
            return node
    return None


def _discard_division(division: Division, tree: SpanningTree) -> None:
    """Undo a vetoed division: drop its part files and its virtuals.

    The part files are this level's only disk residue (the parent edge
    file is still intact — it is deleted only after a division is
    *accepted*).  Contraction virtuals that step 2 spliced into the
    spanning tree are removed again so repeated vetoes cannot grow a
    chain of dead virtual nodes across restructure passes.
    """
    for part in division.parts:
        part.edge_file.delete()
        if tree.is_virtual(part.root) and part.root in tree.parent:
            tree.splice_out(part.root)


def _divide_conquer(
    edge_file: EdgeFile,
    real_node_count: int,
    tree: SpanningTree,
    context: RunContext,
    strategy: CutStrategy,
    depth: int,
) -> SpanningTree:
    """Recursive body of Algorithm 2 (its DivideConquer procedure).

    Every level below the top owns its edge file (a part file of the
    division above it) and deletes it once the file is consumed.
    """
    if depth > context.max_depth:
        context.max_depth = depth
    size = real_node_count + edge_file.edge_count

    if size <= context.memory:
        # The deadline must interrupt here too: a division can hand this
        # branch hundreds of in-memory solves, and a run that only checked
        # the clock in the restructure loop would overshoot its budget by
        # a whole solve per part.
        context.check_deadline()
        with context.tracer.span(
            "solve", depth=depth, nodes=real_node_count,
            edges=edge_file.edge_count,
            kernel=edge_file.device.kernel.name,
            codec=edge_file.device.block_codec,
        ):
            result = _solve_in_memory(edge_file, tree, context)
        if depth > 0:
            edge_file.delete()
        return result

    free = context.free_memory(real_node_count)
    division = None
    level_passes = 0
    next_attempt = 1
    while division is None:
        context.check_deadline()
        with context.tracer.span(
            "restructure", depth=depth, nodes=real_node_count,
            kernel=edge_file.device.kernel.name,
            codec=edge_file.device.block_codec,
        ) as restructure_span:
            outcome = restructure(
                edge_file, tree, free, check_deadline=context.check_deadline
            )
            context.record_restructure(
                restructure_span, edge_file.edge_count, outcome
            )
        tree = outcome.tree
        level_passes += 1
        if context.end_pass(outcome.update):
            # No forward-cross edge anywhere: the tree is a DFS-Tree.
            splice_non_root_virtuals(tree)
            if depth > 0:
                edge_file.delete()
            return tree
        # Divide as early as possible (paper §4.2), but back off after
        # failed attempts: a failed attempt costs a full scan, and on
        # hard-to-divide graphs (one giant SCC) paying it every pass would
        # let the baseline win on I/O.  The gap doubles up to a cap of 8
        # passes, bounding the overhead at ~12% while still catching a
        # division within 8 passes of it becoming possible.
        if level_passes < next_attempt:
            continue
        head = _first_real_node(tree)
        with context.tracer.span("cut-tree", depth=depth):
            cut_nodes, expanded = strategy(tree, free)
        with context.tracer.span(
            "divide", depth=depth, nodes=real_node_count
        ) as divide_span:
            division = divide_with_cut(
                edge_file, tree, cut_nodes, expanded, context.allocator,
                tracer=context.tracer,
            )
            context.bump("division_attempts")
            if division is not None:
                divide_span.annotate(
                    parts=division.part_count,
                    contractions=division.contractions,
                    part_sizes=sorted(
                        (p.size for p in division.parts), reverse=True
                    ),
                )
        if division is not None and _division_first_real(division) != head:
            # Σ forces another part before the restart-priority head (an
            # S-edge out of the head's subtree into a sibling part): no
            # sibling permutation can honour the start hint under this
            # division.  Discard it and keep restructuring — the next
            # rebuild re-parents the offending target *under* the head's
            # subtree, exactly as the baselines resolve it.
            _discard_division(division, tree)
            context.bump("divisions_vetoed")
            division = None
        if division is None:
            next_attempt = level_passes + min(max(level_passes, 1), 8)

    context.divisions += 1
    context.bump("parts_created", division.part_count)
    if depth > 0:
        edge_file.delete()  # the parts and Σ fully replace this file

    part_trees: List[SpanningTree] = []
    try:
        for part in division.parts:
            # The deadline must also interrupt between parts: a division
            # can produce hundreds of them, and a run that checked the
            # clock only inside each part's restructure loop could
            # overshoot its budget by a whole in-memory solve per part.
            context.check_deadline()
            with context.tracer.span(
                "part", depth=depth + 1, part=part.index,
                nodes=len(part.real_nodes), edges=part.edge_file.edge_count,
            ):
                part_trees.append(_divide_conquer(
                    part.edge_file, len(part.real_nodes), part.tree,
                    context, strategy, depth + 1,
                ))
    # repro: allow[SEX402] cleanup-and-reraise at the recursion boundary; the error propagates untouched
    except Exception:
        # This level's division already replaced the parent edge file, so
        # its part files are owned here and nowhere else: without this
        # sweep, an error raised inside any part (deadline, pass cap)
        # would leak every not-yet-consumed part file onto the device.
        # delete() is idempotent, so parts the recursion already consumed
        # are unaffected.
        for part in division.parts:
            part.edge_file.delete()
        raise
    with context.tracer.span("merge", depth=depth, parts=division.part_count):
        merged = merge_division(division, part_trees)
    return merged


def _run(
    graph: DiskGraph,
    memory: int,
    strategy: CutStrategy,
    name: str,
    start: Optional[int],
    max_passes: Optional[int],
    deadline_seconds: Optional[float],
    tracer: Optional[Tracer],
) -> DFSResult:
    with RunContext(
        graph, memory, name, deadline_seconds, tracer, max_passes
    ) as context:
        tree = initial_star_tree(graph, context.allocator, start)
        final = _divide_conquer(
            graph.edge_file, graph.node_count, tree, context, strategy, depth=0
        )
        return context.finish(final)


def divide_star_dfs(
    graph: DiskGraph,
    memory: int,
    start: Optional[int] = None,
    max_passes: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> DFSResult:
    """DivideConquerDFS with the Divide-Star division (Algorithm 3).

    Args:
        tracer: a :class:`~repro.obs.Tracer` to receive the run's span
            events.
    """
    return _run(
        graph, memory, star_strategy, "divide-star", start, max_passes,
        deadline_seconds, tracer,
    )


def divide_td_dfs(
    graph: DiskGraph,
    memory: int,
    start: Optional[int] = None,
    max_passes: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> DFSResult:
    """DivideConquerDFS with the Divide-TD division (Algorithm 4).

    Args:
        tracer: a :class:`~repro.obs.Tracer` to receive the run's span
            events.
    """
    # build_cut_tree is looked up here, at call time, not bound at import,
    # so a wrapper installed on this module's name (as the layer trace in
    # benchmarks/e2e installs one) sees every call.
    return _run(
        graph, memory, build_cut_tree, "divide-td", start, max_passes,
        deadline_seconds, tracer,
    )
