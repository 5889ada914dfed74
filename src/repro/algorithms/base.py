"""Shared result types and run context for the semi-external algorithms.

Every algorithm takes a :class:`~repro.graph.disk_graph.DiskGraph` plus a
memory budget ``M`` (in elements, ``k·n <= M``) and produces a
:class:`RunResult`: the spanning tree it built, the node order it
induces, and the measured costs (simulated block I/Os, edge-file passes).
The DFS family returns the :class:`DFSResult` specialization (divisions,
recursion depth); sibling traversals such as semi-external BFS return
their own subclasses (:class:`BFSResult` adds the level array) while the
context (memory and pass limits), tracer, and I/O accounting stay
shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Callable, Dict, List, Optional, Sequence, Type, TypeVar

from ..errors import ConvergenceError, MemoryBudgetExceeded
from ..graph.disk_graph import DiskGraph
from ..obs import NULL_TRACER, Span, Tracer
from ..storage.io_stats import IOSnapshot
from ..core.tree import SpanningTree, VirtualNodeAllocator
from ..core.validation import real_preorder
from .restructure import RestructureOutcome

#: The paper's example constant ``k``: an in-memory spanning tree over ``n``
#: nodes costs ``k * n`` elements (parent pointer, sibling order key, depth).
TREE_NODE_COST = 3


@dataclass
class RunResult:
    """The algorithm-neutral output of one semi-external run.

    Attributes:
        tree: the computed spanning tree (rooted at the virtual node
            ``γ``).  For DFS this is the DFS-Tree; for BFS the BFS-tree.
        order: total order over the real nodes the run induces (the DFS
            total order, or the level-sorted BFS visit order).
        algorithm: name of the algorithm that produced the result.
        io: simulated block I/Os consumed by the run.  ``io.reads`` /
            ``io.writes`` are *logical* charges — identical with and
            without injected faults; ``io.retries``, ``io.faults`` and
            ``io.checksum_failures`` report what the resilience layer
            absorbed (see :attr:`retries` / :attr:`faults`).
        elapsed_seconds: wall-clock time of the run.
        passes: full or partial edge-file scans (restructure passes for
            DFS, relaxation passes for BFS).
        kernel: name of the columnar kernel backend the run executed on
            (``python`` or ``numpy``); benchmarks record it so a result
            is attributable to a code path.
        block_codec: edge-block codec of the run's device (``fixed32``
            or ``delta-varint``); like :attr:`kernel`, it changes costs
            only, never the tree, and benchmarks record it.
        details: free-form per-algorithm work counters (batches,
            rebuilds, division attempts, ...).  A run's span events go
            only to the sinks of the :class:`~repro.obs.Tracer` it was
            given.
    """

    tree: SpanningTree
    order: List[int]
    algorithm: str
    io: IOSnapshot
    elapsed_seconds: float
    passes: int = 0
    kernel: str = "python"
    block_codec: str = "fixed32"
    details: Dict[str, int] = field(default_factory=dict)
    #: Path of edge-by-batch's latest checkpoint version directory
    #: (``<device>/artifacts/<name>/vNNNNNN``) when ``checkpoint_every``
    #: is set; ``None`` for every other run.  Open it with
    #: ``ArtifactStore(os.path.dirname(os.path.dirname(p)))`` or
    #: republish with full query columns via ``seal_result``.
    artifact_ref: Optional[str] = None

    @property
    def virtual_root(self) -> Optional[int]:
        """The ``γ`` node the result tree is rooted at."""
        return self.tree.root

    @property
    def retries(self) -> int:
        """Extra block-transfer attempts the device needed (0 fault-free)."""
        return self.io.retries

    @property
    def faults(self) -> int:
        """Block-level faults injected/observed during the run."""
        return self.io.faults

    @property
    def compression_ratio(self) -> float:
        """Raw-over-stored edge bytes moved by the run (1.0 = no gain)."""
        return self.io.compression_ratio

    def position_of(self) -> Dict[int, int]:
        """Map node -> position in the result's total order."""
        return {node: index for index, node in enumerate(self.order)}


@dataclass
class DFSResult(RunResult):
    """A :class:`RunResult` from the DFS family.

    Attributes:
        divisions: successful divisions performed (divide & conquer only).
        max_depth: deepest recursion level reached (divide & conquer only).
    """

    divisions: int = 0
    max_depth: int = 0


@dataclass
class BFSResult(RunResult):
    """A :class:`RunResult` from semi-external BFS.

    Attributes:
        levels: per-node BFS level indexed by node id; ``None`` exactly
            for the nodes unreachable from the start node.
    """

    levels: List[Optional[int]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Largest finite level (the start node's eccentricity); 0 when
        nothing was reached."""
        finite = [level for level in self.levels if level is not None]
        return max(finite) if finite else 0

    @property
    def reached_count(self) -> int:
        """How many nodes the traversal reached (start node included)."""
        return sum(1 for level in self.levels if level is not None)


#: Result specialization a :meth:`RunContext.finish_result` call builds.
ResultT = TypeVar("ResultT", bound=RunResult)


class RunContext:
    """Mutable bookkeeping shared by one algorithm invocation.

    The context is the one place that knows the run's limits and its
    skeleton: it checks the semi-external model's ``M >= 3·|V|`` once,
    hands out the memory left next to a spanning tree
    (:meth:`free_memory`), counts the run's passes and stops it at the
    pass cap (:meth:`end_pass`), and records every Restructure pass the
    same way (:meth:`record_restructure`).

    A runner's body runs inside ``with RunContext(...) as context:``.
    Entering binds the given :class:`~repro.obs.Tracer` (or the shared
    null tracer) to the device's I/O counter, so every span of the run
    records its phase's I/O delta; leaving unbinds it, whether the run
    returned or raised (a cap, a deadline, a rejected argument), so an
    abandoned run cannot keep attributing later I/O to its tracer.
    """

    def __init__(
        self,
        graph: DiskGraph,
        memory: int,
        algorithm: str,
        deadline_seconds: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        max_passes: Optional[int] = None,
    ) -> None:
        minimum = TREE_NODE_COST * graph.node_count
        if memory < minimum:
            raise MemoryBudgetExceeded(
                f"semi-external model needs M >= {TREE_NODE_COST}*|V| = {minimum}; "
                f"got M = {memory}"
            )
        self.graph = graph
        self.memory = memory
        self.algorithm = algorithm
        self.pass_limit = (
            default_max_passes(graph.node_count)
            if max_passes is None else max_passes
        )
        self.allocator = VirtualNodeAllocator(graph.node_count)
        self.passes = 0
        self.divisions = 0
        self.max_depth = 0
        self.details: Dict[str, int] = {}
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._start_io = graph.device.stats.snapshot()
        # repro: allow[SEX302] observational timing metric; never feeds tree construction
        self._start_time = time.perf_counter()
        self._deadline = (
            None
            if deadline_seconds is None
            else self._start_time + deadline_seconds
        )

    def __enter__(self) -> "RunContext":
        self.tracer.bind(self.graph.device.stats)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.tracer.bind(None)

    def free_memory(self, node_count: int) -> int:
        """Elements of ``M`` left next to a spanning tree over
        ``node_count`` real nodes: ``M - 3 * node_count``.

        Restructure's batch ``G_M``, Divide-TD's Σ and the edges a BFS
        scan hands one ``relax_levels`` call get this much.
        """
        return self.memory - TREE_NODE_COST * node_count

    def check_deadline(self) -> None:
        """Raise :class:`ConvergenceError` when the wall-clock limit passed.

        The cooperative analogue of the paper's 8-hour experiment timeout;
        checked once per pass, once per restructure batch and once per
        BFS group of blocks.
        """
        # repro: allow[SEX302] deadline aborts with ConvergenceError; it never alters the result tree
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise ConvergenceError(
                f"{self.algorithm} exceeded its wall-clock deadline"
            )

    def end_pass(self, changed: bool) -> bool:
        """Count one finished pass; ``True`` when it changed nothing.

        A pass that changed something and was the :attr:`pass_limit`-th
        raises :class:`ConvergenceError`.  The cap is checked only here,
        after a pass, so no run stops before its first pass.
        """
        self.passes += 1
        if changed and self.passes >= self.pass_limit:
            raise ConvergenceError(
                f"{self.algorithm} did not converge within "
                f"{self.pass_limit} passes"
            )
        return not changed

    def record_restructure(
        self, span: Span, edges: int, outcome: RestructureOutcome
    ) -> None:
        """Record one Restructure pass over ``edges`` edges: annotate its
        span and count its batches and rebuilds."""
        span.annotate(
            edges=edges, batches=outcome.batches, update=outcome.update,
        )
        self.bump("batches", outcome.batches)
        self.bump("rebuilds", outcome.rebuilds)

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a free-form counter."""
        self.details[key] = self.details.get(key, 0) + amount

    def finish_result(
        self,
        factory: Callable[..., ResultT],
        tree: SpanningTree,
        order: Optional[List[int]] = None,
        **extra_fields: object,
    ) -> ResultT:
        """Package the final tree into a :class:`RunResult` subclass.

        Fills every algorithm-neutral field from the context (I/O window,
        elapsed time, pass count, kernel/codec, counters); ``extra_fields``
        carry the specialization's own fields (``divisions=...``,
        ``levels=...``).  ``order`` defaults to the tree's non-virtual
        preorder.
        """
        io = self.graph.device.stats.snapshot() - self._start_io
        # repro: allow[SEX302] observational timing metric; never feeds tree construction
        elapsed = time.perf_counter() - self._start_time
        return factory(
            tree=tree,
            order=real_preorder(tree) if order is None else order,
            algorithm=self.algorithm,
            io=io,
            elapsed_seconds=elapsed,
            passes=self.passes,
            kernel=self.graph.device.kernel.name,
            block_codec=self.graph.device.block_codec,
            details=dict(self.details),
            **extra_fields,
        )

    def finish(self, tree: SpanningTree) -> DFSResult:
        """Package the final tree into a :class:`DFSResult`."""
        return self.finish_result(
            DFSResult, tree,
            divisions=self.divisions, max_depth=self.max_depth,
        )


def initial_star_tree(
    graph: DiskGraph,
    allocator: VirtualNodeAllocator,
    start: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
) -> SpanningTree:
    """The paper's initial spanning tree: virtual ``γ`` over all nodes.

    Args:
        start: optional start node for the DFS; it becomes ``γ``'s first
            child so the search begins there (the Exp-6 treatment).
        order: optional full restart-priority order for ``γ``'s children
            (mutually exclusive with ``start``).  The baselines preserve
            this priority across restructuring — the property Kosaraju's
            second pass needs.
    """
    gamma = allocator.allocate()
    node_ids: Sequence[int] = range(graph.node_count)
    if order is not None:
        if start is not None:
            raise ValueError("pass either start or order, not both")
        return SpanningTree.initial_star(node_ids, gamma, order=order)
    if start is None:
        return SpanningTree.initial_star(node_ids, gamma)
    if not 0 <= start < graph.node_count:
        raise ValueError(f"start node {start} out of range")
    first = [start] + [node for node in node_ids if node != start]
    return SpanningTree.initial_star(node_ids, gamma, order=first)


def default_max_passes(node_count: int) -> int:
    """Pass cap for the restructuring heuristics.

    Sibeyn et al.'s procedures are heuristics with an ``n``-pass worst case;
    in practice they converge in a handful of passes.  The cap exists so a
    pathological input raises :class:`~repro.errors.ConvergenceError`
    instead of looping for hours (the paper used an 8-hour timeout).
    """
    return 2 * node_count + 16
