"""repro — semi-external, I/O-efficient depth-first search.

A production-quality reproduction of Zhang, Yu, Qin & Shang,
*"Divide & Conquer: I/O Efficient Depth-First Search"* (SIGMOD 2015):
DFS a directed graph whose edge set lives on disk, holding only a spanning
tree (plus a bounded batch of edges) in memory.

Quickstart::

    from repro import BlockDevice, DiskGraph, semi_external_dfs
    from repro.graph import random_graph

    with BlockDevice() as device:
        graph = DiskGraph.from_digraph(device, random_graph(50_000, 5, seed=1))
        result = semi_external_dfs(graph, memory=250_000, algorithm="divide-td")
        print(result.order[:10], result.io.total, "block I/Os")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from ._version import __version__
from .api import ALGORITHMS, semi_external_dfs
from .algorithms.base import BFSResult, DFSResult, RunResult
from .algorithms.bfs import semi_external_bfs
from .obs import NullTracer, SpanEvent, Tracer
from .options import RunOptions
from .errors import (
    ConvergenceError,
    CorruptBlockError,
    InvalidDivisionError,
    InvalidGraphError,
    MemoryBudgetExceeded,
    NotADAGError,
    ReproError,
    RetriesExhausted,
    StorageError,
    TransientIOError,
)
from .graph.digraph import Digraph
from .graph.disk_graph import DiskGraph
from .storage.block_device import BlockDevice
from .storage.buffer_pool import MemoryBudget
from .storage.faults import FaultPlan

__all__ = [
    "ALGORITHMS",
    "BFSResult",
    "BlockDevice",
    "ConvergenceError",
    "CorruptBlockError",
    "DFSResult",
    "Digraph",
    "DiskGraph",
    "FaultPlan",
    "InvalidDivisionError",
    "InvalidGraphError",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "NotADAGError",
    "NullTracer",
    "ReproError",
    "RetriesExhausted",
    "RunOptions",
    "RunResult",
    "SpanEvent",
    "StorageError",
    "Tracer",
    "TransientIOError",
    "__version__",
    "semi_external_bfs",
    "semi_external_dfs",
]
