"""Benchmark harness: run one algorithm on one workload cell, with the
paper's DNF semantics (a wall-clock deadline standing in for the 8-hour timeout)."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api import semi_external_dfs
from ..errors import ConvergenceError
from ..graph.disk_graph import DiskGraph
from ..obs import MemorySink, SpanEvent, Tracer, phase_totals
from ..options import RunOptions
from ..storage.block_device import BlockDevice

Edge = Tuple[int, int]

#: The per-phase breakdown benchmarks report (the CSV's trailing columns).
PHASE_COLUMNS: Tuple[str, ...] = ("restructure", "divide", "solve", "merge")


def _phase_breakdown(
    events: Sequence[SpanEvent],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-phase seconds and block-I/O totals for the CSV columns."""
    totals = phase_totals(events)
    seconds = {
        phase: totals[phase].seconds for phase in PHASE_COLUMNS
        if phase in totals
    }
    ios = {
        phase: totals[phase].io.total for phase in PHASE_COLUMNS
        if phase in totals
    }
    return seconds, ios


def default_dnf_seconds() -> float:
    """The stand-in for the paper's 8-hour wall-clock limit.

    A cell whose algorithm runs longer than this is reported DNF, exactly
    like the paper's missing bars.  Override with ``REPRO_BENCH_TIMEOUT``
    (seconds).
    """
    return float(os.environ.get("REPRO_BENCH_TIMEOUT", "30"))


@dataclass
class CellResult:
    """One (x-value, algorithm) cell of an experiment's series."""

    x: object
    algorithm: str
    time_seconds: float
    ios: int
    passes: int
    divisions: int
    node_count: int
    edge_count: int
    dnf: bool = False
    kernel: str = "python"
    retries: int = 0  # physical retry attempts (excluded from `ios`)
    faults: int = 0  # injected/observed block faults during the run
    #: Edge-block codec the cell's device wrote with.
    codec: str = "fixed32"
    #: Raw/stored edge-byte ratio over the run (1.0 under ``fixed32``).
    compression_ratio: float = 1.0
    #: Sealed blocks in the cell's input edge file — the block reads one
    #: full scan costs (``ceil(m/B)`` under fixed32, fewer compressed).
    blocks_per_scan: int = 0
    #: Wall-clock seconds per phase (keys from :data:`PHASE_COLUMNS`;
    #: phases the algorithm never entered are absent).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Block I/Os per phase (same keys as :attr:`phase_seconds`).
    phase_ios: Dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.x}/{self.algorithm}"


def run_cell(
    x: object,
    algorithm: str,
    node_count: int,
    edges: Iterable[Edge],
    memory: int,
    start: Optional[int] = None,
    dnf_seconds: Optional[float] = None,
    block_elements: int = 4096,
    block_codec: Optional[str] = None,
) -> CellResult:
    """Materialize a workload on a fresh device and run one algorithm.

    Graph materialization I/O is *not* charged to the cell — the paper's
    datasets pre-exist on disk; measurement starts at the algorithm call.
    ``block_codec`` selects the edge-block write codec for the whole
    cell, input materialization included (``None``:
    ``$REPRO_BLOCK_CODEC``/fixed32).
    """
    if dnf_seconds is None:
        dnf_seconds = default_dnf_seconds()
    with BlockDevice(
        block_elements=block_elements, block_codec=block_codec
    ) as device:
        graph = DiskGraph.from_edges(device, node_count, edges, validate=False)
        started = time.perf_counter()
        before = device.stats.snapshot()
        # The sink keeps the spans a DNF completed before its deadline.
        events = MemorySink()
        tracer = Tracer(sinks=[events])
        try:
            result = semi_external_dfs(
                graph, memory, algorithm=algorithm, start=start,
                options=RunOptions(
                    deadline_seconds=dnf_seconds, tracer=tracer,
                ),
            )
        except ConvergenceError:
            elapsed = time.perf_counter() - started
            delta = device.stats.snapshot() - before
            seconds, ios = _phase_breakdown(events.events)
            return CellResult(
                x=x, algorithm=algorithm, time_seconds=elapsed, ios=delta.total,
                passes=0, divisions=0,
                node_count=node_count, edge_count=graph.edge_count, dnf=True,
                kernel=device.kernel.name,
                retries=delta.retries, faults=delta.faults,
                codec=device.block_codec,
                compression_ratio=delta.compression_ratio,
                blocks_per_scan=graph.edge_file.block_count,
                phase_seconds=seconds, phase_ios=ios,
            )
        seconds, ios = _phase_breakdown(events.events)
        return CellResult(
            x=x, algorithm=algorithm,
            time_seconds=result.elapsed_seconds, ios=result.io.total,
            passes=result.passes, divisions=getattr(result, "divisions", 0),
            node_count=node_count, edge_count=graph.edge_count,
            kernel=result.kernel,
            retries=result.io.retries, faults=result.io.faults,
            codec=result.block_codec,
            compression_ratio=result.compression_ratio,
            blocks_per_scan=graph.edge_file.block_count,
            phase_seconds=seconds, phase_ios=ios,
        )


def run_series(
    xs: Iterable[object],
    algorithms: Iterable[str],
    cell: Callable[..., CellResult],
) -> List[CellResult]:
    """Run ``cell(x, algorithm)`` over the cross product, in sweep order."""
    results: List[CellResult] = []
    for x in xs:
        for algorithm in algorithms:
            results.append(cell(x, algorithm))
    return results
