"""External merge sort over edge files.

Implements the classic ``sort(N)`` primitive of the EM model: form
memory-sized sorted runs in one scan, then k-way merge the runs.  The
library uses it to deduplicate generated datasets and for the edge-locality
ablation (sorting the edge file by the source's preorder position before
running the baselines).

All I/O flows through :class:`~repro.storage.edge_file.EdgeFile`, so run
formation and merging are charged exactly one I/O per block moved.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

from .block_device import BlockDevice
from .edge_file import EdgeFile
from .serialization import Edge

SortKey = Callable[[Edge], object]


def _form_runs(
    device: BlockDevice,
    source: EdgeFile,
    memory_edges: int,
    key: Optional[SortKey],
    runs: List[EdgeFile],
) -> None:
    """Scan ``source`` once, appending sorted runs of ``memory_edges`` edges
    to ``runs``.  A run is listed as soon as it is created, so the caller
    can delete a half-written one."""
    buffer: List[Edge] = []

    def emit() -> None:
        if not buffer:
            return
        buffer.sort(key=key)
        run = device.create_edge_file()
        runs.append(run)
        run.extend(buffer)
        run.seal()
        buffer.clear()

    for edge in source.scan():
        buffer.append(edge)
        if len(buffer) >= memory_edges:
            emit()
    emit()


def _merge_runs(
    device: BlockDevice,
    runs: List[EdgeFile],
    key: Optional[SortKey],
    unique: bool,
) -> EdgeFile:
    """K-way merge sorted runs into a single sealed edge file.

    A merge that fails deletes its partial output before the error
    propagates.
    """
    output = device.create_edge_file()
    key_fn = key if key is not None else lambda edge: edge
    try:
        streams: List[Iterator[Edge]] = [run.scan() for run in runs]
        heap: List[Tuple[object, int, Edge]] = []
        for index, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, (key_fn(first), index, first))

        previous: Optional[Edge] = None
        while heap:
            _, index, edge = heapq.heappop(heap)
            if not unique or edge != previous:
                output.append(*edge)
                previous = edge
            following = next(streams[index], None)
            if following is not None:
                heapq.heappush(heap, (key_fn(following), index, following))
        return output.seal()
    finally:
        if not output.sealed:
            output.delete()


def sort_edge_file(
    device: BlockDevice,
    source: EdgeFile,
    memory_edges: int,
    key: Optional[SortKey] = None,
    unique: bool = False,
) -> EdgeFile:
    """Sort ``source`` into a new sealed edge file on ``device``.

    Args:
        memory_edges: run size — how many edges fit in memory at once.
        key: sort key over ``(u, v)`` pairs; natural tuple order if omitted.
        unique: drop consecutive duplicate edges during the merge.

    Returns:
        A new sealed :class:`EdgeFile` with the sorted (optionally deduped)
        edges.  ``source`` is left untouched, and the intermediate runs
        are deleted; so is every file the call created when it fails.
    """
    if memory_edges <= 0:
        raise ValueError("memory_edges must be positive")
    runs: List[EdgeFile] = []
    try:
        _form_runs(device, source, memory_edges, key, runs)
        if not runs:
            return device.create_edge_file().seal()
        if len(runs) == 1 and not unique:
            return runs.pop()  # the only run is the output
        return _merge_runs(device, runs, key, unique)
    finally:
        for run in runs:
            run.delete()
