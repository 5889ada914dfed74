"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark times each layer of ``repro`` from outside the program: it
replaces the public functions a layer exposes with timing wrappers, at
the place they are called, and puts the originals back afterwards.
Nothing under ``src/`` changes.

A :class:`SpanRecorder` keeps one span per wrapped call (name, parent
span, start, end) in flat arrays, so a traced traversal of a few
hundred thousand calls stays a few megabytes.  A span's *self time* is
its duration minus the durations of its direct children; the root span's
self time is the part of the traversal no wrapped layer accounts for
(``api.residual_s``).

:data:`TARGETS` lists every wrapped layer together with the end-to-end
metric and the workloads it is expected to move (the map the README
prints and the tests check against ``BENCHMARK.json``).
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span clock (a module attribute so tests can substitute a fake one).
clock = time.perf_counter

#: The root span: one call of the public entry point per traversal.
ROOT = "api.semi_external_dfs"

ALL_WORKLOADS = ("td-random", "star-powerlaw", "batch-random", "bfs-varint")


class SpanRecorder:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: List[int] = []
        #: Calls per target name (a generator counts once per scan, not
        #: once per ``next``), plus work counters taken from return values.
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.start_col)
        self.name_col.append(name_id)
        self.parent_col.append(self.stack[-1] if self.stack else -1)
        self.end_col.append(0.0)
        self.stack.append(span)
        self.start_col.append(clock())
        return span

    def close(self, span: int) -> None:
        self.end_col[span] = clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block, counting it as a call."""
        self.counts[name] += 1
        span = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(span)

    def totals(self) -> Dict[str, Tuple[float, float]]:
        """``name -> (seconds, self seconds)`` over every recorded span."""
        count = len(self.start_col)
        child = [0.0] * count
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        for span in range(count):
            parent = parents[span]
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        seconds = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for span, name in enumerate(self.name_col):
            duration = ends[span] - starts[span]
            seconds[name] += duration
            own[name] += duration - child[span]
        return {
            name: (seconds[i], own[i]) for i, name in enumerate(self.names)
        }

    def write_jsonl(self, path: str) -> None:
        """One line per span: id, parent, name, start and end seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in range(len(self.start_col)):
                handle.write(json.dumps({
                    "id": span,
                    "parent": self.parent_col[span],
                    "name": self.names[self.name_col[span]],
                    "start": self.start_col[span],
                    "end": self.end_col[span],
                }) + "\n")


# ----------------------------------------------------------------------
# wrap targets
# ----------------------------------------------------------------------
Tally = Callable[[Any], Dict[str, int]]


@dataclass(frozen=True)
class Target:
    """One layer function, wrapped at every site listed.

    Attributes:
        name: metric prefix, ``<repo module>.<function>``.
        sites: ``(module, attribute path)`` pairs naming where the
            function is looked up when it is called: the module that
            imported it, or the class that defines the method.
        predicts: end-to-end metrics a change in this layer should move.
        workloads: the workloads on which it should move them.
        generator: time each ``next`` of the returned iterator.
        tally: work counters derived from each return value, named in
            ``tallies``.
    """

    name: str
    sites: Tuple[Tuple[str, str], ...]
    predicts: Tuple[str, ...]
    workloads: Tuple[str, ...]
    generator: bool = False
    tally: Optional[Tally] = None
    tallies: Tuple[str, ...] = ()

    @property
    def metrics(self) -> Dict[str, str]:
        """``metric -> unit`` for this target."""
        units = {
            f"{self.name}.calls": "count",
            f"{self.name}.s": "s",
            f"{self.name}.self_s": "s",
            f"{self.name}.self_share": "ratio",
        }
        units.update((tally, "count") for tally in self.tallies)
        return units


def _declined(name: str) -> Tally:
    """A ``None`` return is the kernel declining (the scalar fallback)."""
    return lambda result: {name: int(result is None)}


def _restructure_tally(outcome: Any) -> Dict[str, int]:
    return {
        "restructure.batches": outcome.batches,
        "restructure.rebuilds": outcome.rebuilds,
    }


def _division_tally(division: Any) -> Dict[str, int]:
    return {"division.accepted": int(division is not None)}


_DIVIDE = ("td-random", "star-powerlaw")
_DC = "repro.algorithms.divide_conquer"

#: Every op of the kernel ``Protocol`` (``repro.kernels.base.Kernel``) and
#: the workloads whose time it should move.  Star-powerlaw runs the python
#: kernel, so a change to the numpy kernel alone leaves it unchanged.  The
#: two int-column ops serve only the shared-memory worker boundary
#: (``workers > 1``), which no workload uses.
KERNEL_OPS: Dict[str, Tuple[str, ...]] = {
    "unpack_edge_columns": ("td-random", "batch-random"),
    "pack_edge_columns": ("td-random",),
    "pack_int_column": (),
    "int_column_from_buffer": (),
    "make_index": ("td-random", "batch-random"),
    "classify_slice": ("td-random", "batch-random"),
    "make_columns": ("bfs-varint",),
    "collect_cross_edges": ("td-random",),
    "make_owner_index": ("td-random",),
    "make_level_column": ("bfs-varint",),
    "relax_levels": ("bfs-varint",),
    "route_edges": ("td-random",),
}


def _kernel_target(op: str, workloads: Tuple[str, ...]) -> Target:
    tallies: Tuple[str, ...] = ()
    if op in ("make_index", "make_owner_index"):
        tallies = (f"kernels.{op}.declined",)
    return Target(
        f"kernels.{op}",
        (("repro.kernels.python_kernel", f"PythonKernel.{op}"),
         ("repro.kernels.numpy_kernel", f"NumpyKernel.{op}")),
        ("run_s",) if workloads else (), workloads,
        tally=_declined(tallies[0]) if tallies else None, tallies=tallies,
    )


TARGETS: Tuple[Target, ...] = (
    Target("block_device.read_block",
           (("repro.storage.block_device", "BlockDevice.read_block"),),
           ("ios",), ALL_WORKLOADS),
    Target("block_device.write_block",
           (("repro.storage.block_device", "BlockDevice.write_block"),),
           ("ios",), ("td-random", "star-powerlaw", "bfs-varint")),
    Target("edge_file.scan_columns",
           (("repro.storage.edge_file", "EdgeFile.scan_columns"),),
           ("run_s",), ALL_WORKLOADS, generator=True),
    Target("edge_file.scan_blocks",
           (("repro.storage.edge_file", "EdgeFile.scan_blocks"),),
           ("run_s",), ("star-powerlaw",), generator=True),
    Target("serialization.decode_varint_columns",
           (("repro.storage.edge_file", "decode_varint_columns"),),
           ("run_s", "disk_bytes_per_edge"), ("bfs-varint",)),
    Target("serialization.decode_edge_block",
           (("repro.storage.edge_file", "decode_edge_block"),),
           ("run_s",), ("star-powerlaw",)),
    Target("serialization.pack_edges",
           (("repro.storage.edge_file", "pack_edges"),),
           ("run_s",), ("star-powerlaw",)),
    *(_kernel_target(op, workloads) for op, workloads in KERNEL_OPS.items()),
    Target("inmemory.dfs_preferring_tree",
           (("repro.algorithms.restructure", "dfs_preferring_tree"),
            (_DC, "dfs_preferring_tree")),
           ("run_s", "peak_rss_mb"), ("batch-random", "td-random")),
    Target("inmemory.adjacency_from_edge_file",
           ((_DC, "adjacency_from_edge_file"),),
           ("run_s", "peak_rss_mb"), _DIVIDE),
    Target("classify.IntervalIndex",
           (("repro.core.classify", "IntervalIndex.__init__"),),
           ("run_s", "peak_rss_mb"), ("batch-random",)),
    Target("restructure.restructure",
           ((_DC, "restructure"),
            ("repro.algorithms.edge_by_batch", "restructure")),
           ("run_s", "ios"), ("td-random", "star-powerlaw", "batch-random"),
           tally=_restructure_tally,
           tallies=("restructure.batches", "restructure.rebuilds")),
    Target("division.divide_with_cut",
           ((_DC, "divide_with_cut"),),
           ("ios", "run_s"), _DIVIDE, tally=_division_tally,
           tallies=("division.accepted",)),
    Target("sgraph.s_edge_endpoints",
           (("repro.algorithms.division", "s_edge_endpoints"),),
           ("run_s",), _DIVIDE),
    Target("sgraph.contract_sigma_sccs",
           (("repro.algorithms.division", "contract_sigma_sccs"),),
           ("run_s",), _DIVIDE),
    Target("cut_tree.build_cut_tree",
           ((_DC, "build_cut_tree"),),
           ("run_s",), ("td-random",)),
    Target("cut_tree.star_cut",
           ((_DC, "star_cut"), ("repro.algorithms.cut_tree", "star_cut")),
           ("run_s",), _DIVIDE),
    Target("merge.merge_division",
           ((_DC, "merge_division"),),
           ("run_s",), _DIVIDE),
)

#: Metrics of the root span and of the traced-vs-untraced comparison.
ROOT_METRICS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    # name: (unit, predicts, workloads)
    f"{ROOT}.s": ("s", ("run_s",), ALL_WORKLOADS),
    "api.residual_s": ("s", ("run_s",), ALL_WORKLOADS),
    "trace.overhead": ("ratio", ("run_s",), ALL_WORKLOADS),
}


def layer_metrics() -> Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]]:
    """Every per-layer metric: ``name -> (unit, predicts, workloads)``."""
    found = {
        metric: (unit, target.predicts, target.workloads)
        for target in TARGETS for metric, unit in target.metrics.items()
    }
    found.update(ROOT_METRICS)
    return found


# ----------------------------------------------------------------------
# installing and removing wrappers
# ----------------------------------------------------------------------
def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for ``module:path``; raises when missing.

    ``importlib.import_module`` is required: ``repro.algorithms`` re-exports
    functions named like its submodules (``restructure``), so attribute
    access on the package would find the function, not the module.
    """
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attribute):
        raise AttributeError(f"{module_name}.{path}")
    return owner, attribute


def _call_wrapper(recorder: SpanRecorder, target: Target, fn: Callable) -> Callable:
    name_id = recorder.name_id(target.name)
    counts = recorder.counts
    name = target.name
    tally = target.tally
    open_span = recorder.open
    close_span = recorder.close

    def timed(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        span = open_span(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(span)
        if tally is not None:
            counts.update(tally(result))
        return result

    return timed


def _generator_wrapper(
    recorder: SpanRecorder, target: Target, fn: Callable
) -> Callable:
    name_id = recorder.name_id(target.name)
    counts = recorder.counts
    name = target.name

    def timed_iteration(inner: Iterator[Any]) -> Iterator[Any]:
        with closing(inner):  # type: ignore[type-var]
            while True:
                span = recorder.open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.close(span)
                yield item

    def timed(*args: Any, **kwargs: Any) -> Iterator[Any]:
        counts[name] += 1
        return timed_iteration(fn(*args, **kwargs))

    return timed


@contextmanager
def installed(
    recorder: SpanRecorder, targets: Sequence[Target] = TARGETS
) -> Iterator[List[str]]:
    """Wrap every reachable target for the duration of the block.

    Yields the names of targets none of whose sites exist (``absent``);
    a layer a later change deletes is reported, not an error.  The
    originals are restored on exit, also when the block raises.
    """
    #: ``(owner, attribute, its own value)``; None when it was inherited.
    restore: List[Tuple[Any, str, Any]] = []
    absent: List[str] = []
    try:
        for target in targets:
            found = False
            for module_name, path in target.sites:
                try:
                    owner, attribute = _resolve(module_name, path)
                except (ImportError, AttributeError):
                    continue
                found = True
                make = _generator_wrapper if target.generator else _call_wrapper
                wrapped = make(recorder, target, getattr(owner, attribute))
                restore.append((owner, attribute, vars(owner).get(attribute)))
                setattr(owner, attribute, wrapped)
            if not found:
                absent.append(target.name)
        yield absent
    finally:
        for owner, attribute, own in reversed(restore):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


def layer_values(
    recorder: SpanRecorder, targets: Sequence[Target] = TARGETS
) -> Dict[str, float]:
    """Per-layer seconds and counts of everything ``recorder`` saw.

    A target never called, or absent, reads zero.  Values of several
    traversals may be summed before :func:`add_shares`.
    """
    totals = recorder.totals()
    values: Dict[str, float] = {}
    for target in targets:
        seconds, own = totals.get(target.name, (0.0, 0.0))
        values[f"{target.name}.calls"] = recorder.counts[target.name]
        values[f"{target.name}.s"] = seconds
        values[f"{target.name}.self_s"] = own
        for tally in target.tallies:
            values[tally] = recorder.counts[tally]
    values[f"{ROOT}.s"], values["api.residual_s"] = totals.get(ROOT, (0.0, 0.0))
    return values


def add_shares(values: Dict[str, float], targets: Sequence[Target] = TARGETS) -> None:
    """Add each target's self time as a share of the root span's time.

    A share is the most a traversal can gain from making that layer free
    while nothing else changes.
    """
    root = values[f"{ROOT}.s"]
    for target in targets:
        own = values[f"{target.name}.self_s"]
        values[f"{target.name}.self_share"] = own / root if root > 0 else 0.0
