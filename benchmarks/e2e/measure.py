"""Measure one benchmark workload in this interpreter.

Started by ``run.py`` in a fresh interpreter per workload, with
``PYTHONPATH`` pointing at the checkout's ``src`` and every ``REPRO_*``
variable removed.  Prints one JSON object as its last line of output.

A workload is a fixed number of generated graphs of one kind and size,
drawn from ``--seed``.  A round traverses each graph once through
``repro.api.semi_external_dfs`` (one caller, closed loop, ``workers=1``,
no tracer) and checks each output outside the timed call; rounds repeat
while the next one still fits in ``--seconds``.

Why many small graphs and not one large one: on a single graph, the
number of restructure passes and divisions -- and with them time and
I/O -- moves by 15-20 % from seed to seed, so a one-graph run measures
the seed more than the code.  The spread of a sum over ``k`` graphs
shrinks like ``1/sqrt(k)``, and per second of traversal small graphs
give more independent samples than large ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import layers
from repro.api import semi_external_dfs
from repro.bench.experiments import memory_ratio_for_gb, workload_block_elements
from repro.core.validation import check_spanning_tree, verify_dfs_tree
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import power_law_graph_edges, random_graph_edges
from repro.options import RunOptions
from repro.storage.block_device import BlockDevice

#: Average degree of every generated graph.
DEGREE = 6
#: Node count and seed of the warm-up graph traversed in each timed set-up.
WARMUP_NODES = 200
WARMUP_SEED = 0
#: ``setup_s`` is the median of this many timed set-ups.
SETUP_SAMPLES = 15
#: Untraced rounds per run, at least: the per-graph median of three
#: ignores one round slowed by other load on the host.
MIN_ROUNDS = 3
#: A traversal that takes longer fails.
DEADLINE_SECONDS = 120.0
#: Graph ``k`` of seed ``s`` is generated from seed ``s * SEED_STRIDE + k``.
SEED_STRIDE = 1000

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    algorithm: str
    generator: str  # "random" or "power-law"
    nodes: int
    graphs: int
    kernel: str
    codec: str


#: Sized so that one round takes about 4 s on a 2-core Xeon.  Why each
#: workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS: Dict[str, Workload] = {
    "td-random": Workload("divide-td", "random", 300, 80, "numpy", "fixed32"),
    "star-powerlaw": Workload("divide-star", "power-law", 250, 120, "python", "fixed32"),
    "batch-random": Workload("edge-by-batch", "random", 300, 64, "numpy", "fixed32"),
    "bfs-varint": Workload("bfs", "random", 3000, 24, "numpy", "delta-varint"),
}


def generate_edges(kind: str, nodes: int, seed: int) -> Iterator[Edge]:
    if kind == "random":
        return random_graph_edges(nodes, DEGREE, seed=seed)
    return power_law_graph_edges(nodes, DEGREE, seed=seed)


@dataclass
class Graph:
    seed: int
    graph: DiskGraph
    memory: int
    #: Output of the first traversal, which every later one must repeat.
    order: Optional[List[int]] = None
    ios: Optional[int] = None
    #: Reference BFS levels, computed at the first check of a BFS output.
    levels: Optional[List[Optional[int]]] = None


@dataclass(frozen=True)
class Elapsed:
    """Wall seconds of a timed call and the user-mode CPU seconds within it."""

    wall: float
    user: float


def stopwatch() -> Tuple[float, float]:
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_utime


def since(start: Tuple[float, float]) -> Elapsed:
    wall, user = stopwatch()
    return Elapsed(wall - start[0], user - start[1])


class HostSpeed:
    """A fixed pure-Python DFS, timed after every traversal.

    Other load on a shared host slows this process's Python code by up to
    2x for minutes at a time.  The median time of a fixed probe over a
    round measures that slowdown, so the round's CPU times can be scaled
    back to a quiet host.  The probe touches nothing in ``repro``.
    """

    NODES = 5000
    #: Median probe seconds on a quiet 2-core Xeon with Python 3.11.
    REFERENCE_S = 0.00125

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adjacency = [
            [rng.randrange(self.NODES) for _ in range(4)]
            for _ in range(self.NODES)
        ]
        self.samples: List[float] = []

    def _walk(self) -> None:
        seen = [False] * self.NODES
        for root in range(self.NODES):
            stack = [root]
            while stack:
                node = stack.pop()
                if not seen[node]:
                    seen[node] = True
                    stack.extend(self.adjacency[node])

    def sample(self) -> None:
        """Time one walk, after an untimed one has brought its data into
        the CPU caches.

        The probe must not depend on the code it is independent of: a cold
        walk right after a traversal would time the traversal's cache
        footprint, and a garbage collection would walk its live objects.
        It is timed in CPU time, like the traversals, so that time the
        process spends preempted by other threads does not count.
        """
        gc.disable()
        try:
            self._walk()
            started = time.process_time()
            self._walk()
            self.samples.append(time.process_time() - started)
        finally:
            gc.enable()

    def factor(self) -> float:
        """Reference over median probe time since the last call."""
        measured = statistics.median(self.samples)
        self.samples = []
        return self.REFERENCE_S / measured


def store_graph(workload: Workload, nodes: int, seed: int, directory: str) -> Graph:
    """Generate one graph and stream it onto its own device."""
    device = BlockDevice(
        block_elements=workload_block_elements(DEGREE * nodes),
        kernel=workload.kernel, block_codec=workload.codec,
        directory=directory,
    )
    graph = DiskGraph.from_edges(
        device, nodes, generate_edges(workload.generator, nodes, seed)
    )
    return Graph(seed, graph, memory_ratio_for_gb(1.0, nodes))


def warm_up(workload: Workload, directory: str) -> None:
    """Traverse a small graph with the same algorithm, kernel and codec.

    The graph is the same on every call and for every seed: the time of
    one traversal moves by a third from one small graph to the next, and
    ``setup_s`` should measure the code, not the warm-up graph drawn.
    """
    try:
        warm = store_graph(workload, WARMUP_NODES, WARMUP_SEED, directory)
        semi_external_dfs(warm.graph, warm.memory, algorithm=workload.algorithm)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def set_up(workload: Workload, nodes: int, seed: int, directory: str,
           speed: HostSpeed) -> Tuple[List[Graph], List[Elapsed]]:
    """Store every graph of the workload; time the first few set-ups.

    A timed set-up generates and stores one graph and warms up on a
    ``WARMUP_NODES``-node graph; ``speed`` is sampled after each.
    """
    graphs: List[Graph] = []
    samples: List[Elapsed] = []
    for k in range(workload.graphs):
        graph_seed = seed * SEED_STRIDE + k
        start = stopwatch()
        graphs.append(store_graph(workload, nodes, graph_seed,
                                  os.path.join(directory, f"g{k}")))
        if k < SETUP_SAMPLES:
            warm_up(workload, os.path.join(directory, "warm-up"))
            samples.append(since(start))
            speed.sample()
    return graphs, samples


def bfs_levels(nodes: int, edges: Iterator[Edge], start: int = 0) -> List[Optional[int]]:
    """Reference BFS levels by a plain in-memory deque BFS."""
    adjacency: List[List[int]] = [[] for _ in range(nodes)]
    for u, v in edges:
        adjacency[u].append(v)
    levels: List[Optional[int]] = [None] * nodes
    levels[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if levels[v] is None:
                levels[v] = levels[u] + 1  # type: ignore[operator]
                queue.append(v)
    return levels


def check_output(workload: Workload, item: Graph, result: Any) -> List[str]:
    """Problems with one traversal's output (empty when it is correct).

    DFS: a spanning tree with no forward-cross edge.  BFS: the levels of an
    in-memory BFS over the regenerated edges.  Both: the same order and
    I/O count as the graph's first traversal.
    """
    graph = item.graph
    problems = list(check_spanning_tree(result.tree, range(graph.node_count)).problems)
    if workload.algorithm == "bfs":
        if item.levels is None:
            item.levels = bfs_levels(
                graph.node_count,
                generate_edges(workload.generator, graph.node_count, item.seed),
            )
        if list(result.levels) != item.levels:
            problems.append("BFS levels differ from an in-memory BFS")
    else:
        report = verify_dfs_tree(graph, result.tree)
        if not report.ok:
            problems.append(
                f"{report.forward_cross_count} forward-cross edges, "
                f"first {report.first_offender}"
            )
    if item.order is None:
        item.order, item.ios = list(result.order), result.io.total
    elif list(result.order) != item.order:
        problems.append("order differs from the first traversal")
    elif result.io.total != item.ios:
        problems.append(f"I/O {result.io.total} differs from {item.ios}")
    return problems


def median(samples: Sequence[float]) -> float:
    """The median; a count stays a whole number."""
    if all(isinstance(sample, int) for sample in samples):
        return statistics.median_low(samples)
    return statistics.median(samples)


class Run:
    """The traversals of one workload and their outcome."""

    def __init__(self, workload: Workload, graphs: Sequence[Graph],
                 speed: HostSpeed) -> None:
        self.workload = workload
        self.graphs = list(graphs)
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.timed_rounds = 0
        #: Wrap targets found nowhere in the last traced traversal.
        self.absent: List[str] = []

    def _call(self, item: Graph) -> Tuple[Elapsed, Any]:
        start = stopwatch()
        result = semi_external_dfs(
            item.graph, item.memory, algorithm=self.workload.algorithm,
            options=RunOptions(deadline_seconds=DEADLINE_SECONDS),
        )
        return since(start), result

    def traverse(self, item: Graph,
                 recorder: Optional[layers.SpanRecorder] = None) -> Elapsed:
        """One timed traversal, then its output check (not timed), then a
        host-speed sample."""
        self.attempted += 1
        elapsed = Elapsed(0.0, 0.0)
        try:
            if recorder is None:
                elapsed, result = self._call(item)
            else:
                with layers.installed(recorder) as self.absent, \
                        recorder.span(layers.ROOT):
                    elapsed, result = self._call(item)
            problems = check_output(self.workload, item, result)
        # The benchmark must keep running and report a failed traversal,
        # whatever the traversal raised.
        except Exception as error:  # noqa: BLE001
            problems = [f"{type(error).__name__}: {error}"]
        finally:
            # A BFS run publishes its tree; drop it so runs stay alike.
            shutil.rmtree(
                os.path.join(item.graph.device.directory, "artifacts"),
                ignore_errors=True,
            )
        if elapsed.wall > DEADLINE_SECONDS:
            problems.append(f"took {elapsed.wall:.1f} s, over the deadline")
        if problems:
            self.failed += 1
            self.errors.append(f"graph seed {item.seed}: {'; '.join(problems)}")
        self.speed.sample()
        return elapsed

    @staticmethod
    def rounds(seconds: float, minimum: int = 1) -> Iterator[int]:
        """Round numbers while the next round still fits in ``seconds``."""
        window = time.perf_counter()
        number = 0
        while True:
            began = time.perf_counter()
            yield number
            number += 1
            spent = time.perf_counter()
            if number >= minimum and spent - window + (spent - began) > seconds:
                return

    def timed(self, seconds: float) -> Dict[str, float]:
        """Untraced rounds.

        ``run_s`` sums, over graphs, each graph's median user CPU time over
        the rounds, each scaled by its round's host-speed factor;
        ``run_wall_s`` sums the graphs' median wall times, unscaled.
        Kernel time is left out of ``run_s``: what the file-system calls
        on part files cost moves by up to 2x with the host's disk state,
        and ``ios`` counts those I/Os instead.
        """
        wall: List[List[float]] = [[] for _ in self.graphs]
        user: List[List[float]] = [[] for _ in self.graphs]
        factors: List[float] = []
        for _ in self.rounds(seconds, MIN_ROUNDS):
            times = [self.traverse(item) for item in self.graphs]
            factors.append(self.speed.factor())
            for k, elapsed in enumerate(times):
                wall[k].append(elapsed.wall)
                user[k].append(elapsed.user * factors[-1])
        self.timed_rounds = len(factors)
        return {
            "run_s": sum(statistics.median(samples) for samples in user),
            "run_wall_s": sum(statistics.median(samples) for samples in wall),
            "host_speed": statistics.median(factors),
        }

    def traced(self, seconds: float) -> Tuple[Dict[str, float], layers.SpanRecorder]:
        """Per-layer metrics: medians over traced rounds of per-round sums.

        A traced round traverses each graph untraced and then traced, one
        right after the other, so ``trace.overhead`` compares traversals
        made under the same host load.  Also returns the spans of graph
        0's last traced traversal.
        """
        values: Dict[str, List[float]] = {}
        sample = layers.SpanRecorder()
        for _ in self.rounds(seconds):
            sums: Dict[str, float] = {}
            untraced = traced = 0.0
            for k, item in enumerate(self.graphs):
                untraced += self.traverse(item).user
                recorder = layers.SpanRecorder()
                traced += self.traverse(item, recorder).user
                for name, value in layers.layer_values(recorder).items():
                    sums[name] = sums.get(name, 0) + value
                if k == 0:
                    sample = recorder
            sums["trace.overhead"] = traced / untraced - 1.0
            layers.add_shares(sums)
            for name, value in sums.items():
                values.setdefault(name, []).append(value)
        return {name: median(samples) for name, samples in values.items()}, sample


def peak_rss_reset() -> bool:
    """Reset the kernel's peak-RSS mark (``VmHWM``); False when not allowed."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset_worked: bool) -> Tuple[float, str]:
    """Peak resident set size since the reset, and where it was read."""
    if reset_worked:
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0, "VmHWM"
        except OSError:
            pass
    # ru_maxrss is in KiB on Linux and covers the whole process lifetime.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"


def measure(name: str, seed: int, seconds: float, trace: Optional[bool],
            scale: float, work_dir: str, trace_path: Optional[str]) -> Dict[str, Any]:
    """Set up, time and (optionally) trace one workload.

    ``trace`` is ``False`` for end-to-end metrics only, ``True`` for
    per-layer metrics only and ``None`` for both.
    """
    workload = WORKLOADS[name]
    nodes = max(WARMUP_NODES // 4, int(workload.nodes * scale))
    speed = HostSpeed()
    graphs, setups = set_up(workload, nodes, seed, work_dir, speed)
    setup_factor = speed.factor()
    run = Run(workload, graphs, speed)
    edges = sum(item.graph.edge_count for item in graphs)
    stored = sum(os.path.getsize(item.graph.edge_file.path) for item in graphs)
    gc.collect()
    reset_worked = peak_rss_reset()

    e2e: Dict[str, float] = {}
    layer: Dict[str, float] = {}
    details: Dict[str, Any] = {
        "nodes": nodes, "graphs": len(graphs), "edges": edges,
        "algorithm": workload.algorithm, "kernel": workload.kernel,
        "codec": workload.codec, "setup_samples": len(setups),
    }
    if trace is not True:
        timed = run.timed(seconds)
        peak, source = peak_rss_mb(reset_worked)
        e2e = {
            "setup_s": statistics.median(s.user for s in setups) * setup_factor,
            "run_s": timed["run_s"],
            "ios": sum(item.ios or 0 for item in graphs),
            "peak_rss_mb": peak,
            "disk_bytes_per_edge": stored / edges,
            "setup_wall_s": statistics.median(s.wall for s in setups),
            "run_wall_s": timed["run_wall_s"],
            "host_speed": timed["host_speed"],
        }
        details.update(rounds=run.timed_rounds, peak_rss_source=source)
    if trace is not False:
        layer, sample = run.traced(seconds)
        if trace_path is not None:
            sample.write_jsonl(trace_path)
    e2e["error_rate"] = run.failed / run.attempted
    return {
        "workload": name, "seed": seed,
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "errors": run.errors[:20],
        "e2e": e2e, "layers": layer, "absent": run.absent, "details": details,
        "versions": {
            "python": platform.python_version(),
            "numpy": _numpy_version(),
        },
    }


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    trace = {"0": False, "1": True, "both": None}[args.trace]
    os.makedirs(args.work_dir)
    try:
        result = measure(args.workload, args.seed, args.seconds, trace,
                         args.scale, args.work_dir, args.trace_file)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
