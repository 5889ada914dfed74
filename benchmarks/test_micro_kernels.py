"""Kernel-layer micro-benchmarks: pure-Python vs vectorized hot operations.

Times the three per-edge operations the restructure loop lives in —
classify, pack, unpack — on a single large edge block (1M edges by
default; override with ``REPRO_MICRO_KERNEL_EDGES``), the division-scan
ops, the delta-varint decode of the same edges in 64 KB blocks, the
numpy decode of small 512-byte blocks one call per block versus one call
per BFS edge group, and the numpy classify of the same edges in 64-edge
blocks one call per block versus one call per restructure group, and
emits the measured trajectory into
``benchmarks/results/BENCH_micro_kernels.json``.

Run directly (``pytest benchmarks/test_micro_kernels.py``) for the
speedup comparison + JSON artifact; the ``benchmark``-fixture variants
below integrate with ``pytest benchmarks/ --benchmark-only`` runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from functools import cached_property
from typing import Callable, Dict, List, Sequence

import pytest

from repro.algorithms import star_cut
from repro.core.classify import CutLabels
from repro.core.tree import SpanningTree
from repro.graph import random_graph_edges
from repro.kernels import available_backends, numpy_available, resolve_kernel
from repro.storage.serialization import (
    DeltaVarintBlockEncoder,
    classify_edge_block,
    decode_varint_columns,
    pack_edges,
    unpack_edges,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Edges in the measured block.  The acceptance target (vectorized
#: classify >= 3x pure Python) is asserted at any size; 1M is the
#: documented reference configuration.
BLOCK_EDGES = int(os.environ.get("REPRO_MICRO_KERNEL_EDGES", "1000000"))

#: Smaller block for the pytest-benchmark fixture variants (smoke runs).
SMOKE_EDGES = 50_000

#: Byte budget of the delta-varint blocks: the paper's 64 KB disk block.
VARINT_BLOCK_BYTES = 64 * 1024

#: The ``bfs-varint`` regime: 512-byte delta-varint blocks of a random
#: graph over 4,000 nodes (about 127 edges each), decoded one kernel call
#: per block or one per group of at most 3,600 edges, the way a BFS scan
#: with that much free memory groups them.
SMALL_BODY_BYTES = 512
SMALL_BODY_GRAPH = (4_000, 25)
GROUP_EDGES = 3_600

#: The ``batch-random`` regime: 64-edge blocks classified against one
#: index, one numpy call per block or one per group of at most 360 edges
#: (that workload's ``M − 3n``), the way restructure's scan groups them
#: when a batch has that much room left.
SMALL_BLOCK_EDGES = 64
CLASSIFY_GROUP_EDGES = 360


class _ChainForestWorkload:
    """A mid-run-shaped workload: deep chains under γ, rare cross edges.

    The restructure hot loop spends its life on nearly-converged trees
    where almost every edge is ancestor-related (forward/backward) and
    only a few percent are cross edges.  Sixteen chains under the virtual
    root reproduce that profile deterministically: intra-chain pairs are
    always ancestor-related, inter-chain pairs are always cross (~5%).
    """

    CHAINS = 16
    CROSS_RATE = 0.05

    def __init__(self, edge_count: int) -> None:
        self.node_count = max(256, edge_count // 8)
        n, k = self.node_count, self.CHAINS
        gamma = n
        parent = {gamma: None}
        children = {gamma: list(range(k))}
        for node in range(n):
            parent[node] = node - k if node >= k else gamma
            if node + k < n:
                children[node] = [node + k]
        self.tree = SpanningTree.from_structure(gamma, parent, children, {gamma})

        rng = random.Random(7)
        edges = []
        for _ in range(edge_count):
            u = rng.randrange(n)
            if rng.random() < self.CROSS_RATE:
                v = rng.randrange(n)  # usually a different chain: cross
            else:  # same chain: ancestor-related, never cross
                length = (n - 1 - u % k) // k + 1
                v = u % k + k * rng.randrange(length)
            edges.append((u, v))
        self.edges = edges
        self.data = pack_edges(edges)

    @cached_property
    def varint_bodies(self) -> List[bytes]:
        """The edges as tag-stripped delta-varint bodies, 64 KB blocks."""
        encoder = DeltaVarintBlockEncoder(VARINT_BLOCK_BYTES)
        closed = [encoder.add(u, v) for u, v in self.edges] + [encoder.flush()]
        return [
            classify_edge_block(payload)[1]
            for payload, _count in filter(None, closed)
        ]


_workloads: Dict[int, _ChainForestWorkload] = {}


def workload(edge_count: int) -> _ChainForestWorkload:
    if edge_count not in _workloads:
        _workloads[edge_count] = _ChainForestWorkload(edge_count)
    return _workloads[edge_count]


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def kernel_ops(backend: str, load: _ChainForestWorkload):
    """(classify, pack, unpack) closures for one backend on one workload."""
    kernel = resolve_kernel(backend)
    u_col, v_col = kernel.unpack_edge_columns(load.data)
    index = kernel.make_index(load.tree)
    assert index is not None
    no_limit = 2 * len(load.edges) + 1

    def classify():
        return kernel.classify_slice(index, u_col, v_col, 0, no_limit)

    def pack():
        return kernel.pack_edge_columns(u_col, v_col)

    def unpack():
        return kernel.unpack_edge_columns(load.data)

    return classify, pack, unpack


def division_ops(backend: str, load: _ChainForestWorkload):
    """(collect_pairs, route) closures — the division-scan hot ops."""
    kernel = resolve_kernel(backend)
    u_col, v_col = kernel.unpack_edge_columns(load.data)
    # the Divide-Star cut: γ plus the chain heads, one label per chain
    cut_nodes, _ = star_cut(load.tree)
    cut_index = kernel.make_cut_index(CutLabels(load.tree, cut_nodes))
    assert cut_index is not None
    # one part per chain: the shape a real division's owner map has
    owner = {
        node: node % _ChainForestWorkload.CHAINS + 1
        for node in range(load.node_count)
    }
    owner_index = kernel.make_owner_index(owner)
    assert owner_index is not None

    def collect_pairs():
        pairs = set()
        kernel.collect_cut_pairs(cut_index, u_col, v_col, pairs)
        return pairs

    def route():
        return kernel.route_edges(owner_index, u_col, v_col)

    return collect_pairs, route


def varint_op(backend: str, load: _ChainForestWorkload):
    """Decode every delta-varint block as ``EdgeFile.scan_columns`` does:
    the kernel op, else the scalar decoder plus ``make_columns`` (always,
    on the python backend)."""
    kernel = resolve_kernel(backend)
    bodies = load.varint_bodies

    def unpack_varint():
        blocks = []
        for body in bodies:
            columns = kernel.unpack_varint_columns([body])
            if columns is None:
                columns = kernel.make_columns(*decode_varint_columns(body))
            blocks.append(columns)
        return blocks

    return unpack_varint


def small_body_groups() -> List[List[bytes]]:
    """512-byte delta-varint bodies grouped as ``scan_columns`` groups
    them under a room of ``GROUP_EDGES``: consecutive whole bodies."""
    encoder = DeltaVarintBlockEncoder(SMALL_BODY_BYTES)
    closed = [
        encoder.add(u, v) for u, v in random_graph_edges(*SMALL_BODY_GRAPH)
    ] + [encoder.flush()]
    groups: List[List[bytes]] = []
    loaded = GROUP_EDGES
    for payload, count in filter(None, closed):
        if loaded + count > GROUP_EDGES:
            groups.append([])
            loaded = 0
        groups[-1].append(classify_edge_block(payload)[1])
        loaded += count
    return groups


def varint_group_op(groups: Sequence[Sequence[bytes]]) -> Callable[[], int]:
    """Decode every group with one numpy ``unpack_varint_columns`` call."""
    kernel = resolve_kernel("numpy")

    def unpack_groups():
        edges = 0
        for group in groups:
            columns = kernel.unpack_varint_columns(group)
            assert columns is not None
            edges += len(columns[0])
        return edges

    return unpack_groups


def classify_group_op(
    load: _ChainForestWorkload, group_edges: int
) -> Callable[[], int]:
    """Classify the workload's 64-edge blocks against one index with one
    numpy ``classify_slice`` per group of whole blocks holding at most
    ``group_edges`` edges (at least one block)."""
    kernel = resolve_kernel("numpy")
    index = kernel.make_index(load.tree)
    span = max(group_edges // SMALL_BLOCK_EDGES, 1) * SMALL_BLOCK_EDGES
    columns = [
        kernel.unpack_edge_columns(load.data[first * 8 : (first + span) * 8])
        for first in range(0, len(load.edges), span)
    ]
    no_limit = 2 * len(load.edges) + 1

    def classify_groups():
        counted = 0
        for u_col, v_col in columns:
            counted += kernel.classify_slice(index, u_col, v_col, 0, no_limit)[1]
        return counted

    return classify_groups


def test_kernel_speedup_trajectory(report_text):
    """Measure python vs numpy kernels, persist BENCH_micro_kernels.json."""
    load = workload(BLOCK_EDGES)
    results = {
        "edges": len(load.edges),
        "nodes": load.node_count,
        "varint_blocks": len(load.varint_bodies),
        "backends": list(available_backends()),
        "operations": {},
    }
    timings: Dict[str, Dict[str, float]] = {}
    for backend in available_backends():
        classify, pack, unpack = kernel_ops(backend, load)
        collect_pairs, route = division_ops(backend, load)
        timings[backend] = {
            "classify_s": best_of(classify),
            "pack_s": best_of(pack),
            "unpack_s": best_of(unpack),
            "collect_pairs_s": best_of(collect_pairs),
            "route_s": best_of(route),
            "unpack_varint_s": best_of(varint_op(backend, load)),
        }
    # reference: the row-at-a-time struct codec the columns replace
    timings["rows"] = {
        "pack_s": best_of(lambda: pack_edges(load.edges)),
        "unpack_s": best_of(lambda: unpack_edges(load.data)),
    }
    operations = (
        "classify", "pack", "unpack", "collect_pairs", "route", "unpack_varint"
    )
    for operation in operations:
        entry: Dict[str, float] = {}
        for backend, values in timings.items():
            if f"{operation}_s" in values:
                entry[backend] = values[f"{operation}_s"]
        if "numpy" in entry:
            entry["speedup"] = entry["python"] / entry["numpy"]
        results["operations"][operation] = entry

    if numpy_available():
        groups = small_body_groups()
        per_body = [[body] for group in groups for body in group]
        grouped_s = best_of(varint_group_op(groups), repeats=5)
        per_body_s = best_of(varint_group_op(per_body), repeats=5)
        results["small_varint_groups"] = {
            "bodies": len(per_body),
            "groups": len(groups),
            "per_body_s": per_body_s,
            "grouped_s": grouped_s,
            "speedup": per_body_s / grouped_s,
        }
        per_block = classify_group_op(load, SMALL_BLOCK_EDGES)
        grouped = classify_group_op(load, CLASSIFY_GROUP_EDGES)
        assert per_block() == grouped()
        per_block_s = best_of(per_block, repeats=5)
        grouped_s = best_of(grouped, repeats=5)
        results["small_classify_groups"] = {
            "blocks": -(-len(load.edges) // SMALL_BLOCK_EDGES),
            "group_edges": CLASSIFY_GROUP_EDGES,
            "per_block_s": per_block_s,
            "grouped_s": grouped_s,
            "speedup": per_block_s / grouped_s,
        }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_micro_kernels.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    lines = [
        f"kernel micro-benchmarks ({len(load.edges)} edges / block; "
        f"unpack_varint: the same edges in {len(load.varint_bodies)} "
        f"delta-varint blocks of {VARINT_BLOCK_BYTES // 1024} KB)"
    ]
    for operation, entry in results["operations"].items():
        cells = "  ".join(
            f"{backend}={entry[backend] * 1e3:9.2f}ms"
            for backend in ("python", "numpy", "rows")
            if backend in entry
        )
        speedup = (
            f"  speedup={entry['speedup']:.1f}x" if "speedup" in entry else ""
        )
        lines.append(f"  {operation:>13s}: {cells}{speedup}")
    small = results.get("small_varint_groups")
    if small:
        lines.append(
            f"  numpy unpack_varint, {small['bodies']} bodies of "
            f"{SMALL_BODY_BYTES} B: per body "
            f"{small['per_body_s'] / small['bodies'] * 1e6:.1f}us, in "
            f"{small['groups']} groups of <= {GROUP_EDGES} edges "
            f"{small['grouped_s'] / small['bodies'] * 1e6:.1f}us "
            f"({small['speedup']:.1f}x)"
        )
    blocks = results.get("small_classify_groups")
    if blocks:
        lines.append(
            f"  numpy classify, {blocks['blocks']} blocks of "
            f"{SMALL_BLOCK_EDGES} edges: per block "
            f"{blocks['per_block_s'] / blocks['blocks'] * 1e6:.1f}us, in "
            f"groups of <= {CLASSIFY_GROUP_EDGES} edges "
            f"{blocks['grouped_s'] / blocks['blocks'] * 1e6:.1f}us a block "
            f"({blocks['speedup']:.1f}x)"
        )
    report_text("micro_kernels", "\n".join(lines))

    if numpy_available():
        for operation in ("classify", "unpack_varint"):
            entry = results["operations"][operation]
            assert entry["speedup"] >= 3.0, (
                f"vectorized {operation} only {entry['speedup']:.2f}x faster "
                f"({entry['python']:.4f}s vs {entry['numpy']:.4f}s)"
            )
        small = results["small_varint_groups"]
        assert small["speedup"] >= 1.5, (
            f"grouped small-body decode only {small['speedup']:.2f}x faster "
            f"({small['per_body_s']:.4f}s vs {small['grouped_s']:.4f}s)"
        )
        blocks = results["small_classify_groups"]
        assert blocks["speedup"] >= 1.5, (
            f"grouped small-block classify only {blocks['speedup']:.2f}x "
            f"faster ({blocks['per_block_s']:.4f}s vs "
            f"{blocks['grouped_s']:.4f}s)"
        )


@pytest.mark.parametrize("backend", available_backends())
def test_classify_block(benchmark, backend):
    classify, _, _ = kernel_ops(backend, workload(SMOKE_EDGES))
    stop, counted, _, _ = benchmark(classify)
    assert stop == SMOKE_EDGES
    assert counted > 0


@pytest.mark.parametrize("backend", available_backends())
def test_pack_columns(benchmark, backend):
    load = workload(SMOKE_EDGES)
    _, pack, _ = kernel_ops(backend, load)
    assert benchmark(pack) == load.data


@pytest.mark.parametrize("backend", available_backends())
def test_unpack_columns(benchmark, backend):
    load = workload(SMOKE_EDGES)
    _, _, unpack = kernel_ops(backend, load)
    u_col, _ = benchmark(unpack)
    assert len(u_col) == SMOKE_EDGES


@pytest.mark.parametrize("backend", available_backends())
def test_collect_cut_pairs(benchmark, backend):
    collect_pairs, _ = division_ops(backend, workload(SMOKE_EDGES))
    pairs = benchmark(collect_pairs)
    # every ordered pair of distinct chains, at ~5% cross edges per block
    chains = _ChainForestWorkload.CHAINS
    assert len(pairs) == chains * (chains - 1)


@pytest.mark.parametrize("backend", available_backends())
def test_route_edges(benchmark, backend):
    _, route = division_ops(backend, workload(SMOKE_EDGES))
    routed = benchmark(route)
    # cross-chain edges (~5%) straddle parts and are dropped by routing
    kept = sum(len(u_col) for _, u_col, _ in routed)
    assert SMOKE_EDGES // 2 < kept < SMOKE_EDGES


@pytest.mark.parametrize("backend", available_backends())
def test_unpack_varint_columns(benchmark, backend):
    load = workload(SMOKE_EDGES)
    blocks = benchmark(varint_op(backend, load))
    assert sum(len(u_col) for u_col, _ in blocks) == SMOKE_EDGES
