"""Edge-block codec benchmark: delta-varint vs fixed32, end to end.

For each algorithm on a power-law generator graph, runs the identical
workload under both codecs and reports the compression ratio (raw vs
stored edge bytes), the blocks one input scan reads, and the run's total
logical I/O.  Asserts the ISSUE gates: the DFS order is bit-identical
across codecs, and delta-varint cuts blocks-per-scan by >= 1.5x on the
id-ordered generator stream.  Results land in
``benchmarks/results/BENCH_codec_compression.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.bench import bench_scale
from repro.graph import power_law_graph_edges
from repro.storage import BLOCK_CODECS

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

ALGORITHMS = ("edge-by-batch", "divide-star", "divide-td")

#: Generator graphs emit edges in id order (each new node's edges arrive
#: together), exactly the locality delta coding exploits — the same
#: regime a sorted on-disk edge list would give a real deployment.
NODE_COUNT = max(2_000, int(50_000 * bench_scale() * 0.2))
DEGREE = 8
BLOCK_ELEMENTS = 1024


def build_disk(device: BlockDevice) -> DiskGraph:
    return DiskGraph.from_edges(
        device,
        NODE_COUNT,
        power_law_graph_edges(NODE_COUNT, DEGREE, seed=29),
        validate=False,
    )


def run_once(algorithm: str, codec: str) -> Tuple[List[int], Dict[str, object]]:
    with BlockDevice(
        block_elements=BLOCK_ELEMENTS, block_codec=codec
    ) as device:
        disk = build_disk(device)
        result = semi_external_dfs(
            disk, memory=3 * NODE_COUNT + 4 * BLOCK_ELEMENTS,
            algorithm=algorithm,
        )
        assert result.block_codec == codec
        return result.order, {
            "codec": codec,
            "blocks_per_scan": disk.edge_file.block_count,
            "edge_count": disk.edge_file.edge_count,
            "total_ios": result.io.total,
            "compression_ratio": round(result.compression_ratio, 3),
            "passes": result.passes,
        }


def test_codec_compression_trajectory(report_text):
    """Both codecs on every algorithm; persist BENCH_codec_compression.json."""
    results: Dict[str, object] = {
        "nodes": NODE_COUNT,
        "degree": DEGREE,
        "block_elements": BLOCK_ELEMENTS,
        "codecs": list(BLOCK_CODECS),
        "algorithms": {},
    }
    lines = [
        f"codec compression ({NODE_COUNT} nodes, degree {DEGREE}, "
        f"B={BLOCK_ELEMENTS} edges)"
    ]
    for algorithm in ALGORITHMS:
        per_codec = {}
        orders = {}
        for codec in BLOCK_CODECS:
            orders[codec], per_codec[codec] = run_once(algorithm, codec)
        # gate 1: the DFS order is codec-independent, bit for bit
        assert orders["fixed32"] == orders["delta-varint"], (
            f"{algorithm}: codecs produced different DFS orders"
        )
        fixed = per_codec["fixed32"]
        packed = per_codec["delta-varint"]
        # gate 2: >= 1.5x fewer blocks per scan on the id-ordered stream
        assert packed["blocks_per_scan"] * 3 <= fixed["blocks_per_scan"] * 2, (
            f"{algorithm}: delta-varint {packed['blocks_per_scan']} vs "
            f"fixed32 {fixed['blocks_per_scan']} blocks/scan (< 1.5x)"
        )
        assert packed["compression_ratio"] >= 1.5
        assert packed["total_ios"] < fixed["total_ios"]
        results["algorithms"][algorithm] = {
            codec: per_codec[codec] for codec in BLOCK_CODECS
        }
        lines.append(
            f"  {algorithm:>14s}: blocks/scan {fixed['blocks_per_scan']:>5d}"
            f" -> {packed['blocks_per_scan']:>5d}"
            f"  ios {fixed['total_ios']:>6d} -> {packed['total_ios']:>6d}"
            f"  ratio {packed['compression_ratio']:.2f}x"
        )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_codec_compression.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    report_text("codec_compression", "\n".join(lines))


@pytest.mark.parametrize("codec", BLOCK_CODECS)
def test_divide_td_under_codec(benchmark, codec):
    """pytest-benchmark smoke variant: one divide-td run per codec."""
    order = benchmark(lambda: run_once("divide-td", codec)[0])
    assert sorted(order) == list(range(NODE_COUNT))
