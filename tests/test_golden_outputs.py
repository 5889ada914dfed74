"""Golden outputs: orders and I/O counts pinned to recorded values.

The differential suites compare kernels, codecs and block sizes against
each other within one tree of the code, so a change that moves all of
them the same way passes there.  This file pins the values themselves:
for every DFS algorithm, kernel, generator and seed, a digest of the
visit order plus the exact read and write counts; for BFS the order, the
levels and the reads (its writes are the sealed tree artifact, whose
layout is a storage detail, not a traversal output).

Every cell runs on a 150-node graph with ``block_codec="fixed32"`` and
32-element blocks.  A deliberate change to a traversal or to its I/O
must update the table in the same change and say why.
"""

import hashlib
import json

import pytest

from repro import semi_external_bfs, semi_external_dfs
from repro.graph import power_law_graph, random_graph
from repro.kernels import numpy_available

from .conftest import disk_graph_of

NODES = 150
DEGREE = 4
MEMORY = 3 * NODES + 200
SEEDS = (1, 2, 3)

GENERATORS = {
    "random": lambda seed: random_graph(NODES, DEGREE, seed=seed),
    "power-law": lambda seed: power_law_graph(NODES, DEGREE, seed=seed),
}

KERNELS = [
    pytest.param("python"),
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy backend unavailable")),
]

#: (algorithm, kernel, generator, seed) -> (order digest, reads, writes)
DFS_GOLDEN = {
    ("edge-by-edge", "python", "power-law", 1): ("fe832fab99ba0a9b", 171, 0),
    ("edge-by-edge", "python", "power-law", 2): ("f792fd0635392278", 133, 0),
    ("edge-by-edge", "python", "power-law", 3): ("e771cd05345ddd2a", 171, 0),
    ("edge-by-edge", "python", "random", 1): ("144ad2b587090fdd", 304, 0),
    ("edge-by-edge", "python", "random", 2): ("aa1b115c50d6c13c", 437, 0),
    ("edge-by-edge", "python", "random", 3): ("83aef06034a1f071", 342, 0),
    ("edge-by-edge", "numpy", "power-law", 1): ("fe832fab99ba0a9b", 171, 0),
    ("edge-by-edge", "numpy", "power-law", 2): ("f792fd0635392278", 133, 0),
    ("edge-by-edge", "numpy", "power-law", 3): ("e771cd05345ddd2a", 171, 0),
    ("edge-by-edge", "numpy", "random", 1): ("144ad2b587090fdd", 304, 0),
    ("edge-by-edge", "numpy", "random", 2): ("aa1b115c50d6c13c", 437, 0),
    ("edge-by-edge", "numpy", "random", 3): ("83aef06034a1f071", 342, 0),
    ("edge-by-batch", "python", "power-law", 1): ("efd83c029f7b4af7", 152, 0),
    ("edge-by-batch", "python", "power-law", 2): ("ebdf211489887297", 133, 0),
    ("edge-by-batch", "python", "power-law", 3): ("1d17d75681125d72", 76, 0),
    ("edge-by-batch", "python", "random", 1): ("97b7c4d7e5abb2ef", 191, 20),
    ("edge-by-batch", "python", "random", 2): ("fcba1ec4436cc47e", 266, 38),
    ("edge-by-batch", "python", "random", 3): ("8f3bc9e2a239d09b", 276, 29),
    ("edge-by-batch", "numpy", "power-law", 1): ("efd83c029f7b4af7", 152, 0),
    ("edge-by-batch", "numpy", "power-law", 2): ("ebdf211489887297", 133, 0),
    ("edge-by-batch", "numpy", "power-law", 3): ("1d17d75681125d72", 76, 0),
    ("edge-by-batch", "numpy", "random", 1): ("97b7c4d7e5abb2ef", 191, 20),
    ("edge-by-batch", "numpy", "random", 2): ("fcba1ec4436cc47e", 266, 38),
    ("edge-by-batch", "numpy", "random", 3): ("8f3bc9e2a239d09b", 276, 29),
    ("divide-star", "python", "power-law", 1): ("b3768ae1888b115e", 75, 18),
    ("divide-star", "python", "power-law", 2): ("0cd9627e33d94e66", 73, 16),
    ("divide-star", "python", "power-law", 3): ("a27839e4388d82ed", 73, 16),
    ("divide-star", "python", "random", 1): ("48e05ee50227af6b", 224, 34),
    ("divide-star", "python", "random", 2): ("a105daa87f8ad6c7", 128, 33),
    ("divide-star", "python", "random", 3): ("050b92d3eb7ad370", 225, 35),
    ("divide-star", "numpy", "power-law", 1): ("b3768ae1888b115e", 75, 18),
    ("divide-star", "numpy", "power-law", 2): ("0cd9627e33d94e66", 73, 16),
    ("divide-star", "numpy", "power-law", 3): ("a27839e4388d82ed", 73, 16),
    ("divide-star", "numpy", "random", 1): ("48e05ee50227af6b", 224, 34),
    ("divide-star", "numpy", "random", 2): ("a105daa87f8ad6c7", 128, 33),
    ("divide-star", "numpy", "random", 3): ("050b92d3eb7ad370", 225, 35),
    ("divide-td", "python", "power-law", 1): ("b3768ae1888b115e", 75, 18),
    ("divide-td", "python", "power-law", 2): ("0cd9627e33d94e66", 73, 16),
    ("divide-td", "python", "power-law", 3): ("a27839e4388d82ed", 73, 16),
    ("divide-td", "python", "random", 1): ("b08e81633a29fcea", 224, 34),
    ("divide-td", "python", "random", 2): ("8493d71a125dcf5b", 128, 33),
    ("divide-td", "python", "random", 3): ("c83f9ad47030ca47", 225, 35),
    ("divide-td", "numpy", "power-law", 1): ("b3768ae1888b115e", 75, 18),
    ("divide-td", "numpy", "power-law", 2): ("0cd9627e33d94e66", 73, 16),
    ("divide-td", "numpy", "power-law", 3): ("a27839e4388d82ed", 73, 16),
    ("divide-td", "numpy", "random", 1): ("b08e81633a29fcea", 224, 34),
    ("divide-td", "numpy", "random", 2): ("8493d71a125dcf5b", 128, 33),
    ("divide-td", "numpy", "random", 3): ("c83f9ad47030ca47", 225, 35),
}

#: (kernel, generator, seed) -> (order digest, levels digest, reads)
BFS_GOLDEN = {
    ("python", "power-law", 1): ("2f1193bcd046aed5", "13cc604bcb80b9af", 152),
    ("python", "power-law", 2): ("732fde7affaf1621", "a9416dd757ee6d3a", 171),
    ("python", "power-law", 3): ("4f2254832853a863", "cab86539066b9dfa", 190),
    ("python", "random", 1): ("1bcc78faea7b6809", "116c7154674f1d90", 133),
    ("python", "random", 2): ("80c167135c398e22", "790f74ea2b0899ae", 114),
    ("python", "random", 3): ("3351fc80f3d85043", "fea8420fcca9f965", 133),
    ("numpy", "power-law", 1): ("2f1193bcd046aed5", "13cc604bcb80b9af", 152),
    ("numpy", "power-law", 2): ("732fde7affaf1621", "a9416dd757ee6d3a", 171),
    ("numpy", "power-law", 3): ("4f2254832853a863", "cab86539066b9dfa", 190),
    ("numpy", "random", 1): ("1bcc78faea7b6809", "116c7154674f1d90", 133),
    ("numpy", "random", 2): ("80c167135c398e22", "790f74ea2b0899ae", 114),
    ("numpy", "random", 3): ("3351fc80f3d85043", "fea8420fcca9f965", 133),
}


def digest(values) -> str:
    """A short, stable digest of an int sequence (``None`` allowed)."""
    text = json.dumps(list(values), separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def run_cell(device_factory, kernel, generator, seed, run):
    device = device_factory(32, kernel=kernel, block_codec="fixed32")
    disk = disk_graph_of(device, GENERATORS[generator](seed))
    return run(disk)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "algorithm", ["edge-by-edge", "edge-by-batch", "divide-star", "divide-td"]
)
def test_dfs_order_and_io_match_the_recorded_values(
    device_factory, algorithm, kernel, generator, seed
):
    result = run_cell(
        device_factory, kernel, generator, seed,
        lambda disk: semi_external_dfs(disk, MEMORY, algorithm=algorithm),
    )
    observed = (digest(result.order), result.io.reads, result.io.writes)
    assert observed == DFS_GOLDEN[(algorithm, kernel, generator, seed)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_bfs_order_levels_and_reads_match_the_recorded_values(
    device_factory, kernel, generator, seed
):
    result = run_cell(
        device_factory, kernel, generator, seed,
        lambda disk: semi_external_bfs(disk, MEMORY),
    )
    observed = (digest(result.order), digest(result.levels), result.io.reads)
    assert observed == BFS_GOLDEN[(kernel, generator, seed)]
