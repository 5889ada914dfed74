"""Tests for the top-level facade."""

import os
import subprocess
import sys

import pytest

import repro
from repro import DiskGraph, RunOptions, semi_external_dfs
from repro.api import ALIASES, SLOW_ALGORITHM, algorithm_names
from repro.graph import random_graph

from .conftest import assert_valid_dfs_result


class TestFacade:
    def test_algorithm_registry_names(self):
        assert set(repro.ALGORITHMS) == {
            "edge-by-edge",
            "edge-by-batch",
            "divide-star",
            "divide-td",
            "bfs",
        }
        assert algorithm_names() == sorted([*repro.ALGORITHMS, *ALIASES])
        assert SLOW_ALGORITHM == "edge-by-edge"

    def test_semi_dfs_aliases_edge_by_batch(self):
        assert ALIASES["semi-dfs"] == "edge-by-batch"

    def test_semi_bfs_aliases_bfs(self):
        assert ALIASES["semi-bfs"] == "bfs"

    @pytest.mark.parametrize("name", algorithm_names())
    def test_every_registered_algorithm_runs(self, device, name):
        graph = random_graph(60, 3, seed=1)
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, memory=3 * 60 + 100, algorithm=name)
        if name in ("bfs", "semi-bfs"):
            # BFS trees legitimately contain forward-cross edges; the
            # DFS validity oracle does not apply.  Check the neutral
            # contract: a permutation order and a level for node 0.
            assert sorted(result.order) == list(range(60))
            assert result.levels[0] == 0
        else:
            assert_valid_dfs_result(result, disk, graph)

    def test_unknown_algorithm_rejected(self, device):
        graph = random_graph(10, 2, seed=2)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ValueError, match="unknown algorithm"):
            semi_external_dfs(disk, memory=100, algorithm="ifs")

    def test_options_forwarded(self, device):
        graph = random_graph(40, 3, seed=3)
        disk = DiskGraph.from_digraph(device, graph)
        order = list(reversed(range(40)))
        result = semi_external_dfs(
            disk, memory=3 * 40 + 80, algorithm="edge-by-batch",
            options=RunOptions(order=order),
        )
        assert result.order[0] == order[0]

    def test_result_metadata(self, device):
        graph = random_graph(50, 3, seed=4)
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, memory=3 * 50 + 90, algorithm="divide-td")
        assert result.algorithm == "divide-td"
        assert result.elapsed_seconds > 0
        assert result.io.total > 0
        position = result.position_of()
        assert position[result.order[0]] == 0
        assert result.virtual_root == result.tree.root

    def test_version_exported(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_docstring_shape(self, device):
        """The README/docstring quickstart must actually work."""
        graph = DiskGraph.from_digraph(device, random_graph(1000, 5, seed=1))
        result = semi_external_dfs(graph, memory=4000, algorithm="divide-td")
        assert len(result.order) == 1000


def test_import_loads_no_serving_stack():
    # Compared against the child's own start, so a site hook that preloads
    # ssl does not count; a run without checkpoints needs none of these.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.api\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    paths = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    added = set(child.stdout.split())
    assert "repro.api" in added
    assert not added & {"repro.serve", "http.server", "_ssl", "_hashlib"}
