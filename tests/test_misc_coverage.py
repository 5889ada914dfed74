"""Small gap-filling tests for branches no other test exercises."""

import pytest

from repro import BlockDevice, DiskGraph
from repro.cli import main
from repro.core import SpanningTree
from repro.core.order import root_path
from repro.errors import InvalidGraphError
from repro.storage import edge_file_from_edges, sort_edge_file


class TestCLIGenerateRandom:
    def test_random_kind(self, tmp_path, capsys):
        path = str(tmp_path / "r.txt")
        assert main(["generate", "--kind", "random", "--nodes", "200",
                     "--degree", "3", "--output", path]) == 0
        assert "wrote 600 edges" in capsys.readouterr().out


class TestExternalSortBranches:
    def test_keep_runs(self, device):
        source = edge_file_from_edges(device, [(3, 0), (1, 0), (2, 0)])
        output = sort_edge_file(
            device, source, memory_edges=1, delete_runs=False
        )
        assert output.read_all() == [(1, 0), (2, 0), (3, 0)]

    def test_single_run_with_unique(self, device):
        source = edge_file_from_edges(device, [(1, 0), (1, 0), (2, 0)])
        output = sort_edge_file(device, source, memory_edges=100, unique=True)
        assert output.read_all() == [(1, 0), (2, 0)]


class TestOrderErrorBranches:
    def test_root_path_of_root(self):
        tree = SpanningTree()
        tree.add_node(0)
        tree.root = 0
        assert root_path(tree, 0) == [0]

    def test_root_path_unknown_node(self):
        tree = SpanningTree()
        tree.add_node(0)
        tree.root = 0
        with pytest.raises(InvalidGraphError, match="unknown"):
            root_path(tree, 5)

    def test_root_path_detached_node(self):
        tree = SpanningTree()
        tree.add_node(0)
        tree.root = 0
        tree.add_node(1)
        with pytest.raises(InvalidGraphError, match="detached"):
            root_path(tree, 1)


class TestDunderCoverage:
    def test_edge_file_len_and_repr(self, device):
        edge_file = edge_file_from_edges(device, [(0, 1), (1, 2)])
        assert len(edge_file) == 2
        assert "sealed" in repr(edge_file)
        edge_file.delete()
        assert "deleted" in repr(edge_file)

    def test_disk_graph_repr(self, device):
        graph = DiskGraph.from_edges(device, 3, [(0, 1)])
        assert "n=3" in repr(graph) and "m=1" in repr(graph)

    def test_tree_repr(self):
        tree = SpanningTree.initial_star([0, 1], 2)
        text = repr(tree)
        assert "nodes=3" in text and "root=2" in text

    def test_summary_graph_repr(self):
        from repro.algorithms import SummaryGraph

        sigma = SummaryGraph()
        sigma.add_node(1)
        sigma.add_node(2)
        sigma.add_edge(1, 2)
        assert "nodes=2" in repr(sigma) and "edges=1" in repr(sigma)

    def test_budget_repr(self):
        from repro import MemoryBudget

        budget = MemoryBudget(10)
        budget.charge("x", 4)
        assert "used=4" in repr(budget)

    def test_dataset_spec_edges_property(self):
        from repro.graph import wikilink_like

        spec = wikilink_like(scale=0.01)
        assert next(iter(spec.edges())) == next(iter(spec.edges()))
