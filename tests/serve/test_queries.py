"""Query engine vs. independent graph oracles — differential testing.

Every certain answer an artifact serves must equal what an oracle
computes from the raw graph: the toposort, cycle verdict and witness of
a written-out DFS plus back-edge scan, the SCC partition of the apps
layer, and networkx reachability.  Hypothesis drives random graphs
through publish → open → compare.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.apps import strongly_connected_components
from repro.errors import NotADAGError, QueryError
from repro.graph import random_graph
from repro.graph.digraph import Digraph
from repro.serve import ArtifactStore, QueryEngine, seal_result

from ..conftest import dfs_back_edge_scan
from .conftest import publish_graph


def publish_random(tmp_path, node_count, seed, sources=()):
    graph = random_graph(node_count, 2, seed=seed)
    device = BlockDevice(block_elements=16)
    store = ArtifactStore(str(tmp_path / "store"), block_elements=16)
    ref = publish_graph(store, device, graph, "g", sources=sources)
    return graph, device, store, store.open(str(ref))


def nx_digraph(graph):
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(graph.node_count))
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


class TestDifferentialOracle:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=30), st.integers(0, 99))
    def test_cycle_and_toposort_match_apps(self, tmp_path_factory,
                                           node_count, seed):
        tmp_path = tmp_path_factory.mktemp("diff")
        graph, device, store, artifact = publish_random(
            tmp_path, node_count, seed
        )
        try:
            memory = 3 * node_count + 64
            disk = DiskGraph.from_digraph(device, graph)
            oracle_cycle, oracle_topo = dfs_back_edge_scan(disk, memory)
            cyclic = not nx.is_directed_acyclic_graph(nx_digraph(graph))
            assert artifact.has_cycle() == cyclic == (oracle_cycle is not None)
            assert artifact.find_cycle() == oracle_cycle
            if oracle_cycle is None:
                assert artifact.toposort_slice() == oracle_topo
            else:
                with pytest.raises(NotADAGError):
                    artifact.toposort_slice()
        finally:
            store.close()
            device.close()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=25), st.integers(0, 99))
    def test_scc_partition_matches_apps(self, tmp_path_factory,
                                        node_count, seed):
        tmp_path = tmp_path_factory.mktemp("scc")
        graph, device, store, artifact = publish_random(
            tmp_path, node_count, seed
        )
        try:
            memory = 3 * node_count + 64
            disk = DiskGraph.from_digraph(device, graph)
            oracle = strongly_connected_components(disk, memory)
            # same partition: members share an id exactly when the oracle
            # puts them in the same component
            assert artifact.scc_count == len(oracle)
            for component in oracle:
                members = sorted(component)
                first = members[0]
                for node in members[1:]:
                    assert artifact.same_scc(first, node)
                assert artifact.scc_size(first) == len(component)
        finally:
            store.close()
            device.close()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=25), st.integers(0, 99))
    def test_pinned_reachability_matches_apps(self, tmp_path_factory,
                                              node_count, seed):
        tmp_path = tmp_path_factory.mktemp("reach")
        graph, device, store, artifact = publish_random(
            tmp_path, node_count, seed, sources=(0,)
        )
        try:
            oracle = {0} | nx.descendants(nx_digraph(graph), 0)
            assert set(artifact.reachable_set(0)) == oracle
            # the tri-state verdict, when certain, must agree
            for v in range(node_count):
                verdict, proof = artifact.reachable(0, v)
                assert verdict == (v in oracle)
                assert proof
        finally:
            store.close()
            device.close()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=25), st.integers(0, 99))
    def test_uncertain_verdicts_never_contradict(self, tmp_path_factory,
                                                 node_count, seed):
        """For arbitrary (u, v) pairs the verdict is True, False, or
        None — but never a wrong True/False."""
        tmp_path = tmp_path_factory.mktemp("tri")
        graph, device, store, artifact = publish_random(
            tmp_path, node_count, seed
        )
        try:
            nx_graph = nx_digraph(graph)
            for u in range(min(node_count, 6)):
                oracle = {u} | nx.descendants(nx_graph, u)
                for v in range(node_count):
                    verdict, _ = artifact.reachable(u, v)
                    if verdict is not None:
                        assert verdict == (v in oracle)
        finally:
            store.close()
            device.close()


class TestQueryEngine:
    def test_every_kind_executes(self, published):
        store, ref = published
        engine = QueryEngine(store.open(str(ref)))
        answers = {
            "order": engine.execute("order", {}),
            "position": engine.execute("position", {"node": "0"}),
            "ancestor": engine.execute("ancestor", {"u": "0", "v": "1"}),
            "path": engine.execute("path", {"u": "0", "v": "1"}),
            "cycle": engine.execute("cycle", {}),
            "scc": engine.execute("scc", {"node": "0"}),
            "reachable": engine.execute("reachable", {"u": "0", "v": "4"}),
            "reachable-set": engine.execute("reachable-set", {"source": "0"}),
        }
        for kind, answer in answers.items():
            assert answer["query"] == kind
            assert answer["artifact"] == "mixed@v1"
        assert answers["cycle"]["has_cycle"] is True
        assert answers["cycle"]["witness"] == [0, 1, 2]
        assert answers["reachable"] == {
            "query": "reachable", "artifact": "mixed@v1",
            "u": 0, "v": 4, "reachable": True, "certain": True,
            "proof": "pinned-source",
        }

    def test_toposort_on_cyclic_graph_is_conflict(self, published):
        store, ref = published
        engine = QueryEngine(store.open(str(ref)))
        with pytest.raises(QueryError) as exc:
            engine.execute("toposort", {})
        assert exc.value.code == "not-a-dag"

    def test_unknown_kind_rejected(self, published):
        store, ref = published
        engine = QueryEngine(store.open(str(ref)))
        with pytest.raises(QueryError) as exc:
            engine.execute("frobnicate", {})
        assert exc.value.code == "unknown-query"

    def test_bad_node_rejected(self, published):
        store, ref = published
        engine = QueryEngine(store.open(str(ref)))
        with pytest.raises(QueryError):
            engine.execute("position", {"node": "99"})
        with pytest.raises(QueryError):
            engine.execute("position", {"node": "zero"})
        with pytest.raises(QueryError):
            engine.execute("position", {})

    def test_slice_pagination(self, published):
        store, ref = published
        engine = QueryEngine(store.open(str(ref)))
        full = engine.execute("order", {})["nodes"]
        page = engine.execute("order", {"offset": "2", "limit": "3"})
        assert page["nodes"] == full[2:5]
        assert page["total"] == len(full)

    def test_unpinned_source_is_typed(self, published):
        store, ref = published
        engine = QueryEngine(store.open(str(ref)))
        with pytest.raises(QueryError) as exc:
            engine.execute("reachable-set", {"source": "6"})
        assert exc.value.code == "source-not-pinned"


class TestSealSemantics:
    def test_witness_matches_find_cycle_exactly(self, store, device):
        """Same scan order, same precedence: self-loop beats back edge."""
        graph = Digraph.from_edges(4, [(1, 2), (2, 1), (3, 3)])
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 4 + 64
        result = semi_external_dfs(disk, memory)
        artifact = seal_result(disk, result, memory=memory)
        assert artifact.find_cycle() == dfs_back_edge_scan(disk, memory)[0]

    def test_sealing_scc_without_memory_is_typed(self, store, device):
        graph = Digraph.from_edges(2, [(0, 1), (1, 0)])
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, 3 * 2 + 64)
        with pytest.raises(QueryError):
            seal_result(disk, result)  # cyclic, with_scc on, no memory
        # DAG needs no Kosaraju pass, so no memory either
        dag = DiskGraph.from_digraph(device, Digraph.from_edges(2, [(0, 1)]))
        sealed = seal_result(dag, semi_external_dfs(dag, 3 * 2 + 64))
        assert sealed.scc_count == 2
