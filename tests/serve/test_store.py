"""ArtifactStore: round-trips, versioning, and integrity checking."""

from __future__ import annotations

import json
import os

import pytest

from repro import DiskGraph, semi_external_bfs, semi_external_dfs
from repro.algorithms import edge_by_batch
from repro.errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactNotFound,
)
from repro.graph import random_graph
from repro.graph.digraph import Digraph
from repro.serve import SCHEMA_VERSION, ArtifactStore, parse_ref
from repro.serve.store import MANIFEST_FILE

from .conftest import publish_graph


class TestParseRef:
    def test_bare_name(self):
        assert parse_ref("web") == ("web", None)

    def test_versioned(self):
        assert parse_ref("web@v3") == ("web", 3)

    def test_versioned_without_v(self):
        assert parse_ref("web@3") == ("web", 3)

    def test_bad_version_rejected(self):
        with pytest.raises(ArtifactError):
            parse_ref("web@latest")

    def test_bad_name_rejected(self):
        with pytest.raises(ArtifactError):
            parse_ref("../escape")


class TestRoundTrip:
    def test_everything_survives_reopen(self, published):
        store, ref = published
        artifact = store.open(str(ref))
        assert artifact.node_count == 7
        assert artifact.is_dag is False
        assert artifact.cycle_witness == [0, 1, 2]
        assert artifact.manifest["schema"] == SCHEMA_VERSION
        assert artifact.manifest["name"] == "mixed"
        assert artifact.manifest["version"] == 1
        # order column round-trips exactly
        assert len(artifact.order_slice()) == 7
        assert sorted(artifact.order_slice()) == list(range(7))
        # pinned reachability columns survive
        assert artifact.reachable_set(0) == [0, 1, 2, 3, 4]
        assert artifact.reachable_set(3) == [3, 4]
        # scc columns survive: the 3-cycle is one component
        assert artifact.same_scc(0, 2)
        assert not artifact.same_scc(0, 3)
        assert artifact.in_cycle(5)  # the self-loop
        assert not artifact.in_cycle(6)

    def test_open_by_bare_name_gets_latest(self, published):
        store, ref = published
        assert store.open("mixed").manifest["version"] == ref.version

    def test_columns_equal_after_reopen(self, store, device):
        graph = random_graph(40, 3, seed=11)
        ref = publish_graph(store, device, graph, "rand")
        a = store.open(str(ref))
        b = store.open(str(ref))
        assert a.order_slice() == b.order_slice()
        assert a.manifest == b.manifest

    def test_describe_lists_columns(self, published):
        store, ref = published
        info = store.open(str(ref)).describe()
        assert info["ref"] == "mixed@v1"
        assert "order" in info["columns"]
        assert "scc" in info["columns"]


class TestVersioning:
    def test_republish_bumps_version(self, store, device):
        graph = Digraph.from_edges(3, [(0, 1), (1, 2)])
        first = publish_graph(store, device, graph, "g")
        second = publish_graph(store, device, graph, "g")
        assert (first.version, second.version) == (1, 2)
        assert store.versions("g") == [1, 2]
        assert store.latest_version("g") == 2
        # both versions stay openable — published versions are immutable
        assert store.open("g@v1").manifest["version"] == 1
        assert store.open("g@v2").manifest["version"] == 2

    def test_names_catalogue(self, store, device):
        graph = Digraph.from_edges(2, [(0, 1)])
        publish_graph(store, device, graph, "beta")
        publish_graph(store, device, graph, "alpha")
        assert store.names() == ["alpha", "beta"]

    def test_unknown_name_raises_not_found(self, store):
        with pytest.raises(ArtifactNotFound):
            store.open("nothing-here")

    def test_unknown_version_raises_not_found(self, published):
        store, _ = published
        with pytest.raises(ArtifactNotFound):
            store.open("mixed@v99")

    def test_invalid_publish_name_rejected(self, store, device):
        graph = Digraph.from_edges(2, [(0, 1)])
        with pytest.raises(ArtifactError):
            publish_graph(store, device, graph, ".hidden")


class TestIntegrity:
    def _manifest_path(self, ref) -> str:
        return os.path.join(ref.path, MANIFEST_FILE)

    def test_corrupt_manifest_json(self, published):
        store, ref = published
        with open(self._manifest_path(ref), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(ArtifactIntegrityError):
            store.open(str(ref))

    def test_wrong_schema_version(self, published):
        store, ref = published
        path = self._manifest_path(ref)
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["schema"] = SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactIntegrityError):
            store.open(str(ref))

    def test_payload_checksum_mismatch(self, published):
        """Swapping a payload for a valid-but-different one is caught by
        the manifest sha even though every block frame still CRCs."""
        store, ref = published
        order = os.path.join(ref.path, "order.col")
        pre = os.path.join(ref.path, "pre.col")
        os.replace(pre, order)
        with pytest.raises(ArtifactIntegrityError):
            store.open(str(ref))

    def test_missing_payload_file(self, published):
        store, ref = published
        os.remove(os.path.join(ref.path, "order.col"))
        with pytest.raises(ArtifactIntegrityError):
            store.open(str(ref))

    def test_truncated_tree_payload(self, published):
        store, ref = published
        path = os.path.join(ref.path, "parent.col")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(Exception):  # CorruptBlockError or integrity
            store.open(str(ref))


class TestTreeOnlyArtifacts:
    def test_publish_tree_round_trip(self, store, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, 3 * 4 + 64)
        ref = store.publish_tree(
            result.tree, "ckpt", kind="checkpoint", algorithm="divide-td",
            node_count=4, details={"passes": result.passes},
        )
        artifact = store.open(str(ref))
        assert artifact.kind == "checkpoint"
        assert artifact.is_dag is None
        assert artifact.tree.root == result.tree.root
        assert sorted(os.listdir(ref.path)) == [
            MANIFEST_FILE, "parent.col", "pre.col",
        ]
        assert "tree" not in artifact.manifest

    def test_querying_missing_column_is_typed(self, store, device):
        from repro.errors import QueryError

        graph = Digraph.from_edges(2, [(0, 1)])
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, 3 * 2 + 64)
        ref = store.publish_tree(result.tree, "bare", node_count=2)
        artifact = store.open(str(ref))
        with pytest.raises(QueryError):
            artifact.order_slice()
        with pytest.raises(QueryError):
            artifact.scc_of(0)


class TestTreeFromColumns:
    """``open`` rebuilds a run's tree from the ``parent``/``pre`` columns."""

    @staticmethod
    def assert_same_tree(loaded, tree):
        assert loaded.root == tree.root
        assert loaded.virtual == tree.virtual
        assert loaded.parent == tree.parent
        for node in tree.preorder():
            assert loaded.child_list(node) == tree.child_list(node)

    def test_dfs_result(self, store, device):
        disk = DiskGraph.from_digraph(device, random_graph(60, 4, seed=3))
        memory = 3 * 60 + 64
        result = semi_external_dfs(disk, memory)
        ref = store.publish_result(disk, result, "dfs", memory=memory)
        self.assert_same_tree(store.open(str(ref)).tree, result.tree)

    def test_bfs_result(self, device):
        # average degree 1: several nodes stay unreached under γ
        disk = DiskGraph.from_digraph(device, random_graph(60, 1, seed=4))
        result = semi_external_bfs(disk, 3 * 60 + 64)
        assert result.reached_count < 60
        artifact = ArtifactStore.for_run(device).open("bfs-tree")
        self.assert_same_tree(artifact.tree, result.tree)

    def test_edge_by_batch_checkpoint(self, device):
        disk = DiskGraph.from_digraph(device, random_graph(60, 4, seed=5))
        result = edge_by_batch(disk, 3 * 60 + 40, checkpoint_every=1)
        artifact = ArtifactStore.for_run(device).open("edge-by-batch-ckpt")
        assert artifact.kind == "checkpoint"
        self.assert_same_tree(artifact.tree, result.tree)
