"""ArtifactStore: round-trips, versioning, and integrity checking."""

from __future__ import annotations

import json
import os

import pytest

from repro import DiskGraph, semi_external_bfs, semi_external_dfs
from repro.algorithms import edge_by_batch
from repro.core import SpanningTree
from repro.core.order import is_ancestor
from repro.errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactNotFound,
    QueryError,
)
from repro.graph import random_dag, random_graph
from repro.graph.digraph import Digraph
from repro.serve import (
    SCHEMA_VERSION,
    ArtifactStore,
    QueryEngine,
    parse_ref,
    seal_result,
)
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


def query_answers(artifact):
    """Every query kind's answer (or its typed error) over all nodes and
    node pairs, without the ``artifact`` reference."""
    engine = QueryEngine(artifact)
    nodes = [{"node": str(x)} for x in range(artifact.node_count)]
    pairs = [{"u": str(u), "v": str(v)}
             for u in range(artifact.node_count)
             for v in range(artifact.node_count)]
    params = {
        "order": [{}], "toposort": [{}], "cycle": [{}],
        "position": nodes, "topo-position": nodes,
        "ancestor": pairs, "path": pairs, "reachable": pairs,
        "scc": [{}, *nodes, *pairs],
        "reachable-set": [{"source": str(x)}
                          for x in range(artifact.node_count)],
    }
    assert sorted(params) == list(engine.kinds)
    answers = []
    for kind in engine.kinds:
        for query in params[kind]:
            try:
                answer = engine.execute(kind, query)
            except QueryError as error:
                answer = {"code": error.code, "message": str(error)}
            answer.pop("artifact", None)
            answers.append(answer)
    return answers


class TestDerivedColumns:
    """A stored artifact holds its tree once; ``order``, ``size`` and
    ``topo`` are derived from it, on sealing and on opening alike."""

    @pytest.mark.parametrize("shape", ["dag", "cyclic"])
    @pytest.mark.parametrize(
        "algorithm", ["divide-td", "divide-star", "edge-by-batch",
                      "edge-by-edge"],
    )
    def test_reopened_artifact_answers_as_sealed(self, store, device,
                                                 algorithm, shape):
        if shape == "dag":
            graph = random_dag(30, 70, seed=8)
        else:  # with a self-loop
            graph = Digraph.from_edges(
                30, [*random_graph(30, 2, seed=8).edges(), (5, 5)]
            )
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 30 + 40
        result = semi_external_dfs(disk, memory, algorithm=algorithm)
        sealed = seal_result(disk, result, memory=memory, sources=(0,))
        expected = query_answers(sealed)
        artifact = store.open(str(store.publish(sealed, shape)))
        assert query_answers(artifact) == expected
        assert artifact.order_slice() == result.order
        assert [artifact.position_of(node) for node in result.order] \
            == list(range(30))
        assert artifact.is_dag is (shape == "dag")
        if shape == "dag":
            position = {node: index for index, node
                        in enumerate(artifact.toposort_slice())}
            assert all(position[u] < position[v] for u, v in graph.edges())

    @pytest.mark.parametrize("dag", [True, False])
    def test_sealed_artifact_stores_only_parent_pre_and_graph_columns(
            self, store, device, dag):
        edges = [(0, 1), (1, 2), (0, 3), (3, 2)] + ([] if dag else [(2, 0)])
        ref = publish_graph(store, device, Digraph.from_edges(5, edges), "g",
                            sources=(0,))
        assert sorted(os.listdir(ref.path)) == [
            MANIFEST_FILE, "parent.col", "pre.col", "reach-0.col",
            "scc.col", "selfloop.col",
        ]
        assert store.open(str(ref)).describe()["columns"] == sorted(
            ["order", "parent", "pre", "reach-0", "scc", "selfloop", "size"]
            + (["topo"] if dag else [])
        )


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
        parent = os.path.join(ref.path, "parent.col")
        pre = os.path.join(ref.path, "pre.col")
        os.replace(pre, parent)
        with pytest.raises(ArtifactIntegrityError):
            store.open(str(ref))

    def test_missing_payload_file(self, published):
        store, ref = published
        os.remove(os.path.join(ref.path, "scc.col"))
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


def set_value(column, position, value):
    def edit(values):
        values[position] = value
    return column, edit


def move_reach_source(manifest):
    manifest["columns"]["reach-40"] = manifest["columns"].pop("reach-0")


def grow_graph(manifest):
    manifest["graph"]["nodes"] = 25


#: One impossible value each, as ``(column the error names, column to
#: rewrite, edit of its values | None, edit of the manifest | None)``.
DAMAGE = {
    "negative scc id": ("scc", *set_value("scc", 3, -1), None),
    "scc id past scc_count": ("scc", *set_value("scc", 3, 57), None),
    "selfloop of 7": ("selfloop", *set_value("selfloop", 4, 7), None),
    "reach bit of 3": ("reach-0", *set_value("reach-0", 6, 3), None),
    "pinned source past n": ("reach-40", None, None, move_reach_source),
    "more nodes than values": ("pre", None, None, grow_graph),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_open_rejects_impossible_column_values(store, device, damage):
    """Values whose manifest SHA-256 matches can still be impossible;
    ``open`` names the column instead of serving them."""
    named, column, edit_values, edit_manifest = DAMAGE[damage]
    graph = Digraph.from_edges(20, [(i, j) for i in range(20) for j in
                                    (i + 1, i + 3) if j < 20])
    ref = publish_graph(store, device, graph, "dag", sources=(0,))
    path = os.path.join(ref.path, MANIFEST_FILE)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if edit_values is not None:
        artifact = store.open(str(ref))
        values = list(artifact.reach[0] if column == "reach-0"
                      else getattr(artifact, column))
        edit_values(values)
        meta = manifest["columns"][column]
        meta["sha256"], meta["count"] = store._write_values(
            os.path.join(ref.path, meta["file"]), values
        )
    if edit_manifest is not None:
        edit_manifest(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ArtifactIntegrityError, match=f"{named} column"):
        store.open(str(ref))


def test_open_rejects_a_pre_column_that_is_not_the_preorder(store):
    """Numbering every parent before its children rebuilds a tree, but
    only the tree's preorder is a stored ``pre``."""
    tree = SpanningTree()
    for node in range(4):
        tree.add_node(node)
    tree.root = 0
    for child, parent in ((1, 0), (2, 0), (3, 1)):
        tree.attach(child, parent)
    ref = store.publish_tree(tree, "t")
    assert store.open(str(ref)).pre == [0, 1, 3, 2]
    path = os.path.join(ref.path, MANIFEST_FILE)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    meta = manifest["columns"]["pre"]
    meta["sha256"], meta["count"] = store._write_values(
        os.path.join(ref.path, meta["file"]), [0, 1, 2, 3]  # level order
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ArtifactIntegrityError, match="pre column does not"):
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
        graph = Digraph.from_edges(2, [(0, 1)])
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, 3 * 2 + 64)
        ref = store.publish_tree(result.tree, "bare", node_count=2)
        artifact = store.open(str(ref))
        with pytest.raises(QueryError):
            artifact.toposort_slice()
        with pytest.raises(QueryError):
            artifact.scc_of(0)

    def test_checkpoint_answers_tree_queries(self, device):
        disk = DiskGraph.from_digraph(device, random_graph(40, 3, seed=6))
        result = edge_by_batch(disk, 3 * 40 + 40, checkpoint_every=1)
        artifact = ArtifactStore.for_run(device).open("edge-by-batch-ckpt")
        assert artifact.order_slice() == result.order
        for u in range(40):
            for v in range(40):
                path = artifact.tree_path(u, v)
                assert artifact.is_ancestor(u, v) is (path is not None)
                assert (path is not None) == is_ancestor(result.tree, u, v)
                if path is not None:
                    assert path[0] == u and path[-1] == v
                    assert all(result.tree.parent[child] == up
                               for up, child in zip(path, path[1:]))
        for query in (artifact.toposort_slice,
                      lambda: artifact.scc_of(0),
                      lambda: artifact.reachable(0, 1)):
            with pytest.raises(QueryError) as error:
                query()
            assert error.value.code == "column-missing"


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
        ref = store.publish(seal_result(disk, result, memory=memory), "dfs")
        self.assert_same_tree(store.open(str(ref)).tree, result.tree)

    def test_bfs_result(self, device):
        # average degree 1: several nodes stay unreached under γ
        disk = DiskGraph.from_digraph(device, random_graph(60, 1, seed=4))
        result = semi_external_bfs(disk, 3 * 60 + 64)
        assert result.reached_count < 60
        assert result.artifact_ref is None
        store = ArtifactStore.for_run(device)
        store.publish_tree(result.tree, "bfs-tree", kind="bfs-tree")
        self.assert_same_tree(store.open("bfs-tree").tree, result.tree)

    def test_edge_by_batch_checkpoint(self, device):
        disk = DiskGraph.from_digraph(device, random_graph(60, 4, seed=5))
        result = edge_by_batch(disk, 3 * 60 + 40, checkpoint_every=1)
        artifact = ArtifactStore.for_run(device).open("edge-by-batch-ckpt")
        assert artifact.kind == "checkpoint"
        self.assert_same_tree(artifact.tree, result.tree)
