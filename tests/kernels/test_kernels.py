"""Unit + property tests for the columnar kernel backends.

The python backend is the semantics oracle: every test that runs against
numpy asserts *equality with the python result*, not just plausibility —
bytes, classification decisions, and batch split points must all agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph, MemoryBudget, ReproError
from repro.algorithms import initial_star_tree, restructure
from repro.core.tree import SpanningTree, VirtualNodeAllocator
from repro.graph import random_graph
from repro.kernels import (
    KERNEL_ENV_VAR,
    available_backends,
    numpy_available,
    pack_edge_columns,
    resolve_kernel,
    unpack_edge_columns,
)
from repro.storage.serialization import pack_edges, unpack_edges

int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)


def backend_params():
    return [pytest.param(name) for name in available_backends()]


@pytest.fixture(params=backend_params())
def kernel(request):
    return resolve_kernel(request.param)


class TestResolution:
    def test_python_always_available(self):
        assert "python" in available_backends()
        assert resolve_kernel("python").name == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            resolve_kernel("fortran")

    def test_env_var_forces_backend(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "python")
        assert resolve_kernel().name == "python"
        with BlockDevice() as device:
            assert device.kernel.name == "python"

    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        expected = "numpy" if numpy_available() else "python"
        assert resolve_kernel("auto").name == expected

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "auto")
        with BlockDevice(kernel="python") as device:
            assert device.kernel.name == "python"

    @requires_numpy
    def test_numpy_backend_resolves(self):
        assert resolve_kernel("numpy").name == "numpy"


class TestColumnCodec:
    def test_empty(self, kernel):
        assert kernel.pack_edge_columns([], []) == b""
        u, v = kernel.unpack_edge_columns(b"")
        assert len(u) == 0 and len(v) == 0

    def test_matches_row_codec_bytes(self, kernel):
        edges = [(1, 2), (-5, 7), (0, 2**31 - 1)]
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        assert kernel.pack_edge_columns(us, vs) == pack_edges(edges)

    def test_partial_record_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.unpack_edge_columns(b"\x00" * 9)

    def test_length_mismatch_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.pack_edge_columns([1, 2], [3])

    def test_out_of_range_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.pack_edge_columns([2**31], [0])
        with pytest.raises(ValueError):
            kernel.pack_edge_columns([0], [-(2**31) - 1])

    def test_int32_boundary_values_roundtrip(self, kernel):
        us = [-(2**31), 2**31 - 1, 0]
        vs = [2**31 - 1, -(2**31), -1]
        data = kernel.pack_edge_columns(us, vs)
        ru, rv = kernel.unpack_edge_columns(data)
        assert list(ru) == us
        assert list(rv) == vs

    @given(st.lists(st.tuples(int32s, int32s), max_size=200))
    @settings(max_examples=50)
    def test_roundtrip_identity(self, edge_list):
        # module-level helpers use the default-resolved backend
        us = [u for u, _ in edge_list]
        vs = [v for _, v in edge_list]
        data = pack_edge_columns(us, vs)
        assert data == pack_edges(edge_list)
        ru, rv = unpack_edge_columns(data)
        assert list(zip(ru, rv)) == edge_list
        assert unpack_edges(data) == edge_list

    @requires_numpy
    @given(st.lists(st.tuples(int32s, int32s), max_size=100))
    @settings(max_examples=50)
    def test_backends_agree_on_bytes(self, edge_list):
        py = resolve_kernel("python")
        np_kernel = resolve_kernel("numpy")
        us = [u for u, _ in edge_list]
        vs = [v for _, v in edge_list]
        data = py.pack_edge_columns(us, vs)
        assert np_kernel.pack_edge_columns(us, vs) == data
        pu, pv = py.unpack_edge_columns(data)
        nu, nv = np_kernel.unpack_edge_columns(data)
        assert list(pu) == list(nu)
        assert list(pv) == list(nv)


def converged_tree(node_count=80, degree=4, seed=11):
    """A realistic mid-run tree: one restructure pass over a random graph."""
    device = BlockDevice(block_elements=32, kernel="python")
    graph = DiskGraph.from_digraph(device, random_graph(node_count, degree, seed=seed))
    allocator = VirtualNodeAllocator(node_count)
    tree = initial_star_tree(graph, allocator)
    budget = MemoryBudget(3 * node_count + 10_000)
    budget.charge("tree", budget.tree_charge(node_count))
    outcome = restructure(graph.edge_file, tree, budget)
    edges = graph.edge_file.read_all()
    device.close()
    return outcome.tree, edges


class TestClassifySlice:
    """python-vs-numpy equivalence of the classification kernel."""

    @requires_numpy
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [10**9, 37, 8, 1])
    def test_backends_agree(self, seed, capacity):
        py = resolve_kernel("python")
        np_kernel = resolve_kernel("numpy")
        tree, edges = converged_tree(seed=seed)
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        py_cols = (py.unpack_edge_columns(py.pack_edge_columns(us, vs)))
        np_cols = np_kernel.unpack_edge_columns(
            np_kernel.pack_edge_columns(us, vs)
        )
        py_index = py.make_index(tree)
        np_index = np_kernel.make_index(tree)
        assert np_index is not None  # graph ids are dense
        start = 0
        while start < len(us):
            expected = py.classify_slice(py_index, *py_cols, start, capacity)
            actual = np_kernel.classify_slice(np_index, *np_cols, start, capacity)
            assert actual == expected
            if expected[0] == start:  # a zero-progress stop cannot happen
                pytest.fail("classify_slice made no progress")
            start = expected[0]

    @requires_numpy
    def test_virtual_node_ids_classify(self):
        """Edges under the virtual root (γ = n) classify identically."""
        py = resolve_kernel("python")
        np_kernel = resolve_kernel("numpy")
        tree, edges = converged_tree(node_count=40, seed=5)
        gamma = max(tree.virtual)
        assert gamma >= 40  # allocated above the real range
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        py_result = py.classify_slice(
            py.make_index(tree), us, vs, 0, 10**9
        )
        cols = np_kernel.unpack_edge_columns(np_kernel.pack_edge_columns(us, vs))
        np_result = np_kernel.classify_slice(
            np_kernel.make_index(tree), *cols, 0, 10**9
        )
        assert np_result == py_result

    @requires_numpy
    def test_sparse_ids_fall_back_to_none(self):
        """Very sparse id spaces refuse the dense index (scalar fallback)."""
        np_kernel = resolve_kernel("numpy")
        tree = SpanningTree()
        tree.add_node(10**7, virtual=True)
        tree.root = 10**7
        tree.add_node(0)
        tree.attach(0, 10**7)
        assert np_kernel.make_index(tree) is None

    @requires_numpy
    def test_dense_index_matches_dict_index(self):
        from repro.core.classify import IntervalIndex

        np_kernel = resolve_kernel("numpy")
        tree, _ = converged_tree(seed=9)
        dict_index = IntervalIndex(tree)
        dense = np_kernel.make_index(tree)
        for node in tree.nodes:
            assert dense.pre[node] == dict_index.pre[node]
            assert dense.size[node] == dict_index.size[node]
            parent = tree.parent[node]
            assert dense.parent[node] == (-1 if parent is None else parent)


class TestDivisionOps:
    """The division-scan kernel ops: cross edges, cut-label pairs, routing."""

    def columns_for(self, kernel, edges):
        return kernel.make_columns(
            [u for u, _ in edges], [v for _, v in edges]
        )

    def cut_pairs(self, kernel, tree, cut_nodes, edges):
        from repro.core.classify import CutLabels

        index = kernel.make_cut_index(CutLabels(tree, cut_nodes))
        assert index is not None
        pairs = set()
        kernel.collect_cut_pairs(index, *self.columns_for(kernel, edges), pairs)
        return pairs

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_collect_cross_edges_matches_the_classifier(self, kernel, seed):
        from repro.core.classify import EdgeType, IntervalIndex

        tree, edges = converged_tree(seed=seed)
        oracle = IntervalIndex(tree)
        expected = [
            (u, v)
            for u, v in edges
            if u != v and oracle.classify(u, v) in
            (EdgeType.FORWARD_CROSS, EdgeType.BACKWARD_CROSS)
        ]
        index = kernel.make_index(tree)
        assert index is not None
        collected = kernel.collect_cross_edges(
            index, *self.columns_for(kernel, edges)
        )
        assert [(int(u), int(v)) for u, v in collected] == expected

    @requires_numpy
    @pytest.mark.parametrize("seed", [2, 7])
    def test_backends_collect_identical_cross_edges(self, seed):
        py = resolve_kernel("python")
        np_kernel = resolve_kernel("numpy")
        tree, edges = converged_tree(seed=seed)
        py_out = py.collect_cross_edges(
            py.make_index(tree), *self.columns_for(py, edges)
        )
        np_out = np_kernel.collect_cross_edges(
            np_kernel.make_index(tree), *self.columns_for(np_kernel, edges)
        )
        assert [(int(u), int(v)) for u, v in np_out] == list(py_out)

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_full_cut_pairs_are_the_distinct_cross_edges(self, kernel, seed):
        """With every node in the cut, each node is its own label and the
        kept pairs are exactly the distinct cross edges."""
        from repro.core.classify import EdgeType, IntervalIndex

        tree, edges = converged_tree(seed=seed)
        oracle = IntervalIndex(tree)
        expected = {
            (u, v)
            for u, v in edges
            if u != v and oracle.classify(u, v) in
            (EdgeType.FORWARD_CROSS, EdgeType.BACKWARD_CROSS)
        }
        assert expected
        assert self.cut_pairs(kernel, tree, set(tree.nodes), edges) == expected

    @requires_numpy
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cut_budget", [None, 16, 400, "all"])
    def test_backends_collect_identical_cut_pairs(self, seed, cut_budget):
        from repro.algorithms import build_cut_tree, star_cut

        tree, edges = converged_tree(seed=seed)
        if cut_budget is None:
            cut_nodes, _ = star_cut(tree)
        elif cut_budget == "all":
            cut_nodes = set(tree.nodes)
        else:
            cut_nodes, _ = build_cut_tree(tree, cut_budget)
        py_pairs = self.cut_pairs(resolve_kernel("python"), tree, cut_nodes, edges)
        assert py_pairs
        assert all(type(u) is int and type(v) is int for u, v in py_pairs)
        np_pairs = self.cut_pairs(resolve_kernel("numpy"), tree, cut_nodes, edges)
        assert all(type(u) is int and type(v) is int for u, v in np_pairs)
        assert np_pairs == py_pairs

    def test_collect_cut_pairs_on_an_empty_block(self, kernel):
        tree, _ = converged_tree(seed=1)
        assert self.cut_pairs(kernel, tree, {tree.root}, []) == set()

    def test_equal_labels_keep_nothing(self, kernel):
        """A root-only cut labels every node with the root: nothing is
        kept, however many edges cross below it."""
        tree, edges = converged_tree(seed=4)
        assert self.cut_pairs(kernel, tree, {tree.root}, edges) == set()

    def test_sparse_ids_decline_the_cut_index(self, kernel):
        from repro.core.classify import CutLabels

        tree = SpanningTree()
        tree.add_node(10**7, virtual=True)
        tree.root = 10**7
        tree.add_node(0)
        tree.attach(0, 10**7)
        labels = CutLabels(tree, {10**7, 0})
        index = kernel.make_cut_index(labels)
        if kernel.name == "numpy":
            assert index is None
        else:  # the python kernel is the universal fallback
            assert index is labels

    def test_make_columns_rejects_out_of_range(self, kernel):
        with pytest.raises(ValueError):
            kernel.make_columns([2**31], [0])

    def route_all(self, kernel, owner, edges):
        """Flatten route_edges output to comparable python structures."""
        owner_index = kernel.make_owner_index(owner)
        assert owner_index is not None
        routed = kernel.route_edges(
            owner_index, *self.columns_for(kernel, edges)
        )
        return [
            (int(part), [int(u) for u in us], [int(v) for v in vs])
            for part, us, vs in routed
        ]

    def test_route_edges_keeps_scan_order_within_parts(self, kernel):
        owner = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
        edges = [
            (0, 1), (2, 3), (1, 0), (0, 2),  # cross-part: dropped
            (3, 2), (4, 4), (0, 0), (5, 5),  # 5 unowned: dropped
        ]
        assert self.route_all(kernel, owner, edges) == [
            (1, [0, 1, 0], [1, 0, 0]),
            (2, [2, 3], [3, 2]),
            (3, [4], [4]),
        ]

    def test_route_edges_part_keys_ascend(self, kernel):
        owner = {i: (i % 5) + 1 for i in range(40)}
        edges = [(i, i) for i in reversed(range(40))]
        parts = [part for part, _us, _vs in self.route_all(kernel, owner, edges)]
        assert parts == sorted(parts) == [1, 2, 3, 4, 5]

    @requires_numpy
    def test_backends_route_identically(self):
        py = resolve_kernel("python")
        np_kernel = resolve_kernel("numpy")
        import random

        rng = random.Random(13)
        owner = {node: rng.randrange(1, 7) for node in range(200)}
        edges = [
            (rng.randrange(220), rng.randrange(220)) for _ in range(1000)
        ]
        assert self.route_all(py, owner, edges) \
            == self.route_all(np_kernel, owner, edges)

    @requires_numpy
    def test_sparse_owner_map_declines_dense_index(self):
        np_kernel = resolve_kernel("numpy")
        assert np_kernel.make_owner_index({10**7: 1, 0: 2}) is None
        assert np_kernel.make_owner_index({}) is None
        # the python kernel is the universal fallback: never declines
        assert resolve_kernel("python").make_owner_index({10**7: 1}) == {10**7: 1}


class TestIntColumnOps:
    """pack_int_column / int_column_from_buffer — the int32 column codec."""

    def test_round_trip(self, kernel):
        values = [0, 1, -1, 2**31 - 1, -(2**31), 42]
        packed = kernel.pack_int_column(values)
        assert len(packed) == 4 * len(values)
        column = kernel.int_column_from_buffer(packed, 0, len(values))
        assert [int(v) for v in column] == values

    def test_empty_column(self, kernel):
        assert kernel.pack_int_column([]) == b""
        assert list(kernel.int_column_from_buffer(b"", 0, 0)) == []

    def test_offset_is_in_elements_not_bytes(self, kernel):
        packed = kernel.pack_int_column([10, 20, 30, 40])
        tail = kernel.int_column_from_buffer(packed, 2, 2)
        assert [int(v) for v in tail] == [30, 40]

    def test_bytes_are_little_endian_int32(self, kernel):
        assert kernel.pack_int_column([1, 256]) == \
            b"\x01\x00\x00\x00\x00\x01\x00\x00"

    def test_out_of_range_value_rejected(self, kernel):
        with pytest.raises(ValueError, match="int32"):
            kernel.pack_int_column([2**31])
        with pytest.raises(ValueError, match="int32"):
            kernel.pack_int_column([-(2**31) - 1])

    def test_packing_does_not_mutate_the_input(self, kernel):
        values = [7, 8, 9]
        kernel.pack_int_column(values)
        assert values == [7, 8, 9]

    @requires_numpy
    @given(st.lists(int32s, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_backends_pack_identical_bytes(self, values):
        py = resolve_kernel("python").pack_int_column(values)
        np_bytes = resolve_kernel("numpy").pack_int_column(values)
        assert py == np_bytes
