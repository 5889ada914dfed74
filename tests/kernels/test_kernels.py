"""Unit + property tests for the columnar kernel backends.

The python backend is the semantics oracle: every test that runs against
numpy asserts *equality with the python result*, not just plausibility —
bytes, classification decisions, and batch split points must all agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph, ReproError
from repro.algorithms import initial_star_tree, restructure
from repro.core.inmemory import dfs_preferring_tree
from repro.core.tree import SpanningTree, VirtualNodeAllocator
from repro.graph import random_graph
from repro.kernels import (
    KERNEL_ENV_VAR,
    available_backends,
    numpy_available,
    resolve_kernel,
)
from repro.errors import CorruptBlockError
from repro.storage.edge_file import EdgeFile, edge_file_from_edges
from repro.storage.serialization import (
    DeltaVarintBlockEncoder,
    classify_edge_block,
    decode_varint_columns,
    frame_block,
    pack_edges,
    unpack_edges,
)

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
        kernel = resolve_kernel()  # the default-resolved backend
        us = [u for u, _ in edge_list]
        vs = [v for _, v in edge_list]
        data = kernel.pack_edge_columns(us, vs)
        assert data == pack_edges(edge_list)
        ru, rv = kernel.unpack_edge_columns(data)
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


def varint_bodies(edge_list, block_bytes):
    """The tag-stripped delta-varint bodies the encoder writes."""
    encoder = DeltaVarintBlockEncoder(block_bytes)
    closed = [encoder.add(u, v) for u, v in edge_list] + [encoder.flush()]
    return [
        classify_edge_block(payload)[1]
        for payload, _count in filter(None, closed)
    ]


def uvarint(value, width=1):
    """LEB128 bytes of ``value``, padded with continuation bytes to at
    least ``width`` bytes (a non-canonical but decodable varint)."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if not value and len(out) + 1 >= width:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def zigzag(value):
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def body_of(edge_list, first_width=1):
    """A delta-varint body built by hand, independently of the encoder;
    ``first_width`` pads the first u varint."""
    streams = []
    for column in zip(*edge_list):
        previous = 0
        for value in column:
            width = first_width if not streams else 1
            streams.append(uvarint(zigzag(value - previous), width))
            previous = value
    return uvarint(len(edge_list)) + b"".join(streams)


MALFORMED_EDGES = [(5, 300), (70000, -(2**31)), (2**31 - 1, 0), (3, 3)]
_VALID = body_of(MALFORMED_EDGES)
_STREAMS = _VALID[1:]

#: Bodies the encoder never writes, but may sit in a CRC-valid block.
#: numpy declines all but :data:`DECODED_BODIES`; the scalar decoder then
#: decodes the non-canonical ones and raises on the broken ones.
MALFORMED_BODIES = {
    "truncated-by-one": _VALID[:-1],
    "truncated-by-half": _VALID[: len(_VALID) // 2],
    "trailing-continuation": _VALID + b"\x80",
    "count-varint-6-bytes": uvarint(len(MALFORMED_EDGES), 6) + _STREAMS,
    "count-beyond-streams": uvarint(len(MALFORMED_EDGES) + 1) + _STREAMS,
    **{
        f"stream-varint-{width}-bytes": body_of(MALFORMED_EDGES, first_width=width)
        for width in range(6, 11)
    },
    "stream-varint-11-bytes": b"\x01" + b"\x80" * 10 + b"\x00\x00",
    "endpoint-outside-int32": b"\x01\x80\x80\x80\x80\x20\x02",  # u = 2**32
    "count-without-streams": b"\x04",
    "count-0": b"\x00" + _STREAMS,
    "count-0-alone": b"\x00",
    "with-pad": _VALID + b"\x00",
    "without-pad": _VALID,
}

#: The bodies above whose streams are canonical: bytes past the streams
#: are ignored, so numpy decodes them.
DECODED_BODIES = {"trailing-continuation", "with-pad", "without-pad"}


def scan_outcome(kernel, tmp_path, payload):
    """Columns (as lists) or the exception type of one ``scan_columns``."""
    directory = tmp_path / kernel
    directory.mkdir(exist_ok=True)
    path = directory / "block.edges"
    path.write_bytes(frame_block(payload))
    with BlockDevice(directory=str(directory), kernel=kernel) as device:
        edge_file = EdgeFile.open_sealed(device, str(path), 1, 1)
        try:
            return [
                ([int(u) for u in u_col], [int(v) for v in v_col])
                for u_col, v_col in edge_file.scan_columns()
            ]
        except Exception as error:  # the type is the outcome compared
            return type(error)


def assert_declined_or_equal(body):
    """numpy declines ``body`` or returns exactly the scalar decode (which
    must then not raise)."""
    columns = resolve_kernel("numpy").unpack_varint_columns(body)
    if columns is not None:
        assert [column.tolist() for column in columns] \
            == list(decode_varint_columns(body))


class TestVarintColumns:
    """``unpack_varint_columns``: numpy decodes what the encoder writes,
    declines the rest, and the python backend always declines."""

    endpoints = st.one_of(
        st.integers(min_value=0, max_value=300),
        int32s,
        st.sampled_from([-(2**31), 2**31 - 1, 0, 1, -1]),
    )

    def test_python_backend_always_declines(self):
        py = resolve_kernel("python")
        bodies = varint_bodies(MALFORMED_EDGES, 4096)
        for body in bodies + list(MALFORMED_BODIES.values()):
            assert py.unpack_varint_columns(body) is None

    @requires_numpy
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(endpoints, endpoints), min_size=1, max_size=150),
        st.sampled_from([9, 16, 64, 512, 4096]),
    )
    def test_numpy_equals_the_scalar_decoder(self, edge_list, block_bytes):
        np_kernel = resolve_kernel("numpy")
        decoded = []
        for body in varint_bodies(edge_list, block_bytes):
            expected = np_kernel.make_columns(*decode_varint_columns(body))
            columns = np_kernel.unpack_varint_columns(body)
            assert columns is not None
            for actual, reference in zip(columns, expected):
                assert actual.dtype == reference.dtype
                assert actual.dtype.name == "int32"
                assert actual.tolist() == reference.tolist()
            decoded.extend(zip(*(column.tolist() for column in columns)))
        assert decoded == edge_list

    @requires_numpy
    @pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
    def test_malformed_body_declined_or_equal(self, name):
        body = MALFORMED_BODIES[name]
        assert_declined_or_equal(body)
        columns = resolve_kernel("numpy").unpack_varint_columns(body)
        assert (columns is not None) == (name in DECODED_BODIES)

    @pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
    def test_malformed_scan_agrees_across_kernels(self, name, tmp_path):
        payload = b"\x01" + MALFORMED_BODIES[name]
        if len(payload) % 8 == 0:
            payload += b"\x00"  # stay off the fixed32 grid
        outcomes = {
            kernel: scan_outcome(kernel, tmp_path, payload)
            for kernel in available_backends()
        }
        assert len(set(map(repr, outcomes.values()))) == 1, outcomes
        outcome = outcomes["python"]
        assert outcome is CorruptBlockError or isinstance(outcome, list)

    @requires_numpy
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(int32s, int32s), min_size=1, max_size=40),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_mutated_bodies_declined_or_equal(self, edge_list, edits, trim):
        """Byte edits and truncations never make numpy disagree: it
        declines, or returns exactly what the scalar decoder returns."""
        (body,) = varint_bodies(edge_list, 4096)
        mutated = bytearray(body)
        for position, value in edits:
            mutated[position % len(mutated)] = value
        assert_declined_or_equal(bytes(mutated[: len(mutated) - trim]))

    @requires_numpy
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=40))
    def test_arbitrary_bytes_declined_or_equal(self, body):
        assert_declined_or_equal(body)

    def test_file_scan_identical_across_kernels(self, tmp_path):
        edge_list = [((i * 7919) % 1000, (i * 104729) % 997 - 500)
                     for i in range(3000)]
        with BlockDevice(block_elements=64, block_codec="delta-varint",
                         directory=str(tmp_path)) as writer:
            sealed = edge_file_from_edges(writer, edge_list)
            counts = (sealed.edge_count, sealed.block_count)
        assert counts[1] > 1
        scanned = {}
        for kernel in available_backends():
            with BlockDevice(kernel=kernel, directory=str(tmp_path)) as reader:
                adopted = EdgeFile.open_sealed(reader, sealed.path, *counts)
                before = reader.stats.snapshot()
                columns = [
                    (list(map(int, u_col)), list(map(int, v_col)))
                    for u_col, v_col in adopted.scan_columns()
                ]
                delta = reader.stats.snapshot() - before
                scanned[kernel] = (
                    columns, delta.reads,
                    delta.edge_bytes_raw, delta.edge_bytes_stored,
                )
        reference = scanned["python"]
        assert [edge for u, v in reference[0] for edge in zip(u, v)] == edge_list
        assert reference[1] == counts[1]
        for result in scanned.values():
            assert result == reference


def converged_tree(node_count=80, degree=4, seed=11):
    """A realistic mid-run tree: one restructure pass over a random graph."""
    device = BlockDevice(block_elements=32, kernel="python")
    graph = DiskGraph.from_digraph(device, random_graph(node_count, degree, seed=seed))
    allocator = VirtualNodeAllocator(node_count)
    tree = initial_star_tree(graph, allocator)
    outcome = restructure(graph.edge_file, tree, 10_000)
    edges = graph.edge_file.read_all()
    device.close()
    return outcome.tree, edges


#: ``rebuilt_tree``'s two id ranges: ``0..n`` with ``γ = n``, and one
#: with a virtual hub well above ``γ``.
ID_RANGES = dict(argvalues=[False, True], ids=["dense-ids", "virtual-above-n"])


def rebuilt_tree(seed, virtual_above_n=False):
    """A converged tree rebuilt by the in-memory DFS over its own graph's
    edges, with the preorder the DFS returns.

    With ``virtual_above_n``, a virtual hub with an id well above ``γ``
    first takes over two of ``γ``'s children, so the id range has holes.
    """
    tree, edges = converged_tree(seed=seed)
    if virtual_above_n:
        hub = tree.root + 15
        tree.add_node(hub, virtual=True)
        for child in tree.child_list(tree.root)[:2]:
            tree.reattach(child, hub)
        tree.attach(hub, tree.root)
    extra = {}
    for u, v in edges:
        if u != v:
            extra.setdefault(u, []).append(v)
    return dfs_preferring_tree(tree, extra)


def index_columns(index):
    """An index's ``pre``, ``size`` and ``parent`` as plain python values
    (dicts for the python kernel, whole lists for numpy's arrays)."""
    return tuple(
        column.tolist() if hasattr(column, "tolist") else dict(column)
        for column in (index.pre, index.size, index.parent)
    )


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

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_stops_at_the_edge_that_fills_the_batch(self, backend):
        """Free edges after the filling edge are left for the next batch,
        which classifies them against the rebuilt tree."""
        kernel = resolve_kernel(backend)
        tree = SpanningTree.initial_star(range(3), 3)
        # a forward-cross edge, then a self-loop and a tree edge (both free)
        columns = kernel.make_columns([0, 1, 3], [1, 1, 0])
        result = kernel.classify_slice(kernel.make_index(tree), *columns, 0, 1)
        assert result == (1, 1, True, [(0, 1)])

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
    @pytest.mark.parametrize("virtual_above_n", **ID_RANGES)
    @pytest.mark.parametrize("source", ["tree", "dfs-preorder"])
    def test_dense_index_matches_dict_index(self, source, virtual_above_n):
        from repro.core.classify import IntervalIndex

        np_kernel = resolve_kernel("numpy")
        tree, preorder = rebuilt_tree(9, virtual_above_n)
        dict_index = IntervalIndex(tree)
        dense = np_kernel.make_index(
            tree, preorder if source == "dfs-preorder" else None
        )
        assert len(dense.pre) == max(tree.nodes) + 1
        holes = [slot for slot in range(len(dense.pre)) if slot not in tree.parent]
        for slot in holes:
            assert dense.pre[slot] == dense.size[slot] == dense.parent[slot] == -1
        for node in tree.nodes:
            assert dense.pre[node] == dict_index.pre[node]
            assert dense.size[node] == dict_index.size[node]
            parent = tree.parent[node]
            assert dense.parent[node] == (-1 if parent is None else parent)

    @pytest.mark.parametrize("virtual_above_n", **ID_RANGES)
    def test_index_from_the_dfs_preorder_equals_the_walked_one(
        self, kernel, virtual_above_n
    ):
        tree, preorder = rebuilt_tree(9, virtual_above_n)
        given = kernel.make_index(tree, preorder)
        walked = kernel.make_index(tree)
        assert index_columns(given) == index_columns(walked)


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

    def test_empty_owner_index_routes_nothing(self, kernel):
        assert self.route_all(kernel, {}, [(0, 0), (1, 2)]) == []


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
