"""Unit + property tests for on-disk edge files and partition routing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClosedFileError, CorruptBlockError, StorageError
from repro.storage import BlockDevice, PartitionWriter, edge_file_from_edges

node_ids = st.integers(min_value=0, max_value=10_000)
edge_lists = st.lists(st.tuples(node_ids, node_ids), max_size=300)


class TestWriteScan:
    def test_roundtrip_preserves_order_and_duplicates(self, device):
        edges = [(0, 1), (1, 2), (0, 1), (5, 5)]
        edge_file = edge_file_from_edges(device, edges)
        assert edge_file.read_all() == edges
        assert len(edge_file) == 4

    def test_empty_file(self, device):
        edge_file = edge_file_from_edges(device, [])
        assert edge_file.read_all() == []
        assert edge_file.block_count == 0

    def test_scan_requires_seal(self, device):
        edge_file = device.create_edge_file()
        edge_file.append(1, 2)
        with pytest.raises(StorageError):
            list(edge_file.scan())

    def test_append_after_seal_rejected(self, device):
        edge_file = edge_file_from_edges(device, [(1, 2)])
        with pytest.raises(StorageError):
            edge_file.append(3, 4)

    def test_seal_is_idempotent(self, device):
        edge_file = device.create_edge_file()
        edge_file.append(1, 2)
        edge_file.seal()
        edge_file.seal()
        assert edge_file.read_all() == [(1, 2)]

    def test_deleted_file_rejects_everything(self, device):
        edge_file = edge_file_from_edges(device, [(1, 2)])
        edge_file.delete()
        edge_file.delete()  # idempotent
        with pytest.raises(ClosedFileError):
            list(edge_file.scan())
        with pytest.raises(ClosedFileError):
            edge_file.append(0, 0)

    @settings(max_examples=25)
    @given(edge_lists)
    def test_roundtrip_property(self, edges):
        with BlockDevice(block_elements=7) as device:
            edge_file = edge_file_from_edges(device, edges)
            assert edge_file.read_all() == edges


class TestIOAccounting:
    def test_write_cost_is_ceil_m_over_b(self, device_factory):
        device = device_factory(block_elements=10, block_codec="fixed32")
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(25)])
        expected_blocks = math.ceil(25 / 10)
        assert edge_file.block_count == expected_blocks
        assert device.stats.writes == expected_blocks

    def test_scan_cost_is_ceil_m_over_b(self, device_factory):
        device = device_factory(block_elements=10, block_codec="fixed32")
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(25)])
        before = device.stats.snapshot()
        list(edge_file.scan())
        delta = device.stats.snapshot() - before
        assert delta.reads == math.ceil(25 / 10)
        assert delta.writes == 0

    def test_every_scan_pays_again(self, device_factory):
        device = device_factory(block_elements=4, block_codec="fixed32")
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(8)])
        before = device.stats.snapshot()
        list(edge_file.scan())
        list(edge_file.scan())
        assert (device.stats.snapshot() - before).reads == 4

    def test_exact_block_boundary(self, device_factory):
        device = device_factory(block_elements=5, block_codec="fixed32")
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(10)])
        assert edge_file.block_count == 2

    def test_scan_blocks_yields_block_sized_lists(self, device_factory):
        device = device_factory(block_elements=4, block_codec="fixed32")
        edge_file = edge_file_from_edges(device, [(i, 0) for i in range(9)])
        sizes = [len(block) for block in edge_file.scan_blocks()]
        assert sizes == [4, 4, 1]


class TestPartitionWriter:
    def test_routes_edges_to_parts(self, device):
        writer = PartitionWriter(device, ["a", "b"])
        writer.route_columns("a", [1], [2])
        writer.route_columns("b", [3], [4])
        writer.route_columns("a", [5], [6])
        parts = writer.seal()
        assert parts["a"].read_all() == [(1, 2), (5, 6)]
        assert parts["b"].read_all() == [(3, 4)]

    def test_unknown_key_rejected(self, device):
        writer = PartitionWriter(device, [1])
        with pytest.raises(KeyError):
            writer.route_columns(2, [0], [0])
        writer.discard()

    def test_duplicate_keys_rejected(self, device):
        with pytest.raises(ValueError):
            PartitionWriter(device, [1, 1])

    def test_discard_removes_files(self, device):
        writer = PartitionWriter(device, [1, 2])
        writer.route_columns(1, [0], [0])
        writer.discard()
        # routing after discard fails because files are deleted
        with pytest.raises(ClosedFileError):
            writer.route_columns(1, [0], [0])

    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 3), node_ids, node_ids), max_size=120))
    def test_partition_is_exact(self, routed):
        with BlockDevice(block_elements=8) as device:
            keys = [0, 1, 2, 3]
            writer = PartitionWriter(device, keys)
            for key, u, v in routed:
                writer.route_columns(key, [u], [v])
            parts = writer.seal()
            for key in keys:
                expected = [(u, v) for k, u, v in routed if k == key]
                assert parts[key].read_all() == expected


class TestColumnarPaths:
    """scan_columns / extend / extend_columns — the kernel-layer fast paths."""

    def test_scan_columns_matches_scan_blocks(self, device_factory):
        device = device_factory(block_elements=4)
        edges = [(i, i * 3 % 11) for i in range(9)]
        edge_file = edge_file_from_edges(device, edges)
        blocks = list(edge_file.scan_blocks())
        columns = list(edge_file.scan_columns())
        assert len(columns) == len(blocks)
        for block, (us, vs) in zip(blocks, columns):
            assert list(zip(us, vs)) == block

    def test_scan_columns_charges_one_read_per_block(self, device_factory):
        device = device_factory(block_elements=4, block_codec="fixed32")
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(9)])
        before = device.stats.snapshot()
        list(edge_file.scan_columns())
        delta = device.stats.snapshot() - before
        assert delta.reads == 3
        assert delta.writes == 0

    def test_scan_columns_requires_seal(self, device):
        edge_file = device.create_edge_file()
        edge_file.append(1, 2)
        with pytest.raises(StorageError):
            list(edge_file.scan_columns())

    def test_extend_accepts_generators(self, device_factory):
        device = device_factory(block_elements=8, block_codec="fixed32")
        edge_file = device.create_edge_file()
        edge_file.extend((i, i + 1) for i in range(21))
        edge_file.seal()
        assert edge_file.read_all() == [(i, i + 1) for i in range(21)]
        assert edge_file.block_count == 3

    def test_extend_chunks_interleave_with_append(self, device_factory):
        device = device_factory(block_elements=5)
        edge_file = device.create_edge_file()
        edge_file.append(100, 200)
        edge_file.extend([(i, i) for i in range(7)])
        edge_file.append(300, 400)
        edge_file.extend([(i, -i) for i in range(4)])
        edge_file.seal()
        expected = (
            [(100, 200)]
            + [(i, i) for i in range(7)]
            + [(300, 400)]
            + [(i, -i) for i in range(4)]
        )
        assert edge_file.read_all() == expected
        assert device.stats.writes == edge_file.block_count

    def test_extend_columns_roundtrip(self, device_factory):
        device = device_factory(block_elements=4, block_codec="fixed32")
        edge_file = device.create_edge_file()
        edge_file.append(9, 9)  # ragged head: partial buffer before columns
        us = list(range(11))
        vs = [i * 2 for i in range(11)]
        edge_file.extend_columns(us, vs)
        edge_file.seal()
        assert edge_file.read_all() == [(9, 9)] + list(zip(us, vs))
        assert device.stats.writes == edge_file.block_count == 3

    def test_extend_columns_mismatched_lengths(self, device):
        edge_file = device.create_edge_file()
        with pytest.raises(ValueError):
            edge_file.extend_columns([1, 2], [3])

    def test_extend_columns_block_aligned(self, device_factory):
        device = device_factory(block_elements=4, block_codec="fixed32")
        edge_file = device.create_edge_file()
        edge_file.extend_columns(list(range(8)), list(range(8)))
        assert edge_file.block_count == 2  # written straight through
        edge_file.seal()
        assert edge_file.read_all() == [(i, i) for i in range(8)]

    @settings(max_examples=25)
    @given(edge_lists)
    def test_extend_columns_equals_extend(self, edges):
        with BlockDevice(block_elements=7) as device:
            by_rows = edge_file_from_edges(device, edges)
            by_columns = device.create_edge_file()
            by_columns.extend_columns(
                [u for u, _ in edges], [v for _, v in edges]
            )
            by_columns.seal()
            assert by_columns.read_all() == edges
            assert by_columns.block_count == by_rows.block_count


class TestColumnarErrorPaths:
    """Error paths of scan_columns / extend_columns (and friends)."""

    def test_extend_columns_on_closed_device(self):
        device = BlockDevice(block_elements=4)
        edge_file = device.create_edge_file()
        edge_file.extend_columns([1, 2], [3, 4])
        device.close()
        with pytest.raises(ClosedFileError, match="closed BlockDevice"):
            edge_file.extend_columns([5], [6])

    def test_scan_columns_on_closed_device(self):
        device = BlockDevice(block_elements=4)
        edge_file = edge_file_from_edges(device, [(1, 2), (3, 4)])
        device.close()
        with pytest.raises(ClosedFileError, match="closed BlockDevice"):
            list(edge_file.scan_columns())
        with pytest.raises(ClosedFileError):
            edge_file.read_all()

    def test_scan_columns_truncated_final_block(self, device_factory):
        device = device_factory(block_elements=4)
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(6)])
        # Tear the last (partial) block's frame mid-payload.
        with open(edge_file.path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 3)
        with pytest.raises(CorruptBlockError, match="truncated"):
            list(edge_file.scan_columns())
        # The same damage is caught by the row-wise twin too.
        with pytest.raises(CorruptBlockError):
            list(edge_file.scan_blocks())

    def test_scan_columns_zero_edge_file(self, device):
        edge_file = edge_file_from_edges(device, [])
        assert list(edge_file.scan_columns()) == []
        assert device.stats.reads == 0  # empty scan charges nothing

    def test_extend_columns_empty_columns_write_nothing(self, device):
        edge_file = device.create_edge_file()
        edge_file.extend_columns([], [])
        edge_file.seal()
        assert edge_file.block_count == 0
        assert edge_file.read_all() == []

    def test_extend_columns_after_seal_rejected(self, device):
        edge_file = edge_file_from_edges(device, [(1, 2)])
        with pytest.raises(StorageError, match="sealed"):
            edge_file.extend_columns([1], [2])

    def test_scan_columns_on_deleted_file(self, device):
        edge_file = edge_file_from_edges(device, [(1, 2)])
        edge_file.delete()
        with pytest.raises(ClosedFileError, match="deleted"):
            list(edge_file.scan_columns())
