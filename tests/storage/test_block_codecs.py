"""Block format v2: the delta-varint codec next to legacy fixed32.

Covers the wire-level properties (tag discrimination, anti-alignment pad,
corruption detection), the EdgeFile-level contract (identical logical
content under either codec, deterministic block boundaries regardless of
the write path), the byte-level compression accounting, and codec
interop — fixed32 files read under a delta-varint device and vice versa.
"""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptBlockError, ReproError
from repro.kernels import available_backends
from repro.storage import BlockDevice, resolve_block_codec, sort_edge_file
from repro.storage.edge_file import EdgeFile, edge_file_from_edges
from repro.storage.serialization import (
    CODEC_DELTA_VARINT,
    CODEC_FIXED32,
    EDGE_BYTES,
    DeltaVarintBlockEncoder,
    classify_edge_block,
    decode_edge_block,
    decode_varint_columns,
    frame_block,
    pack_edges,
)

int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
edges = st.tuples(int32s, int32s)
edge_lists = st.lists(edges, max_size=120)


def encode_all(edge_list, block_bytes=64):
    """Run a whole edge list through the encoder; returns payload list."""
    encoder = DeltaVarintBlockEncoder(block_bytes)
    payloads = []
    for u, v in edge_list:
        closed = encoder.add(u, v)
        if closed is not None:
            payloads.append(closed)
    tail = encoder.flush()
    if tail is not None:
        payloads.append(tail)
    return payloads


class TestResolve:
    def test_default_is_fixed32(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCK_CODEC", raising=False)
        assert resolve_block_codec(None) == CODEC_FIXED32

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "delta-varint")
        assert resolve_block_codec(None) == CODEC_DELTA_VARINT

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "delta-varint")
        assert resolve_block_codec("fixed32") == CODEC_FIXED32

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown block codec"):
            resolve_block_codec("zstd")


class TestWireFormat:
    @settings(max_examples=50)
    @given(edge_lists)
    def test_payload_roundtrip(self, edge_list):
        decoded = [
            edge
            for payload, _count in encode_all(edge_list)
            for edge in decode_edge_block(payload)
        ]
        assert decoded == edge_list

    @settings(max_examples=50)
    @given(edge_lists)
    def test_tagged_payloads_stay_off_the_fixed32_grid(self, edge_list):
        # the discrimination rule: len % 8 == 0 means raw fixed32, so a
        # compressed payload must never land on that grid
        for payload, _count in encode_all(edge_list):
            assert len(payload) % EDGE_BYTES != 0
            codec, _body = classify_edge_block(payload)
            assert codec == CODEC_DELTA_VARINT

    @settings(max_examples=50)
    @given(edge_lists)
    def test_counts_sum_to_input(self, edge_list):
        assert sum(c for _p, c in encode_all(edge_list)) == len(edge_list)

    def test_raw_fixed32_classified_without_tag(self):
        payload = pack_edges([(1, 2), (3, 4)])
        codec, body = classify_edge_block(payload)
        assert codec == CODEC_FIXED32
        assert body == payload
        assert decode_edge_block(payload) == [(1, 2), (3, 4)]

    def test_unknown_tag_rejected(self):
        # 9 bytes (off the grid) with an unassigned tag byte
        with pytest.raises(CorruptBlockError, match="codec tag"):
            classify_edge_block(b"\x7f" + b"\x00" * 8)

    def test_truncated_varint_stream_rejected(self):
        ((payload, _count),) = encode_all([(100000, 200000)])
        _codec, body = classify_edge_block(payload)
        with pytest.raises(CorruptBlockError, match="truncated varint"):
            decode_varint_columns(body[:-2])

    def test_overwide_varint_rejected(self):
        # count varint of ten 0x80 continuation bytes: > 64 bits
        with pytest.raises(CorruptBlockError, match="wider than 64 bits"):
            decode_varint_columns(b"\x80" * 10)

    def test_tenth_varint_byte_above_one_rejected(self):
        # a terminating 10th byte of 0x7f carries bits 63..69: a 70-bit
        # u delta
        with pytest.raises(CorruptBlockError, match="wider than 64 bits"):
            decode_varint_columns(b"\x01" + b"\x80" * 9 + b"\x7f" + b"\x02")

    def test_tenth_varint_byte_of_one_is_bit_63(self):
        # the widest legal varint still decodes: a count of 2**63
        with pytest.raises(CorruptBlockError, match="implausible edge count"):
            decode_varint_columns(b"\x80" * 9 + b"\x01")

    @pytest.mark.parametrize("body", [
        b"\x01\x80\x80\x80\x80\x20\x02",  # u = 2**32
        b"\x01\x02\xff\xff\xff\xff\x1f",  # v = -(2**32)
        b"\x01\x80\x80\x80\x80\x10\x02",  # u = 2**31
        # u deltas 2**31 - 1 then +1: each delta fits, the sum does not
        b"\x02\xfe\xff\xff\xff\x0f\x02\x00\x00",
    ], ids=["u-2^32", "v-minus-2^32", "u-2^31", "u-sum-2^31"])
    def test_endpoint_outside_int32_rejected(self, body):
        with pytest.raises(CorruptBlockError, match="outside int32"):
            decode_varint_columns(body)

    @settings(max_examples=30)
    @given(edge_lists, st.integers(min_value=16, max_value=256))
    def test_block_boundaries_fit_the_byte_budget(self, edge_list, budget):
        for payload, count in encode_all(edge_list, block_bytes=budget):
            # a single pathological edge may overflow, but never two
            assert count == 1 or len(payload) <= budget + 1  # +1 pad

    def test_single_edge_never_splits(self):
        encoder = DeltaVarintBlockEncoder(2)  # absurdly small budget
        assert encoder.add(2**31 - 1, -(2**31)) is None
        payload, count = encoder.flush()
        assert count == 1
        assert decode_edge_block(payload) == [(2**31 - 1, -(2**31))]


class TestEdgeFileUnderCodecs:
    @settings(max_examples=30)
    @given(edge_lists)
    def test_content_identical_across_codecs(self, edge_list):
        with BlockDevice(block_elements=7, block_codec="fixed32") as fixed, \
                BlockDevice(block_elements=7, block_codec="delta-varint") as compressed:
            assert edge_file_from_edges(fixed, edge_list).read_all() \
                == edge_file_from_edges(compressed, edge_list).read_all() \
                == edge_list

    def test_write_paths_share_block_boundaries(self, device_factory):
        """append / extend / extend_columns produce byte-identical files."""
        device = device_factory(block_elements=16, block_codec="delta-varint")
        edge_list = [(i // 3, (i * 17) % 101) for i in range(200)]

        by_append = device.create_edge_file()
        for u, v in edge_list:
            by_append.append(u, v)
        by_append.seal()

        by_extend = device.create_edge_file()
        by_extend.extend(edge_list)
        by_extend.seal()

        by_columns = device.create_edge_file()
        by_columns.extend_columns(
            [u for u, _ in edge_list], [v for _, v in edge_list]
        )
        by_columns.seal()

        with open(by_append.path, "rb") as handle:
            reference = handle.read()
        for clone in (by_extend, by_columns):
            with open(clone.path, "rb") as handle:
                assert handle.read() == reference
        assert by_append.block_count == by_extend.block_count \
            == by_columns.block_count

    def test_sorted_edges_compress_below_the_fixed32_block_count(
        self, device_factory
    ):
        edge_list = sorted((i % 500, (i * 3) % 500) for i in range(2000))
        fixed = edge_file_from_edges(
            device_factory(block_elements=64, block_codec="fixed32"), edge_list
        )
        compressed = edge_file_from_edges(
            device_factory(block_elements=64, block_codec="delta-varint"),
            edge_list,
        )
        assert compressed.read_all() == fixed.read_all()
        # the ISSUE gate: >= 1.5x fewer blocks per scan on sorted input
        assert compressed.block_count * 3 <= fixed.block_count * 2

    def test_scan_columns_matches_scan_under_compression(self, device_factory):
        device = device_factory(block_elements=8, block_codec="delta-varint")
        edge_list = [(i, i * 2) for i in range(50)]
        edge_file = edge_file_from_edges(device, edge_list)
        rebuilt = [
            (int(u), int(v))
            for u_col, v_col in edge_file.scan_columns()
            for u, v in zip(u_col, v_col)
        ]
        assert rebuilt == edge_list

    def test_corrupt_compressed_block_detected(self, device_factory):
        device = device_factory(block_elements=8, block_codec="delta-varint")
        edge_file = edge_file_from_edges(device, [(i, i + 1) for i in range(40)])
        with open(edge_file.path, "r+b") as handle:
            handle.seek(12)  # inside the first frame's payload
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptBlockError):
            edge_file.read_all()

    def test_truncated_tail_detected(self, device_factory):
        device = device_factory(block_elements=8, block_codec="delta-varint")
        edge_file = edge_file_from_edges(device, [(i, i + 1) for i in range(40)])
        with open(edge_file.path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 1)
        with pytest.raises(CorruptBlockError):
            edge_file.read_all()


#: A CRC-valid delta-varint payload the encoder would never write: tag,
#: count 1, u = zig-zag varint of 2**32, v = 1, pad.
OUT_OF_RANGE_PAYLOAD = bytes.fromhex("010180808080200200")


def adopt_payload(device, directory, payload):
    """A sealed one-block edge file holding exactly ``payload``, framed."""
    path = os.path.join(str(directory), "mis-assembled.edges")
    with open(path, "wb") as handle:
        handle.write(frame_block(payload))
    return EdgeFile.open_sealed(device, path, edge_count=1, block_count=1)


#: CRC-valid payloads off the fixed32 grid that open with the tag byte
#: 0x00, which no writer emits: the edge (1, 2) with and without one more
#: byte after it.
TAG_ZERO_PAYLOADS = {
    "10-bytes": bytes.fromhex("00" "01000000" "02000000" "07"),
    "9-bytes": bytes.fromhex("00" "01000000" "02000000"),
}


class TestMisassembledBlocks:
    """A CRC-valid block the encoder would never write (endpoints outside
    int32, an unknown codec tag) fails loudly on every read path, with the
    same error on both kernels."""

    def test_payload_is_a_delta_varint_block(self):
        assert classify_edge_block(OUT_OF_RANGE_PAYLOAD)[0] == CODEC_DELTA_VARINT

    def test_row_path_raises(self, tmp_path):
        with BlockDevice(directory=str(tmp_path)) as device:
            edge_file = adopt_payload(device, tmp_path, OUT_OF_RANGE_PAYLOAD)
            with pytest.raises(CorruptBlockError, match="outside int32"):
                list(edge_file.scan_blocks())
            with pytest.raises(CorruptBlockError, match="outside int32"):
                list(edge_file.scan())
        with pytest.raises(CorruptBlockError, match="outside int32"):
            decode_edge_block(OUT_OF_RANGE_PAYLOAD)

    @pytest.mark.parametrize("kernel", available_backends())
    def test_column_path_raises(self, tmp_path, kernel):
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file = adopt_payload(device, tmp_path, OUT_OF_RANGE_PAYLOAD)
            with pytest.raises(CorruptBlockError, match="outside int32"):
                list(edge_file.scan_columns())

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("name", sorted(TAG_ZERO_PAYLOADS))
    def test_tag_zero_row_path_raises(self, tmp_path, kernel, name):
        payload = TAG_ZERO_PAYLOADS[name]
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file = adopt_payload(device, tmp_path, payload)
            for scan in (edge_file.scan_blocks, edge_file.scan):
                with pytest.raises(CorruptBlockError, match="codec tag 0x00"):
                    list(scan())
        with pytest.raises(CorruptBlockError, match="codec tag 0x00"):
            decode_edge_block(payload)

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("name", sorted(TAG_ZERO_PAYLOADS))
    def test_tag_zero_column_path_raises(self, tmp_path, kernel, name):
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file = adopt_payload(device, tmp_path, TAG_ZERO_PAYLOADS[name])
            with pytest.raises(CorruptBlockError, match="codec tag 0x00"):
                list(edge_file.scan_columns())


def adopt_payloads(device, directory, payloads, edge_count):
    """A sealed edge file holding ``payloads`` as framed blocks, in order."""
    path = os.path.join(str(directory), "assembled.edges")
    with open(path, "wb") as handle:
        for payload in payloads:
            handle.write(frame_block(payload))
    return EdgeFile.open_sealed(device, path, edge_count, len(payloads))


def grouped_scan(edge_file, room):
    """``(edges per yield, the edges, reads, raw bytes, stored bytes)`` of
    one ``scan_columns(room)``."""
    stats = edge_file.device.stats
    before = stats.snapshot()
    sizes, scanned = [], []
    for u_col, v_col in edge_file.scan_columns(room):
        sizes.append(len(u_col))
        scanned.extend(zip(map(int, u_col), map(int, v_col)))
    delta = stats.snapshot() - before
    return (sizes, scanned, delta.reads, delta.edge_bytes_raw,
            delta.edge_bytes_stored)


#: Edges per block of a file mixing both codecs: runs of fixed32 blocks
#: and of delta-varint blocks, which a reader must accept per block.
MIXED_RUNS = [("fixed32", [5, 3]), ("delta-varint", [4, 6, 2]),
              ("fixed32", [7]), ("delta-varint", [1, 5])]


def mixed_file(device, directory):
    """``(edge_file, edges, block sizes, codec switch offsets)``."""
    payloads, edge_list, blocks, switches = [], [], [], []
    for codec, sizes in MIXED_RUNS:
        if edge_list:
            switches.append(len(edge_list))
        for size in sizes:
            chunk = [(len(edge_list) + i, 3 * i - 7) for i in range(size)]
            if codec == "fixed32":
                payloads.append(pack_edges(chunk))
            else:
                ((payload, _),) = encode_all(chunk, block_bytes=4096)
                payloads.append(payload)
            edge_list.extend(chunk)
            blocks.append(size)
    edge_file = adopt_payloads(device, directory, payloads, len(edge_list))
    return edge_file, edge_list, blocks, switches


class Rooms:
    """A ``scan_columns`` room that returns ``values`` in turn, round and
    round, and keeps every value it returned in ``asked``."""

    def __init__(self, values):
        self._values = itertools.cycle(values)
        self.asked = []

    def __call__(self):
        self.asked.append(next(self._values))
        return self.asked[-1]


def block_groups(sizes, blocks):
    """The block sizes in each yield of ``sizes``; every yield must end on
    a block boundary."""
    groups, position = [], 0
    for size in sizes:
        group = []
        while sum(group) < size:
            group.append(blocks[position])
            position += 1
        assert sum(group) == size  # whole blocks only
        groups.append(group)
    assert position == len(blocks)
    return groups


class TestGroupedScan:
    """``scan_columns(room)`` yields whole blocks together; only the
    grouping moves, never the edges, the reads or the bytes counted."""

    @pytest.mark.parametrize("kernel", available_backends())
    def test_mixed_codec_file_scans_alike_at_every_size(self, tmp_path, kernel):
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file, edge_list, blocks, switches = mixed_file(
                device, tmp_path
            )
            per_block = grouped_scan(edge_file, None)
            assert per_block[0] == blocks
            assert per_block[1] == edge_list
            assert per_block[2] == len(blocks)
            assert per_block[3] == len(edge_list) * EDGE_BYTES
            for max_edges in (0, 1, 4, 8, 9, 15, 33, len(edge_list)):
                sizes, *rest = grouped_scan(edge_file, lambda: max_edges)
                assert rest == list(per_block[1:])
                ends = [sum(sizes[: i + 1]) for i in range(len(sizes))]
                block_ends = [sum(blocks[: i + 1]) for i in range(len(blocks))]
                assert set(ends) <= set(block_ends)  # whole blocks only
                assert set(switches) <= set(ends)  # a codec switch closes
                for size in sizes:
                    assert size <= max_edges or size in blocks

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize(
        "values", [(9, 1, 33, 0), (0, 20, 4), (12, 2, 8, 40, 1)]
    )
    def test_a_room_changing_between_groups_sizes_each_group(
        self, tmp_path, kernel, values
    ):
        """The room is read once when each group starts; that value alone
        bounds the group, and a block read ahead opens the next group
        whatever room that group gets."""
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file, edge_list, blocks, switches = mixed_file(
                device, tmp_path
            )
            per_block = grouped_scan(edge_file, None)
            room = Rooms(values)
            sizes, *rest = grouped_scan(edge_file, room)
            assert rest == list(per_block[1:])
            groups = block_groups(sizes, blocks)
            ends = list(itertools.accumulate(sizes))
            assert set(switches) <= set(ends)  # a codec switch closes
            # read at the start and after each yield, the last one too
            # unless the scan ended with a group the file cut short
            assert len(room.asked) - len(groups) in (0, 1)
            for at, (group, limit) in enumerate(zip(groups, room.asked)):
                assert sum(group) <= limit or len(group) == 1
                if at + 1 < len(groups) and ends[at] not in switches:
                    # closed only where the next block would overflow it
                    assert sum(group) + groups[at + 1][0] > limit

    @staticmethod
    def malformed_payloads():
        """CRC-valid payloads no writer emits, each off the fixed32 grid."""
        good = encode_all([(i, 2 * i) for i in range(60)], block_bytes=24)
        truncated = good[0][0][:-3]
        if len(truncated) % EDGE_BYTES == 0:
            truncated = truncated[:-1]
        return good, {
            "out-of-range": OUT_OF_RANGE_PAYLOAD,
            "truncated": truncated,
            "tag-zero": TAG_ZERO_PAYLOADS["10-bytes"],
            # tag, then a count varint wider than 64 bits
            "count-too-wide": b"\x01" + b"\xff" * 10 + b"\x02",
        }

    def assert_grouped_scans_raise_alike(self, tmp_path, kernel, payloads):
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file = adopt_payloads(device, tmp_path, payloads, 1)
            with pytest.raises(CorruptBlockError) as per_block:
                list(edge_file.scan_columns())
            for max_edges in (1, 12, 10_000):
                with pytest.raises(CorruptBlockError) as grouped:
                    list(edge_file.scan_columns(lambda: max_edges))
                assert str(grouped.value) == str(per_block.value)
        return str(per_block.value)

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("position", [0, 2, 5])
    @pytest.mark.parametrize(
        "bad", ["out-of-range", "truncated", "tag-zero", "count-too-wide"]
    )
    def test_malformed_block_raises_as_the_per_block_scan(
        self, tmp_path, kernel, position, bad
    ):
        good, malformed = self.malformed_payloads()
        payloads = [payload for payload, _ in good][:5]
        payloads.insert(position, malformed[bad])
        self.assert_grouped_scans_raise_alike(tmp_path, kernel, payloads)

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("position", [0, 2, 5])
    @pytest.mark.parametrize(
        "bad", ["out-of-range", "truncated", "tag-zero", "count-too-wide"]
    )
    def test_malformed_block_raises_alike_under_a_changing_room(
        self, tmp_path, kernel, position, bad
    ):
        good, malformed = self.malformed_payloads()
        payloads = [payload for payload, _ in good][:5]
        payloads.insert(position, malformed[bad])
        with BlockDevice(directory=str(tmp_path), kernel=kernel) as device:
            edge_file = adopt_payloads(device, tmp_path, payloads, 1)
            with pytest.raises(CorruptBlockError) as per_block:
                list(edge_file.scan_columns())
            for values in ((9, 1, 33, 0), (0, 20, 4)):
                with pytest.raises(CorruptBlockError) as grouped:
                    list(edge_file.scan_columns(Rooms(values)))
                assert str(grouped.value) == str(per_block.value)

    @pytest.mark.parametrize("kernel", available_backends())
    def test_first_malformed_block_in_file_order_raises(self, tmp_path, kernel):
        """A broken count head read while a group fills does not pre-empt
        an earlier broken block of the same group."""
        good, malformed = self.malformed_payloads()
        payloads = [good[0][0], malformed["truncated"], good[1][0],
                    malformed["count-too-wide"], good[2][0]]
        message = self.assert_grouped_scans_raise_alike(
            tmp_path, kernel, payloads
        )
        assert "truncated" in message


class TestCompressionAccounting:
    def test_fixed32_ratio_is_one(self, device_factory):
        device = device_factory(block_elements=8, block_codec="fixed32")
        edge_file_from_edges(device, [(i, i) for i in range(32)])
        snapshot = device.stats.snapshot()
        assert snapshot.edge_bytes_raw == 32 * EDGE_BYTES
        assert snapshot.edge_bytes_stored == 32 * EDGE_BYTES
        assert snapshot.compression_ratio == 1.0

    def test_delta_varint_ratio_exceeds_one(self, device_factory):
        device = device_factory(block_elements=8, block_codec="delta-varint")
        edge_file = edge_file_from_edges(device, [(i, i) for i in range(256)])
        written = device.stats.snapshot()
        assert written.edge_bytes_raw == 256 * EDGE_BYTES
        assert 0 < written.edge_bytes_stored < written.edge_bytes_raw
        assert written.compression_ratio > 1.5
        # a scan charges the same raw/stored bytes again, symmetrically
        edge_file.read_all()
        scanned = device.stats.snapshot() - written
        assert scanned.edge_bytes_raw == written.edge_bytes_raw
        assert scanned.edge_bytes_stored == written.edge_bytes_stored

    def test_empty_device_ratio_is_one(self, device_factory):
        assert device_factory().stats.snapshot().compression_ratio == 1.0


class TestCodecInterop:
    """Reads are self-describing: the device codec only governs writes."""

    def test_fixed32_file_reads_under_delta_varint_device(self, tmp_path):
        edge_list = [(i, i * 5) for i in range(30)]
        with BlockDevice(block_elements=8, block_codec="fixed32",
                         directory=str(tmp_path)) as writer:
            sealed = edge_file_from_edges(writer, edge_list)
            path = sealed.path
            counts = (sealed.edge_count, sealed.block_count)
        with BlockDevice(block_elements=8, block_codec="delta-varint",
                         directory=str(tmp_path)) as reader:
            adopted = EdgeFile.open_sealed(reader, path, *counts)
            assert adopted.read_all() == edge_list

    def test_delta_varint_file_reads_under_fixed32_device(self, tmp_path):
        edge_list = [(i, i * 5) for i in range(30)]
        with BlockDevice(block_elements=8, block_codec="delta-varint",
                         directory=str(tmp_path)) as writer:
            sealed = edge_file_from_edges(writer, edge_list)
            path = sealed.path
            counts = (sealed.edge_count, sealed.block_count)
        with BlockDevice(block_elements=8, block_codec="fixed32",
                         directory=str(tmp_path)) as reader:
            adopted = EdgeFile.open_sealed(reader, path, *counts)
            assert adopted.read_all() == edge_list


class TestExternalSortUnderCompression:
    def test_sort_is_codec_agnostic(self, device_factory):
        edge_list = [((i * 7919) % 257, (i * 104729) % 263) for i in range(600)]
        fixed_device = device_factory(block_elements=16, block_codec="fixed32")
        fixed_sorted = sort_edge_file(
            fixed_device, edge_file_from_edges(fixed_device, edge_list),
            memory_edges=64,
        ).read_all()

        packed_device = device_factory(
            block_elements=16, block_codec="delta-varint"
        )
        packed_sorted = sort_edge_file(
            packed_device, edge_file_from_edges(packed_device, edge_list),
            memory_edges=64,
        ).read_all()

        assert fixed_sorted == packed_sorted == sorted(edge_list)
        # sorted runs are exactly what delta coding likes: fewer transfers
        assert packed_device.stats.total < fixed_device.stats.total
