"""Unit + property tests for the binary edge/int codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.serialization import (
    EDGE_BYTES,
    INT_BYTES,
    pack_edges,
    pack_ints,
    unpack_edges,
    unpack_ints,
)

int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
edges = st.tuples(int32s, int32s)


class TestEdgeCodec:
    def test_empty(self):
        assert pack_edges([]) == b""
        assert unpack_edges(b"") == []

    def test_known_bytes(self):
        data = pack_edges([(1, 2)])
        assert len(data) == EDGE_BYTES
        assert data == b"\x01\x00\x00\x00\x02\x00\x00\x00"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_edges([(2**31, 0)])
        with pytest.raises(ValueError):
            pack_edges([(0, -(2**31) - 1)])

    def test_partial_record_rejected(self):
        with pytest.raises(ValueError):
            unpack_edges(b"\x00" * (EDGE_BYTES + 1))

    @given(st.lists(edges, max_size=200))
    def test_roundtrip(self, edge_list):
        assert unpack_edges(pack_edges(edge_list)) == edge_list


class TestIntCodec:
    def test_known_bytes(self):
        assert pack_ints([-1]) == b"\xff\xff\xff\xff"
        assert len(pack_ints([7])) == INT_BYTES

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_ints([2**31])

    def test_partial_record_rejected(self):
        with pytest.raises(ValueError):
            unpack_ints(b"\x00" * 3)

    @given(st.lists(int32s, max_size=200))
    def test_roundtrip(self, values):
        assert unpack_ints(pack_ints(values)) == values
