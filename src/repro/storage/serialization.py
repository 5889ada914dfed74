"""Fixed-width binary codecs for on-disk graph data.

Edges are stored as pairs of little-endian signed 32-bit integers (8 bytes
per edge).  Signed width leaves headroom for virtual node ids, which the
library allocates *above* the real node range but well inside 2**31; the
codec validates the range on encode so corruption is caught at write time
rather than at a confusing distance later.

Every block written through :class:`~repro.storage.BlockDevice` is wrapped
in a self-describing *frame*::

    <u32 payload_len> <u32 crc32(payload)> <payload_len payload bytes>

The 8-byte header makes a torn or bit-flipped block *detectable* — a read
either returns exactly the bytes that were written or raises
:class:`~repro.errors.CorruptBlockError` — and makes partial final blocks
self-delimiting without relying on the file size.  Framing is invisible to
the logical I/O accounting: one frame is one block is one I/O charge.

Edge-block payloads come in two codecs (block format v2, see
docs/ARCHITECTURE.md):

* ``fixed32`` — the legacy raw layout: ``count`` interleaved ``<ii``
  pairs, 8 bytes per edge, no tag.  Bit-identical to every file the
  library ever sealed.
* ``delta-varint`` — a tagged compressed layout::

      0x01 <uvarint count> <u-stream> <v-stream> [0x00 pad]

  where each stream is ``count`` LEB128 varints of zig-zag-encoded
  deltas between consecutive endpoints (``prev`` starts at 0 per block,
  so every block decodes standalone).  The optional pad byte keeps the
  payload length from being a multiple of 8.

The two coexist per *block*: a reader looks at ``len(payload) % 8`` —
``0`` means legacy raw fixed32, anything else means the first byte is a
codec tag.  Old sealed files therefore read unchanged under any codec
setting, and a file may legally mix blocks of both kinds.
"""

from __future__ import annotations

import os
import struct
import zlib
from itertools import chain
from operator import index as _as_int
from typing import List, Optional, Sequence, Tuple

from ..errors import CorruptBlockError, ReproError

Edge = Tuple[int, int]

_EDGE = struct.Struct("<ii")
_INT = struct.Struct("<i")

EDGE_BYTES = _EDGE.size
INT_BYTES = _INT.size

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

#: Per-block frame header: payload length, CRC-32 of the payload.
FRAME_HEADER = struct.Struct("<II")
FRAME_HEADER_BYTES = FRAME_HEADER.size

#: Upper bound on a sane frame payload (64 MiB) — a corrupt length field
#: must not turn into a gigabyte allocation.
MAX_FRAME_PAYLOAD = 1 << 26

#: Edge-block codec names.  ``fixed32`` writes the legacy raw layout
#: (bit-identical to pre-codec files); ``delta-varint`` writes tagged
#: zig-zag-delta + LEB128 compressed blocks.
CODEC_FIXED32 = "fixed32"
CODEC_DELTA_VARINT = "delta-varint"
BLOCK_CODECS: Tuple[str, ...] = (CODEC_FIXED32, CODEC_DELTA_VARINT)

#: Environment variable consulted when no explicit codec is requested.
BLOCK_CODEC_ENV_VAR = "REPRO_BLOCK_CODEC"

#: Codec tag byte (first payload byte of a *tagged* edge block; raw
#: fixed32 blocks carry no tag and are recognised by ``len % 8 == 0``).
CODEC_TAG_DELTA_VARINT = 0x01


def resolve_block_codec(name: Optional[str] = None) -> str:
    """Resolve an edge-block codec name (or ``None``) to a known codec.

    ``None`` falls back to ``$REPRO_BLOCK_CODEC``, then ``fixed32``.

    Raises:
        ReproError: for an unknown codec name.
    """
    if name is None:
        name = os.environ.get(BLOCK_CODEC_ENV_VAR) or CODEC_FIXED32
    name = name.strip().lower()
    if name not in BLOCK_CODECS:
        known = ", ".join(BLOCK_CODECS)
        raise ReproError(f"unknown block codec {name!r}; known: {known}")
    return name


def frame_block(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length + CRC-32 frame header.

    Raises:
        ValueError: on an empty or oversized payload (frames always carry
            at least one element; emptiness would be indistinguishable
            from zeroed disk space).
    """
    if not payload:
        raise ValueError("cannot frame an empty block payload")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(f"block payload of {len(payload)} bytes exceeds the frame limit")
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def parse_frame_header(header: bytes, context: str = "block") -> Tuple[int, int]:
    """Decode and sanity-check a frame header read from disk.

    Returns:
        ``(payload_len, crc32)``.

    Raises:
        CorruptBlockError: on a truncated header or an insane length.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise CorruptBlockError(
            f"{context}: truncated frame header ({len(header)} of "
            f"{FRAME_HEADER_BYTES} bytes)"
        )
    payload_len, crc = FRAME_HEADER.unpack(header)
    if payload_len == 0 or payload_len > MAX_FRAME_PAYLOAD:
        raise CorruptBlockError(
            f"{context}: frame header claims an invalid payload length "
            f"({payload_len} bytes)"
        )
    return payload_len, crc


def verify_frame_payload(payload: bytes, expected_len: int, expected_crc: int,
                         context: str = "block") -> None:
    """Check a frame payload against its header.

    Raises:
        CorruptBlockError: when the payload is truncated or its CRC-32
            does not match the header.
    """
    if len(payload) != expected_len:
        raise CorruptBlockError(
            f"{context}: truncated frame payload ({len(payload)} of "
            f"{expected_len} bytes)"
        )
    if zlib.crc32(payload) != expected_crc:
        raise CorruptBlockError(f"{context}: frame checksum mismatch")


def pack_edges(edges: Sequence[Edge]) -> bytes:
    """Serialize a sequence of ``(u, v)`` pairs to bytes.

    The whole block is packed with one ``struct.pack`` call over a single
    flattening pass; ``struct`` itself performs the int32 range check, so
    the happy path never walks the data twice.  Only a failed pack pays a
    second walk to name the offending edge.

    Raises:
        ValueError: if any endpoint falls outside the signed 32-bit range.
    """
    flat = list(chain.from_iterable(edges))
    if not flat:
        return b""
    try:
        return struct.pack(f"<{len(flat)}i", *flat)
    except struct.error as error:
        for edge in edges:
            if not (
                _INT32_MIN <= edge[0] <= _INT32_MAX
                and _INT32_MIN <= edge[1] <= _INT32_MAX
            ):
                raise ValueError(
                    f"edge endpoint out of int32 range: {edge}"
                ) from None
        raise error  # non-integer value: not a range problem, re-raise as-is


def unpack_edges(data: bytes) -> List[Edge]:
    """Deserialize bytes produced by :func:`pack_edges`.

    Raises:
        ValueError: if ``data`` is not a whole number of edge records.
    """
    if len(data) % EDGE_BYTES:
        raise ValueError(
            f"byte length {len(data)} is not a multiple of the edge size {EDGE_BYTES}"
        )
    return list(_EDGE.iter_unpack(data))


def pack_ints(values: Sequence[int]) -> bytes:
    """Serialize a sequence of 32-bit signed ints (artifact int columns).

    One ``struct.pack`` call, no separate range pass — like
    :func:`pack_edges`, only a failed pack walks the data again to name
    the out-of-range value.
    """
    if not values:
        return b""
    try:
        return struct.pack(f"<{len(values)}i", *values)
    except struct.error as error:
        for value in values:
            if not _INT32_MIN <= value <= _INT32_MAX:
                raise ValueError(f"value out of int32 range: {value}") from None
        raise error


def unpack_ints(data: bytes) -> List[int]:
    """Deserialize bytes produced by :func:`pack_ints`."""
    if len(data) % INT_BYTES:
        raise ValueError(
            f"byte length {len(data)} is not a multiple of the int size {INT_BYTES}"
        )
    return [value for (value,) in _INT.iter_unpack(data)]


# ----------------------------------------------------------------------
# delta-varint edge-block codec (block format v2)
# ----------------------------------------------------------------------
def _zigzag(value: int) -> int:
    """Map a signed int to an unsigned one with small absolute values first."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def _uvarint_len(value: int) -> int:
    """Encoded byte length of an unsigned LEB128 varint."""
    length = 1
    while value >= 0x80:
        value >>= 7
        length += 1
    return length


def _append_uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, position: int, context: str) -> Tuple[int, int]:
    """Decode one LEB128 varint; returns ``(value, next_position)``.

    Raises:
        CorruptBlockError: truncated stream or a varint wider than 64 bits
            (a CRC-valid frame can still be mis-assembled by a buggy
            writer; the decoder must fail loudly, not mis-decode).  A
            10th byte may carry only bit 63: above 1 it is too wide.
    """
    value = 0
    shift = 0
    while True:
        if position >= len(data):
            raise CorruptBlockError(f"{context}: truncated varint stream")
        byte = data[position]
        position += 1
        if shift == 63 and byte > 1:
            raise CorruptBlockError(f"{context}: varint wider than 64 bits")
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, position
        shift += 7


def classify_edge_block(payload: bytes) -> Tuple[str, bytes]:
    """Split a sealed edge-block payload into ``(codec_name, body)``.

    Legacy raw fixed32 blocks (``len % 8 == 0``) have no tag and the body
    *is* the payload; tagged blocks strip the leading codec tag byte.

    Raises:
        CorruptBlockError: unknown codec tag.
        ValueError: empty payload (frames never carry one).
    """
    if not payload:
        raise ValueError("empty edge block payload")
    if len(payload) % EDGE_BYTES == 0:
        return CODEC_FIXED32, payload
    tag = payload[0]
    if tag != CODEC_TAG_DELTA_VARINT:
        raise CorruptBlockError(f"unknown edge-block codec tag {tag:#04x}")
    return CODEC_DELTA_VARINT, payload[1:]


def decode_varint_columns(body: bytes) -> Tuple[List[int], List[int]]:
    """Decode a (tag-stripped) delta-varint body into ``(u, v)`` columns.

    Trailing bytes beyond the two streams (the anti-alignment pad) are
    ignored — the leading count delimits the streams exactly.

    This scalar decoder is the reference the numpy kernel's
    ``unpack_varint_columns`` is tested against, the python kernel's
    path, and the only delta-varint decoder that raises.

    Raises:
        CorruptBlockError: truncated or malformed varint streams, or an
            endpoint outside int32 (the encoder refuses those, so such a
            block was mis-assembled).
    """
    context = "delta-varint block"
    count, position = _read_uvarint(body, 0, context)
    if count > MAX_FRAME_PAYLOAD:
        raise CorruptBlockError(f"{context}: implausible edge count {count}")
    us: List[int] = []
    vs: List[int] = []
    for column in (us, vs):
        previous = 0
        append = column.append
        for _ in range(count):
            encoded, position = _read_uvarint(body, position, context)
            previous += _unzigzag(encoded)
            append(previous)
        if column and (min(column) < _INT32_MIN or max(column) > _INT32_MAX):
            raise CorruptBlockError(f"{context}: endpoint outside int32")
    return us, vs


def decode_edge_block(payload: bytes) -> List[Edge]:
    """Decode one sealed edge-block payload (either codec) into edge tuples.

    Raises:
        CorruptBlockError: unknown codec tag or malformed compressed body.
        ValueError: a fixed32 body that is not whole edge records.
    """
    codec, body = classify_edge_block(payload)
    if codec == CODEC_FIXED32:
        return unpack_edges(body)
    us, vs = decode_varint_columns(body)
    return list(zip(us, vs))


class DeltaVarintBlockEncoder:
    """Incremental greedy packer of edges into ``delta-varint`` payloads.

    Unlike fixed32 blocks (always ``block_elements`` edges), compressed
    blocks hold however many edges fit in the same *byte* budget
    (``block_elements * EDGE_BYTES``), which is what turns compression
    into fewer blocks per scan.  The packing is a deterministic function
    of the edge sequence alone — append one at a time or in bulk, the
    block boundaries are identical.

    :meth:`add` returns a finished ``(payload, edge_count)`` pair when
    appending the edge closed the previous block, else ``None``;
    :meth:`flush` drains the remainder.  A single edge never splits: a
    block always holds at least one edge, even if a pathological delta
    overflows a tiny byte budget.
    """

    __slots__ = (
        "block_bytes", "_u_stream", "_v_stream", "_count",
        "_prev_u", "_prev_v",
    )

    def __init__(self, block_bytes: int) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes
        self._u_stream = bytearray()
        self._v_stream = bytearray()
        self._count = 0
        self._prev_u = 0
        self._prev_v = 0

    def _reset(self) -> None:
        self._u_stream.clear()
        self._v_stream.clear()
        self._count = 0
        self._prev_u = 0
        self._prev_v = 0

    def _payload(self) -> bytes:
        head = bytearray((CODEC_TAG_DELTA_VARINT,))
        _append_uvarint(head, self._count)
        payload = bytes(head) + bytes(self._u_stream) + bytes(self._v_stream)
        if len(payload) % EDGE_BYTES == 0:
            payload += b"\x00"  # keep tagged payloads off the raw-fixed32 grid
        return payload

    def add(self, u: int, v: int) -> Optional[Tuple[bytes, int]]:
        """Append one edge; returns a completed block when one closed.

        Raises:
            ValueError: endpoint outside the signed 32-bit range.
            TypeError: non-integer endpoint.
        """
        u = _as_int(u)
        v = _as_int(v)
        if not (
            _INT32_MIN <= u <= _INT32_MAX and _INT32_MIN <= v <= _INT32_MAX
        ):
            raise ValueError(f"edge endpoint out of int32 range: {(u, v)}")
        flushed: Optional[Tuple[bytes, int]] = None
        if self._count:
            cost = (
                _uvarint_len(_zigzag(u - self._prev_u))
                + _uvarint_len(_zigzag(v - self._prev_v))
            )
            size = (
                1  # tag
                + _uvarint_len(self._count + 1)
                + len(self._u_stream) + len(self._v_stream)
                + cost
            )
            if size > self.block_bytes:
                flushed = (self._payload(), self._count)
                self._reset()
        _append_uvarint(self._u_stream, _zigzag(u - self._prev_u))
        _append_uvarint(self._v_stream, _zigzag(v - self._prev_v))
        self._prev_u = u
        self._prev_v = v
        self._count += 1
        return flushed

    def flush(self) -> Optional[Tuple[bytes, int]]:
        """Close the open block, if any, and return it."""
        if not self._count:
            return None
        finished = (self._payload(), self._count)
        self._reset()
        return finished
