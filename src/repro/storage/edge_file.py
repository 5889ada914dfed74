"""On-disk edge files: the representation of a graph's edge set on disk.

An :class:`EdgeFile` stores ``(u, v)`` pairs in blocks of
``device.block_elements`` edges.  Its life cycle is write-then-scan:

1. the file is created writable by
   :meth:`~repro.storage.block_device.BlockDevice.create_edge_file`;
2. edges are appended with :meth:`EdgeFile.append` /
   :meth:`EdgeFile.extend`;
3. :meth:`EdgeFile.seal` finishes writing, after which the file may be
   scanned any number of times (each scan paying ``ceil(m / B)`` read I/Os).

:class:`PartitionWriter` routes a single scan of a parent file into ``p``
part files — the one-pass division materialization used by Divide-Star and
Divide-TD.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..errors import ClosedFileError, StorageError
from .block_device import BlockDevice
from .serialization import (
    CODEC_FIXED32,
    EDGE_BYTES,
    DeltaVarintBlockEncoder,
    Edge,
    classify_edge_block,
    declared_edge_count,
    decode_edge_block,
    decode_varint_columns,
    pack_edges,
)


class EdgeFile:
    """A block-structured file of directed edges on a :class:`BlockDevice`.

    Not constructed directly; use
    :meth:`BlockDevice.create_edge_file`.

    The file is written under the device's edge-block codec
    (:attr:`BlockDevice.block_codec`) captured at creation time.  Under
    ``fixed32`` every block holds exactly ``block_elements`` edges (the
    legacy raw layout); under a compressed codec blocks hold as many
    edges as fit in the same byte budget, so a scan touches fewer
    blocks.  Reading is self-describing per block, so a device may scan
    files sealed under any codec.
    """

    def __init__(self, device: BlockDevice, path: str) -> None:
        self.device = device
        self.path = path
        self.codec = device.block_codec
        self._write_buffer: List[Edge] = []
        self._encoder: Optional[DeltaVarintBlockEncoder] = (
            None
            if self.codec == CODEC_FIXED32
            else DeltaVarintBlockEncoder(device.block_elements * EDGE_BYTES)
        )
        self._handle = open(path, "wb")
        self._sealed = False
        self._deleted = False
        self.edge_count = 0
        self.block_count = 0

    @classmethod
    def open_sealed(
        cls,
        device: BlockDevice,
        path: str,
        edge_count: int,
        block_count: int,
    ) -> "EdgeFile":
        """Adopt an already-sealed edge file written elsewhere.

        The normal constructor truncates ``path`` for writing; adoption
        instead re-binds a sealed file written by another device to
        ``device``, so every scan charges that device's
        :class:`~repro.storage.io_stats.IOStats`.  The caller supplies
        the counts the writer recorded — the file is never rescanned
        just to rediscover them.
        """
        if not os.path.exists(path):
            raise StorageError(f"cannot adopt edge file {path}: no such file")
        if edge_count < 0 or block_count < 0:
            raise StorageError("adopted edge/block counts must be non-negative")
        adopted = cls.__new__(cls)
        adopted.device = device
        adopted.path = path
        adopted.codec = device.block_codec
        adopted._write_buffer = []
        adopted._encoder = None
        handle = open(path, "rb")
        handle.close()
        adopted._handle = handle
        adopted._sealed = True
        adopted._deleted = False
        adopted.edge_count = edge_count
        adopted.block_count = block_count
        return adopted

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self._deleted:
            raise ClosedFileError(f"edge file {self.path} was deleted")
        if self.device.closed:
            raise ClosedFileError(
                f"edge file {self.path} belongs to a closed BlockDevice"
            )
        if self._sealed:
            raise StorageError(f"edge file {self.path} is sealed; cannot append")

    def _write_payload(self, payload: bytes, count: int) -> None:
        """Write one already-encoded edge-block payload holding ``count`` edges."""
        self.device.write_block(
            self._handle, payload, context=self.path,
            raw_bytes=count * EDGE_BYTES,
        )
        self.edge_count += count
        self.block_count += 1

    def append(self, u: int, v: int) -> None:
        """Append one edge.  Flushes a block when the buffer fills."""
        self._check_writable()
        if self._encoder is not None:
            emitted = self._encoder.add(u, v)
            if emitted is not None:
                self._write_payload(*emitted)
            return
        self._write_buffer.append((u, v))
        if len(self._write_buffer) >= self.device.block_elements:
            self._flush_block()

    def extend(self, edges: Iterable[Edge]) -> None:
        """Append many edges.

        Buffers in block-sized chunks and flushes whole blocks: one
        writability check and one ``islice`` per block instead of a
        method call (plus re-check) per edge.
        """
        self._check_writable()
        if self._encoder is not None:
            add = self._encoder.add
            write = self._write_payload
            for u, v in edges:
                emitted = add(u, v)
                if emitted is not None:
                    write(*emitted)
            return
        buffer = self._write_buffer
        block_elements = self.device.block_elements
        iterator = iter(edges)
        while True:
            chunk = list(islice(iterator, block_elements - len(buffer)))
            if not chunk:
                break
            buffer.extend(chunk)
            if len(buffer) >= block_elements:
                self._flush_block()

    def extend_columns(self, u_col: Sequence[int], v_col: Sequence[int]) -> None:
        """Append many edges given as ``(u, v)`` columns.

        The columnar fast path: block-aligned spans of the columns are
        packed directly by the device's kernel (no per-edge tuples); only
        the ragged head/tail goes through the tuple write buffer.  I/O
        charges are identical to :meth:`extend` — one write per block.
        """
        self._check_writable()
        if len(u_col) != len(v_col):
            raise ValueError(
                f"column length mismatch: {len(u_col)} vs {len(v_col)}"
            )
        if self._encoder is not None:
            # Compressed path: the encoder consumes plain ints edge by
            # edge (block boundaries depend on encoded sizes, not counts).
            u_list = u_col.tolist() if hasattr(u_col, "tolist") else u_col
            v_list = v_col.tolist() if hasattr(v_col, "tolist") else v_col
            add = self._encoder.add
            write = self._write_payload
            for u, v in zip(u_list, v_list):
                emitted = add(u, v)
                if emitted is not None:
                    write(*emitted)
            return
        buffer = self._write_buffer
        block_elements = self.device.block_elements
        total = len(u_col)
        position = 0
        if buffer:  # top the partial block up to a boundary first
            take = min(block_elements - len(buffer), total)
            buffer.extend(zip(u_col[:take], v_col[:take]))
            position = take
            if len(buffer) >= block_elements:
                self._flush_block()
        pack_columns = self.device.kernel.pack_edge_columns
        while total - position >= block_elements:
            stop = position + block_elements
            self.device.write_block(
                self._handle,
                pack_columns(u_col[position:stop], v_col[position:stop]),
                context=self.path,
                raw_bytes=block_elements * EDGE_BYTES,
            )
            self.edge_count += block_elements
            self.block_count += 1
            position = stop
        if position < total:
            buffer.extend(zip(u_col[position:], v_col[position:]))

    def _flush_block(self) -> None:
        if self._encoder is not None:
            flushed = self._encoder.flush()
            if flushed is not None:
                self._write_payload(*flushed)
            return
        if not self._write_buffer:
            return
        count = len(self._write_buffer)
        self.device.write_block(
            self._handle, pack_edges(self._write_buffer), context=self.path,
            raw_bytes=count * EDGE_BYTES,
        )
        self.edge_count += count
        self.block_count += 1
        self._write_buffer.clear()

    def seal(self) -> "EdgeFile":
        """Finish writing.  Idempotent; returns ``self`` for chaining."""
        if self._deleted:
            raise ClosedFileError(f"edge file {self.path} was deleted")
        if not self._sealed:
            self._flush_block()
            self._handle.close()
            self._sealed = True
        return self

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def sealed(self) -> bool:
        """Whether the file is finished and scannable."""
        return self._sealed

    def _check_readable(self) -> None:
        if self._deleted:
            raise ClosedFileError(f"edge file {self.path} was deleted")
        if self.device.closed:
            raise ClosedFileError(
                f"edge file {self.path} belongs to a closed BlockDevice"
            )
        if not self._sealed:
            raise StorageError(f"edge file {self.path} must be sealed before scanning")

    def scan_blocks(self) -> Iterator[List[Edge]]:
        """Yield one list of edges per block, charging one read I/O each.

        Each block is decoded by whatever codec it was written with (the
        payload is self-describing), so a device scans sealed files from
        any codec setting.

        Raises:
            CorruptBlockError: when a block's checksum failure persists
                across the device's retry budget.
        """
        self._check_readable()
        device = self.device
        with open(self.path, "rb") as handle:
            while True:
                data = device.read_block(handle, context=self.path)
                if data is None:
                    break
                block = decode_edge_block(data)
                device.stats.add_edge_bytes(len(block) * EDGE_BYTES, len(data))
                yield block

    def scan_columns(
        self, room: Optional[Callable[[], int]] = None
    ) -> Iterator[Tuple[Sequence[int], Sequence[int]]]:
        """Yield ``(u, v)`` columns of the file's blocks, charging one read
        I/O per block.

        The columnar twin of :meth:`scan_blocks`: the same bytes and the
        same I/O charges, but edges arrive as two flat int32 columns
        decoded by the device's kernel (numpy arrays on the vectorized
        backend, stdlib ``array`` columns on the pure-Python one) instead
        of lists of per-edge tuples.

        Without ``room`` each yield is one block.  With it, each yield
        holds the consecutive whole blocks whose edges together number at
        most ``room()`` — always at least one block, and never blocks of
        two codecs (a codec switch closes the group), so one kernel call
        sees a memory-load of edges instead of a block.  ``room`` is a
        zero-argument callable read once per group, when the group
        starts: at the start of the scan and again after each yield, so
        a caller whose free memory shrinks as it consumes a group (a
        restructure batch filling up) sizes the next group by what is
        left.  A group is yielded as soon as it is full; only a block
        that would overflow it is read ahead, and it opens the next
        group.  Every block is still one ``read_block``, and its edge
        bytes are counted.

        A delta-varint group goes to the kernel's
        ``unpack_varint_columns`` first; when the kernel declines it (the
        python kernel always does, numpy any body the encoder would not
        write), the scalar :func:`decode_varint_columns` decodes its
        bodies one by one or raises, so both kernels yield equal columns
        and raise the same error on the same block.

        Raises:
            CorruptBlockError: a checksum failure that persists across
                the device's retry budget, or a malformed block body.
        """
        self._check_readable()
        device = self.device
        ask = (lambda: 0) if room is None else room
        limit = ask()
        codec = CODEC_FIXED32
        bodies: List[bytes] = []
        loaded = stored = 0
        with open(self.path, "rb") as handle:
            while True:
                data = device.read_block(handle, context=self.path)
                if data is None:
                    break
                block_codec, body = classify_edge_block(data)
                count = declared_edge_count(block_codec, body)
                if bodies and (
                    block_codec != codec or loaded + count > limit
                ):
                    yield self._group_columns(codec, bodies, stored)
                    bodies = []
                    loaded = stored = 0
                    limit = ask()
                codec = block_codec
                bodies.append(body)
                loaded += count
                stored += len(data)
                if loaded >= limit:  # full: yield before reading on
                    yield self._group_columns(codec, bodies, stored)
                    bodies = []
                    loaded = stored = 0
                    limit = ask()
        if bodies:
            yield self._group_columns(codec, bodies, stored)

    def _group_columns(
        self, codec: str, bodies: List[bytes], stored: int
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Decode one group of same-codec block bodies into ``(u, v)``
        columns and count its edge bytes: raw, and ``stored`` on disk."""
        kernel = self.device.kernel
        if codec == CODEC_FIXED32:
            columns = kernel.unpack_edge_columns(b"".join(bodies))
        else:
            decoded = kernel.unpack_varint_columns(bodies)
            if decoded is None:
                u_values: List[int] = []
                v_values: List[int] = []
                for body in bodies:
                    us, vs = decode_varint_columns(body)
                    u_values += us
                    v_values += vs
                decoded = kernel.make_columns(u_values, v_values)
            columns = decoded
        self.device.stats.add_edge_bytes(len(columns[0]) * EDGE_BYTES, stored)
        return columns

    def scan(self) -> Iterator[Edge]:
        """Yield every edge in file order, charging one read I/O per block."""
        for block in self.scan_blocks():
            yield from block

    def read_all(self) -> List[Edge]:
        """Read the whole file into memory (charging the full scan cost)."""
        edges: List[Edge] = []
        for block in self.scan_blocks():
            edges.extend(block)
        return edges

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def delete(self) -> None:
        """Remove the backing file.  Safe to call more than once."""
        if self._deleted:
            return
        if not self._sealed and not self._handle.closed:
            self._handle.close()
        self._deleted = True
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return self.edge_count

    def __repr__(self) -> str:
        state = "deleted" if self._deleted else ("sealed" if self._sealed else "writable")
        return (
            f"EdgeFile({os.path.basename(self.path)!r}, edges={self.edge_count}, "
            f"blocks={self.block_count}, {state})"
        )


def edge_file_from_edges(device: BlockDevice, edges: Iterable[Edge]) -> EdgeFile:
    """Write ``edges`` to a fresh sealed :class:`EdgeFile` on ``device``.

    On any error the partial file is deleted before the error propagates.
    """
    edge_file = device.create_edge_file()
    try:
        edge_file.extend(edges)
        return edge_file.seal()
    finally:
        if not edge_file.sealed:
            edge_file.delete()


class PartitionWriter:
    """Route edges into ``p`` part files during a single scan.

    Parts are addressed by arbitrary hashable keys (subgraph indices).  Each
    part buffers one block and pays write I/Os exactly as a standalone
    :class:`EdgeFile` would — the paper's division step writes each surviving
    edge back to disk exactly once.
    """

    def __init__(self, device: BlockDevice, part_keys: Sequence[object]) -> None:
        if len(set(part_keys)) != len(part_keys):
            raise ValueError("part keys must be unique")
        self.device = device
        self._parts: Dict[object, EdgeFile] = {
            key: device.create_edge_file() for key in part_keys
        }

    def route_columns(
        self, key: object, u_col: Sequence[int], v_col: Sequence[int]
    ) -> None:
        """Append whole ``(u, v)`` columns to the part addressed by ``key``.

        One call per (part, block) span; the bytes and write I/Os are
        those of appending the edges one at a time.
        """
        try:
            part = self._parts[key]
        except KeyError:
            raise KeyError(f"unknown partition key: {key!r}") from None
        part.extend_columns(u_col, v_col)

    def seal(self) -> Dict[object, EdgeFile]:
        """Seal all parts and return the ``key -> EdgeFile`` mapping."""
        return {key: part.seal() for key, part in self._parts.items()}

    def discard(self) -> None:
        """Delete all part files (used on error paths)."""
        for part in self._parts.values():
            part.delete()
