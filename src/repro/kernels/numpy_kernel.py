"""The optional NumPy kernel backend: columnar codecs + vectorized classify.

Blocks move as flat little-endian int32 arrays (``frombuffer`` in,
``tobytes`` out; delta-varint bodies decode by array arithmetic too) and
classification happens with whole-block mask arithmetic against a
*dense* interval index — ``pre`` / ``size`` / ``parent`` as arrays
indexed by node id, filled straight from the tree's
:class:`~repro.core.classify.Preorder` without a dict index — so only
the rare cross edges drop back into Python objects.  Every index (tree,
cut labels, part owners) has ``max(id) + 1`` slots: a run's ids are
``0..n-1`` plus virtual ids allocated upward from ``n``, so the arrays
stay ``O(n)``.  Importing this module requires numpy; the registry in
:mod:`repro.kernels.base` treats the ImportError as "backend
unavailable".
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from ..core.classify import CutLabels, Preorder
from ..core.tree import SpanningTree
from .base import ClassifiedSlice

EDGE_BYTES = 8  # two little-endian signed 32-bit ints

_EDGE_DTYPE = np.dtype("<i4")
_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

#: Longest varint the delta-varint encoder writes: the zig-zag of an
#: int32 delta has at most 33 bits, five 7-bit groups (an edge count,
#: bounded by the frame size, needs four).
_VARINT32_BYTES = 5


class DenseIntervalIndex:
    """Array-backed ``pre`` / ``size`` / ``parent`` keyed by node id.

    Holes (ids absent from the tree, or not reachable from its root)
    carry ``-1`` in ``pre``/``size`` and ``-1`` in ``parent``; well-formed
    inputs never read them, exactly as the dict index would raise
    ``KeyError`` on a foreign node.
    """

    __slots__ = ("pre", "size", "parent")

    def __init__(
        self,
        pre: "npt.NDArray[np.int64]",
        size: "npt.NDArray[np.int64]",
        parent: "npt.NDArray[np.int64]",
    ) -> None:
        self.pre: "npt.NDArray[np.int64]" = pre
        self.size: "npt.NDArray[np.int64]" = size
        self.parent: "npt.NDArray[np.int64]" = parent


class DenseCutIndex:
    """Array-backed :class:`~repro.core.classify.CutLabels`.

    ``label`` is keyed by node id (``-1`` in holes), ``end`` and ``order``
    by cut number, so only ``label`` scales with the id range.
    """

    __slots__ = ("label", "end", "order")

    def __init__(
        self,
        label: "npt.NDArray[np.int64]",
        end: "npt.NDArray[np.int64]",
        order: "npt.NDArray[np.int64]",
    ) -> None:
        self.label: "npt.NDArray[np.int64]" = label
        self.end: "npt.NDArray[np.int64]" = end
        self.order: "npt.NDArray[np.int64]" = order


def _dense_column(
    keyed: Mapping[int, Optional[int]], length: int
) -> "npt.NDArray[np.int64]":
    """``keyed`` as an array of ``length`` slots; holes and ``None`` are -1."""
    column = np.full(length, -1, dtype=np.int64)
    if keyed:
        keys = np.fromiter(keyed.keys(), dtype=np.int64, count=len(keyed))
        values = np.fromiter(
            (-1 if v is None else v for v in keyed.values()),
            dtype=np.int64,
            count=len(keyed),
        )
        column[keys] = values
    return column


class NumpyKernel:
    """Vectorized columnar backend (requires numpy)."""

    name = "numpy"

    # -- codecs --------------------------------------------------------
    def unpack_edge_columns(
        self, data: bytes
    ) -> Tuple["npt.NDArray[np.int32]", "npt.NDArray[np.int32]"]:
        """Split packed edge bytes into ``(u, v)`` int32 column views."""
        if len(data) % EDGE_BYTES:
            raise ValueError(
                f"byte length {len(data)} is not a multiple of the edge "
                f"size {EDGE_BYTES}"
            )
        flat = np.frombuffer(data, dtype=_EDGE_DTYPE)
        return flat[0::2], flat[1::2]

    def unpack_varint_columns(
        self, body: bytes
    ) -> Optional[
        Tuple["npt.NDArray[np.int32]", "npt.NDArray[np.int32]"]
    ]:
        """Decode a tag-stripped delta-varint body in one array pass.

        The body is ``<uvarint count> <u-stream> <v-stream> [pad]``, each
        stream ``count`` LEB128 varints of zig-zag deltas from 0.  The
        first ``2·count`` bytes below ``0x80`` end the stream varints;
        each varint's 7-bit groups are shifted into place and summed with
        ``reduceat``, un-zig-zagged, and prefix-summed per stream.

        Returns ``None`` for every body the encoder would not write — a
        count varint over 5 bytes, a count of 0, fewer than ``2·count``
        stream varints, a stream varint over 5 bytes, an endpoint outside
        int32 — so the caller's scalar decoder decodes it or raises.
        """
        count = 0
        for position, byte in enumerate(body[:_VARINT32_BYTES]):
            count |= (byte & 0x7F) << (7 * position)
            if byte < 0x80:
                break
        else:
            return None  # truncated, or a count varint over 5 bytes
        if count == 0:
            return None
        streams = np.frombuffer(body, dtype=np.uint8, offset=position + 1)
        ends = np.flatnonzero(streams < 0x80)
        if len(ends) < 2 * count:
            return None
        ends = ends[: 2 * count]
        starts = np.empty_like(ends)
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        lengths = ends - starts + 1
        if int(lengths.max()) > _VARINT32_BYTES:
            return None
        used = streams[: ends[-1] + 1]
        shifts = 7 * (np.arange(len(used)) - np.repeat(starts, lengths))
        encoded = np.add.reduceat(
            (used & 0x7F).astype(np.int64) << shifts, starts
        )
        deltas = (encoded >> 1) ^ -(encoded & 1)
        values = np.cumsum(deltas.reshape(2, count), axis=1)
        if int(values.min()) < _INT32_MIN or int(values.max()) > _INT32_MAX:
            return None
        columns = values.astype(_EDGE_DTYPE)
        return columns[0], columns[1]

    def pack_edge_columns(
        self, u_col: "npt.ArrayLike", v_col: "npt.ArrayLike"
    ) -> bytes:
        """Interleave two int32 columns back into on-disk edge bytes.

        Raises:
            ValueError: mismatched lengths or out-of-int32-range values.
        """
        us = self._as_int32(u_col)
        vs = self._as_int32(v_col)
        if len(us) != len(vs):
            raise ValueError(
                f"column length mismatch: {len(us)} vs {len(vs)}"
            )
        flat = np.empty(2 * len(us), dtype=_EDGE_DTYPE)
        flat[0::2] = us
        flat[1::2] = vs
        return flat.tobytes()

    def pack_int_column(self, values: "npt.ArrayLike") -> bytes:
        """Pack one int sequence into little-endian int32 bytes.

        Raises:
            ValueError: out-of-int32-range values.
        """
        try:
            return self._as_int32(values).tobytes()
        except ValueError as error:
            if "edge endpoint" in str(error):
                raise ValueError("column value out of int32 range") from None
            raise

    def int_column_from_buffer(
        self, buffer: "npt.ArrayLike", offset: int, count: int
    ) -> "npt.NDArray[np.int32]":
        """Zero-copy int32 view of ``count`` values at element ``offset``.

        The view aliases ``buffer`` — consume or copy it before the
        underlying memory is released.
        """
        return np.frombuffer(
            buffer, dtype=_EDGE_DTYPE, count=count, offset=offset * 4
        )

    @staticmethod
    def _as_int32(column: "npt.ArrayLike") -> "npt.NDArray[np.int32]":
        arr = np.asarray(column)
        if arr.ndim != 1:
            raise ValueError("edge columns must be one-dimensional")
        if arr.dtype == _EDGE_DTYPE:
            return arr  # int32 by construction, nothing to check
        try:
            wide = arr.astype(np.int64, casting="safe") if arr.size else arr
        except (TypeError, ValueError):
            raise ValueError("edge columns must hold integers") from None
        if arr.size and (
            int(wide.min()) < _INT32_MIN or int(wide.max()) > _INT32_MAX
        ):
            raise ValueError("edge endpoint out of int32 range")
        return wide.astype(_EDGE_DTYPE) if arr.size else arr.astype(_EDGE_DTYPE)

    # -- classification ------------------------------------------------
    def make_index(
        self, tree: SpanningTree, preorder: Optional[Preorder] = None
    ) -> DenseIntervalIndex:
        """Dense index over ``tree``: columns of ``max(id) + 1`` slots,
        filled by scattering the preorder's positions, subtree sizes and
        parents into them with the node array."""
        nodes, ends = preorder if preorder is not None else Preorder.of(tree)
        count = len(nodes)
        length = max(tree.parent, default=-1) + 1
        ids = np.array(nodes, dtype=np.int64)
        positions = np.arange(count, dtype=np.int64)
        pre = np.full(length, -1, dtype=np.int64)
        pre[ids] = positions
        size = np.full(length, -1, dtype=np.int64)
        size[ids] = np.array(ends, dtype=np.int64) - positions
        parent = np.full(length, -1, dtype=np.int64)
        # Only the root (first in preorder) has no parent.
        parent[ids[1:]] = np.fromiter(
            map(tree.parent.__getitem__, nodes[1:]),
            dtype=np.int64,
            count=max(count - 1, 0),
        )
        return DenseIntervalIndex(pre=pre, size=size, parent=parent)

    def classify_slice(
        self,
        index: DenseIntervalIndex,
        u_col: "npt.NDArray[np.int32]",
        v_col: "npt.NDArray[np.int32]",
        start: int,
        capacity: int,
    ) -> ClassifiedSlice:
        """Vectorized twin of ``PythonKernel.classify_slice``.

        Whole-slice mask arithmetic; when the batch capacity lands inside
        the slice, a cumulative count pinpoints the exact edge the scalar
        loop would have flushed after, so batch boundaries are identical.
        """
        u = u_col[start:] if start else u_col
        v = v_col[start:] if start else v_col
        pre_u = index.pre[u]
        pre_v = index.pre[v]
        counted_mask = (u != v) & (index.parent[v] != u)
        ahead = pre_u < pre_v
        forward_cross = counted_mask & ahead & (pre_v >= pre_u + index.size[u])
        backward_cross = (
            counted_mask & ~ahead & (pre_u >= pre_v + index.size[v])
        )
        total = int(np.count_nonzero(counted_mask))
        if total >= capacity:
            cumulative = np.cumsum(counted_mask)
            cut = int(np.searchsorted(cumulative, capacity, side="left")) + 1
            counted = capacity
            stop = start + cut
            forward_cross = forward_cross[:cut]
            backward_cross = backward_cross[:cut]
            u = u[:cut]
            v = v[:cut]
        else:
            counted = total
            stop = len(u_col)
        has_forward_cross = bool(forward_cross.any())
        cross_mask = forward_cross | backward_cross
        cross: List[Tuple[int, int]] = []
        if cross_mask.any():
            positions = np.nonzero(cross_mask)[0]
            cross = list(zip(u[positions].tolist(), v[positions].tolist()))
        return stop, counted, has_forward_cross, cross

    # -- division primitives -------------------------------------------
    def make_columns(
        self, u_values: "npt.ArrayLike", v_values: "npt.ArrayLike"
    ) -> Tuple["npt.NDArray[np.int32]", "npt.NDArray[np.int32]"]:
        """Build int32 ndarray columns from plain int sequences."""
        return self._as_int32(u_values), self._as_int32(v_values)

    def collect_cross_edges(
        self,
        index: DenseIntervalIndex,
        u_col: "npt.NDArray[np.int32]",
        v_col: "npt.NDArray[np.int32]",
    ) -> List[Tuple[int, int]]:
        """Vectorized twin of ``PythonKernel.collect_cross_edges``.

        Pure interval arithmetic: tree/forward/backward edges and
        self-loops fail both cross masks, so no parent column is read.
        """
        pre_u = index.pre[u_col]
        pre_v = index.pre[v_col]
        ahead = pre_u < pre_v
        cross_mask = np.where(
            ahead,
            pre_v >= pre_u + index.size[u_col],
            pre_u >= pre_v + index.size[v_col],
        )
        if not cross_mask.any():
            return []
        positions = np.nonzero(cross_mask)[0]
        return list(
            zip(u_col[positions].tolist(), v_col[positions].tolist())
        )

    def make_cut_index(self, labels: CutLabels) -> DenseCutIndex:
        """Dense cut labels: ``label`` has ``max(id) + 1`` slots."""
        return DenseCutIndex(
            label=_dense_column(labels.label, max(labels.label) + 1),
            end=np.asarray(labels.end, dtype=np.int64),
            order=np.asarray(labels.order, dtype=np.int64),
        )

    def collect_cut_pairs(
        self,
        index: DenseCutIndex,
        u_col: "npt.NDArray[np.int32]",
        v_col: "npt.NDArray[np.int32]",
        pairs: Set[Tuple[int, int]],
    ) -> None:
        """Vectorized twin of ``PythonKernel.collect_cut_pairs``; pairs are
        deduplicated as integer keys before they become python ints."""
        label_u = index.label[u_col]
        label_v = index.label[v_col]
        low = np.minimum(label_u, label_v)
        unrelated = np.maximum(label_u, label_v) >= index.end[low]
        if not unrelated.any():
            return
        count = len(index.order)
        keys = np.unique(label_u[unrelated] * count + label_v[unrelated])
        pairs.update(zip(
            index.order[keys // count].tolist(),
            index.order[keys % count].tolist(),
        ))

    # -- BFS relaxation ------------------------------------------------
    def make_level_column(
        self, levels: "npt.ArrayLike"
    ) -> "npt.NDArray[np.int64]":
        """Freeze the level sequence into an int64 column (-1 = unreached).

        int64 so ``level + 1`` can never wrap, and so the column doubles
        as a fancy index into itself without casts.
        """
        return np.asarray(levels, dtype=np.int64)

    def relax_levels(
        self,
        level_col: "npt.NDArray[np.int64]",
        u_col: "npt.NDArray[np.int32]",
        v_col: "npt.NDArray[np.int32]",
    ) -> List[Tuple[int, int, int]]:
        """Vectorized twin of ``PythonKernel.relax_levels``.

        The lexsort orders each destination's improving edges by
        (candidate level, scan position), so the first row of every
        ``v``-group is exactly the scalar loop's strictly-less winner:
        the minimal candidate, achieved by the earliest edge in scan
        order.
        """
        if len(u_col) == 0:
            return []
        level_u = level_col[u_col]
        level_v = level_col[v_col]
        candidate = level_u + 1
        improves = (level_u >= 0) & ((level_v < 0) | (candidate < level_v))
        if not improves.any():
            return []
        positions = np.nonzero(improves)[0]
        vs = v_col[positions]
        candidates = candidate[positions]
        order = np.lexsort((positions, candidates, vs))
        vs_sorted = vs[order]
        first_of_group = np.empty(len(order), dtype=bool)
        first_of_group[0] = True
        first_of_group[1:] = vs_sorted[1:] != vs_sorted[:-1]
        winners = order[first_of_group]
        return list(
            zip(
                vs[winners].tolist(),
                candidates[winners].tolist(),
                u_col[positions][winners].tolist(),
            )
        )

    def make_owner_index(
        self, owner: Mapping[int, int]
    ) -> "npt.NDArray[np.int64]":
        """Dense ``node → part`` array of ``max(id) + 1`` slots."""
        return _dense_column(owner, max(owner, default=-1) + 1)

    def route_edges(
        self,
        owner_index: "npt.NDArray[np.int64]",
        u_col: "npt.NDArray[np.int32]",
        v_col: "npt.NDArray[np.int32]",
    ) -> List[Tuple[int, "npt.NDArray[np.int32]", "npt.NDArray[np.int32]"]]:
        """Group part-internal edges into per-part columns, keys ascending.

        Nodes outside the index (id beyond the array, or a ``-1`` hole)
        own no part, exactly as the dict's ``.get`` returning ``None``.
        """
        limit = len(owner_index)
        if not limit:
            return []
        in_range_u = (u_col >= 0) & (u_col < limit)
        in_range_v = (v_col >= 0) & (v_col < limit)
        own_u = np.where(
            in_range_u, owner_index[np.clip(u_col, 0, limit - 1)], -1
        )
        own_v = np.where(
            in_range_v, owner_index[np.clip(v_col, 0, limit - 1)], -1
        )
        internal = (own_u >= 0) & (own_u == own_v)
        if not internal.any():
            return []
        parts = own_u[internal]
        us = u_col[internal]
        vs = v_col[internal]
        routed: List[
            Tuple[int, "npt.NDArray[np.int32]", "npt.NDArray[np.int32]"]
        ] = []
        for part in np.unique(parts).tolist():  # unique() sorts ascending
            members = parts == part
            routed.append((int(part), us[members], vs[members]))
        return routed
