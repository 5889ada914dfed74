"""The optional NumPy kernel backend: columnar codecs + vectorized classify.

Blocks move as flat little-endian int32 arrays (``frombuffer`` in,
``tobytes`` out; delta-varint bodies decode by array arithmetic too) and
classification happens with whole-block mask arithmetic against a
*dense* interval index — ``pre`` / ``end`` / ``parent`` as arrays
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

from typing import List, Mapping, Optional, Sequence, Set, Tuple

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
    """Array-backed ``pre`` / ``end`` / ``parent`` keyed by node id.

    ``end[u]`` is one past the last preorder position of ``u``'s subtree
    (the :class:`~repro.core.classify.Preorder` ends, as
    :class:`~repro.core.classify.CutLabels` keeps them), so ``u`` is an
    ancestor of ``v`` iff ``pre[u] <= pre[v] < end[u]``.  Holes (ids
    absent from the tree, or not reachable from its root) carry ``-1``
    in every column; well-formed inputs never read them, exactly as the
    dict index would raise ``KeyError`` on a foreign node.
    """

    __slots__ = ("pre", "end", "parent")

    def __init__(
        self,
        pre: "npt.NDArray[np.int64]",
        end: "npt.NDArray[np.int64]",
        parent: "npt.NDArray[np.int64]",
    ) -> None:
        self.pre: "npt.NDArray[np.int64]" = pre
        self.end: "npt.NDArray[np.int64]" = end
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


def _ranges(
    firsts: "npt.NDArray[np.intp]", counts: "npt.NDArray[np.intp]"
) -> "npt.NDArray[np.intp]":
    """The ranges ``[firsts[i], firsts[i] + counts[i])`` concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.arange(offsets[-1] + counts[-1]) + np.repeat(
        firsts - offsets, counts
    )


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
        self, bodies: Sequence[bytes]
    ) -> Optional[
        Tuple["npt.NDArray[np.int32]", "npt.NDArray[np.int32]"]
    ]:
        """Decode tag-stripped delta-varint bodies in one array pass.

        A body is ``<uvarint count> <u-stream> <v-stream> [pad]``, each
        stream ``count`` LEB128 varints of zig-zag deltas from 0.  The
        bodies are joined and every byte below ``0x80`` ends a varint, so
        the count heads and pads decode as varints of their own; each
        body's streams are the ``2·count`` varints after its head.  Each
        varint's 7-bit groups are shifted into place and summed with
        ``reduceat``, un-zig-zagged, and prefix-summed per stream.  The
        columns are the bodies' edges in order.

        Returns ``None`` for every list holding a body the encoder would
        not write — a count varint over 5 bytes, a count of 0, fewer than
        ``2·count`` stream varints, a stream varint over 5 bytes, an
        endpoint outside int32 — so the caller's scalar decoder decodes
        the bodies or raises.
        """
        counts: List[int] = []
        heads: List[int] = []  # where each body's streams start
        tails: List[int] = []  # where each body ends
        offset = 0
        for body in bodies:
            count = 0
            for position, byte in enumerate(body[:_VARINT32_BYTES]):
                count |= (byte & 0x7F) << (7 * position)
                if byte < 0x80:
                    break
            else:
                return None  # truncated, or a count varint over 5 bytes
            if count == 0:
                return None
            counts.append(count)
            heads.append(offset + position + 1)
            offset += len(body)
            tails.append(offset)
        data = np.frombuffer(b"".join(bodies), dtype=np.uint8)
        ends = np.flatnonzero(data < 0x80)
        if len(counts) == 1:
            # The streams are the varints after the count's (varint 0).
            if len(ends) <= 2 * count:
                return None
            streams: "slice | npt.NDArray[np.intp]" = slice(1, 1 + 2 * count)
        else:
            count_col = np.array(counts)
            first = np.searchsorted(ends, heads)
            if (np.searchsorted(ends, tails) - first < 2 * count_col).any():
                return None
            # u-streams of every body, then v-streams, as varint numbers
            streams = _ranges(
                np.concatenate((first, first + count_col)),
                np.concatenate((count_col, count_col)),
            )
        starts = np.empty_like(ends)
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        lengths = ends - starts + 1
        if int(lengths[streams].max()) > _VARINT32_BYTES:
            return None
        used = data[: ends[-1] + 1]
        shifts = 7 * (np.arange(len(used)) - np.repeat(starts, lengths))
        encoded = np.add.reduceat(
            (used & 0x7F).astype(np.int64) << shifts, starts
        )[streams]
        deltas = ((encoded >> 1) ^ -(encoded & 1)).reshape(2, -1)
        if len(counts) > 1:  # restart each stream's sum at every body
            body_starts = np.cumsum(count_col) - count_col
            sums = np.add.reduceat(deltas, body_starts, axis=1)
            deltas[:, body_starts[1:]] -= sums[:, :-1]
        values = np.cumsum(deltas, axis=1)
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
        filled by scattering the preorder's positions, subtree ends and
        parents into them with the node array."""
        nodes, ends = preorder if preorder is not None else Preorder.of(tree)
        count = len(nodes)
        length = max(tree.parent, default=-1) + 1
        ids = np.array(nodes, dtype=np.int64)
        pre = np.full(length, -1, dtype=np.int64)
        pre[ids] = np.arange(count, dtype=np.int64)
        end = np.full(length, -1, dtype=np.int64)
        end[ids] = ends
        parent = np.full(length, -1, dtype=np.int64)
        # Only the root (first in preorder) has no parent.
        parent[ids[1:]] = np.fromiter(
            map(tree.parent.__getitem__, nodes[1:]),
            dtype=np.int64,
            count=max(count - 1, 0),
        )
        return DenseIntervalIndex(pre=pre, end=end, parent=parent)

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

        ``pre[v] >= end[u]`` alone is the forward-cross test: it puts
        ``v`` after ``u`` and outside ``u``'s subtree, which also rules
        out self-loops and tree edges; ``pre[u] >= end[v]`` is its
        backward twin.  So only the batch count reads ``parent``.
        """
        u = u_col[start:] if start else u_col
        v = v_col[start:] if start else v_col
        pre_u = index.pre[u]
        pre_v = index.pre[v]
        end = index.end
        forward = pre_v >= end[u]
        cross = forward | (pre_u >= end[v])
        counted_mask = (u != v) & (index.parent[v] != u)
        total = int(np.count_nonzero(counted_mask))
        if total >= capacity:
            cumulative = np.cumsum(counted_mask)
            cut = int(np.searchsorted(cumulative, capacity, side="left")) + 1
            counted = capacity
            stop = start + cut
            forward = forward[:cut]
            cross = cross[:cut]
        else:
            counted = total
            stop = len(u_col)
        positions = np.flatnonzero(cross)
        return stop, counted, bool(forward.any()), list(
            zip(u[positions].tolist(), v[positions].tolist())
        )

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
        self-loops fail both cross tests, so no parent column is read.
        """
        pre_u = index.pre[u_col]
        pre_v = index.pre[v_col]
        end = index.end
        cross_mask = (pre_v >= end[u_col]) | (pre_u >= end[v_col])
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
