"""The always-available pure-Python kernel backend.

Columns are stdlib :mod:`array` arrays of 4-byte signed ints, so
``unpack_edge_columns`` / ``pack_edge_columns`` move whole blocks with
``frombytes`` / ``tobytes`` plus two extended-slice copies instead of one
``struct`` call per edge.  Classification is a scalar loop over the
dict-based interval index; it never declines a tree, so restructure and
division fall back to it when the numpy backend declines sparse ids, and
it is the semantics oracle the numpy backend is tested against.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Mapping, Sequence, Set, Tuple, Union, cast

from ..core.classify import CutLabels, IntervalIndex
from ..core.tree import SpanningTree
from .base import ClassifiedSlice

EDGE_BYTES = 8  # two little-endian signed 32-bit ints

#: The first array typecode with a 4-byte item (``'i'`` everywhere CPython
#: runs today; the probe keeps the codec honest on exotic ABIs).
_TYPECODE = next(tc for tc in ("i", "l", "h") if array(tc).itemsize == 4)

#: Native byte order vs. the on-disk little-endian format.
_NEEDS_SWAP = sys.byteorder == "big"


class PythonKernel:
    """Columnar codecs + scalar classification; no third-party deps."""

    name = "python"

    # -- codecs --------------------------------------------------------
    def unpack_edge_columns(
        self, data: bytes
    ) -> Tuple["array[int]", "array[int]"]:
        """Split packed edge bytes into ``(u, v)`` int32 columns."""
        if len(data) % EDGE_BYTES:
            raise ValueError(
                f"byte length {len(data)} is not a multiple of the edge "
                f"size {EDGE_BYTES}"
            )
        flat = array(_TYPECODE)
        flat.frombytes(data)
        if _NEEDS_SWAP:
            flat.byteswap()
        return flat[0::2], flat[1::2]

    def pack_edge_columns(
        self,
        u_col: Union["array[int]", Sequence[int]],
        v_col: Union["array[int]", Sequence[int]],
    ) -> bytes:
        """Interleave two int32 columns back into on-disk edge bytes.

        Raises:
            ValueError: mismatched lengths or out-of-int32-range values.
        """
        if len(u_col) != len(v_col):
            raise ValueError(
                f"column length mismatch: {len(u_col)} vs {len(v_col)}"
            )
        try:
            us = (
                cast("array[int]", u_col)
                if _is_i32_array(u_col)
                else array(_TYPECODE, u_col)
            )
            vs = (
                cast("array[int]", v_col)
                if _is_i32_array(v_col)
                else array(_TYPECODE, v_col)
            )
        except OverflowError:
            raise ValueError("edge endpoint out of int32 range") from None
        flat = array(_TYPECODE, bytes(len(us) * EDGE_BYTES))
        flat[0::2] = us
        flat[1::2] = vs
        if _NEEDS_SWAP:
            flat.byteswap()
        return flat.tobytes()

    def pack_int_column(self, values: Sequence[int]) -> bytes:
        """Pack one int sequence into little-endian int32 bytes.

        Raises:
            ValueError: out-of-int32-range values.
        """
        try:
            column = (
                cast("array[int]", values)
                if _is_i32_array(values)
                else array(_TYPECODE, values)
            )
        except OverflowError:
            raise ValueError("column value out of int32 range") from None
        if _NEEDS_SWAP:
            column = array(_TYPECODE, column.tobytes())  # don't swap caller's
            column.byteswap()
        return column.tobytes()

    def int_column_from_buffer(
        self, buffer: Union[bytes, bytearray, memoryview], offset: int, count: int
    ) -> "array[int]":
        """Copy ``count`` int32 values at element ``offset`` out of ``buffer``."""
        view = memoryview(buffer)[offset * 4 : (offset + count) * 4]
        column = array(_TYPECODE)
        column.frombytes(view)
        if _NEEDS_SWAP:
            column.byteswap()
        return column

    # -- classification ------------------------------------------------
    def make_index(self, tree: SpanningTree) -> IntervalIndex:
        """The dict-based :class:`IntervalIndex` (never declines)."""
        return IntervalIndex(tree)

    def classify_slice(
        self,
        index: IntervalIndex,
        u_col: Sequence[int],
        v_col: Sequence[int],
        start: int,
        capacity: int,
    ) -> ClassifiedSlice:
        """Classify ``(u_col, v_col)[start:]`` until ``capacity`` edges load.

        Returns ``(stop, counted, has_forward_cross, cross_edges)``:
        self-loops and tree edges are free; every other edge charges the
        batch; only cross edges are reported back.
        """
        pre = index.pre
        size = index.size
        parent = index.parent
        counted = 0
        has_forward_cross = False
        cross: List[Tuple[int, int]] = []
        stop = len(u_col)
        for position in range(start, len(u_col)):
            u = u_col[position]
            v = v_col[position]
            if u == v or parent.get(v) == u:
                continue
            pre_u = pre[u]
            pre_v = pre[v]
            counted += 1
            if pre_u < pre_v:
                if pre_v >= pre_u + size[u]:
                    cross.append((u, v))  # forward-cross
                    has_forward_cross = True
            elif pre_u >= pre_v + size[v]:
                cross.append((u, v))  # backward-cross
            if counted >= capacity:
                stop = position + 1
                break
        return stop, counted, has_forward_cross, cross

    # -- division primitives -------------------------------------------
    def make_columns(
        self, u_values: Sequence[int], v_values: Sequence[int]
    ) -> Tuple["array[int]", "array[int]"]:
        """Build stdlib-``array`` int32 columns from plain int sequences."""
        try:
            return array(_TYPECODE, u_values), array(_TYPECODE, v_values)
        except OverflowError:
            raise ValueError("edge endpoint out of int32 range") from None

    def collect_cross_edges(
        self,
        index: IntervalIndex,
        u_col: Sequence[int],
        v_col: Sequence[int],
    ) -> List[Tuple[int, int]]:
        """Emit the block's cross edges via the interval tests alone.

        Tree, forward and backward edges and self-loops fail both cross
        tests (a tree edge's head sits inside the tail's subtree), so no
        parent lookup is needed — unlike :meth:`classify_slice`, which
        must *count* non-tree edges for batching.
        """
        pre = index.pre
        size = index.size
        cross: List[Tuple[int, int]] = []
        for u, v in zip(u_col, v_col):
            if u == v:
                continue
            pre_u = pre[u]
            pre_v = pre[v]
            if pre_u < pre_v:
                if pre_v >= pre_u + size[u]:
                    cross.append((u, v))  # forward-cross
            elif pre_u >= pre_v + size[v]:
                cross.append((u, v))  # backward-cross
        return cross

    def make_cut_index(self, labels: CutLabels) -> CutLabels:
        """The cut labels are their own index (never declines)."""
        return labels

    def collect_cut_pairs(
        self,
        index: CutLabels,
        u_col: Sequence[int],
        v_col: Sequence[int],
        pairs: Set[Tuple[int, int]],
    ) -> None:
        """Keep the label pairs whose cut nodes are unrelated.

        Equal labels fail the test too: ``end[r]`` is always past ``r``.
        """
        label = index.label
        end = index.end
        kept: Set[Tuple[int, int]] = set()
        for u, v in zip(u_col, v_col):
            label_u = label[u]
            label_v = label[v]
            if label_u < label_v:
                if label_v >= end[label_u]:
                    kept.add((label_u, label_v))
            elif label_u >= end[label_v]:
                kept.add((label_u, label_v))
        order = index.order
        pairs.update((order[a], order[b]) for a, b in kept)

    # -- BFS relaxation ------------------------------------------------
    def make_level_column(self, levels: Sequence[int]) -> "array[int]":
        """Freeze the level sequence into an int32 column (-1 = unreached)."""
        try:
            return array(_TYPECODE, levels)
        except OverflowError:
            raise ValueError("level out of int32 range") from None

    def relax_levels(
        self,
        level_col: "array[int]",
        u_col: Sequence[int],
        v_col: Sequence[int],
    ) -> List[Tuple[int, int, int]]:
        """Scalar BFS relaxation; the semantics oracle for the numpy twin.

        The strictly-less replacement rule keeps the *first* scan-order
        tail among equal minimal candidates, because a later edge with the
        same candidate never displaces the stored one.
        """
        best: Dict[int, Tuple[int, int]] = {}
        for u, v in zip(u_col, v_col):
            level_u = level_col[u]
            if level_u < 0:
                continue
            candidate = level_u + 1
            level_v = level_col[v]
            if 0 <= level_v <= candidate:
                continue
            previous = best.get(v)
            if previous is None or candidate < previous[0]:
                best[v] = (candidate, u)
        return [
            (v, candidate, parent)
            for v, (candidate, parent) in sorted(best.items())
        ]

    def make_owner_index(self, owner: Mapping[int, int]) -> Dict[int, int]:
        """Routing index is the ``{node: part}`` dict itself (never declines)."""
        return dict(owner)

    def route_edges(
        self,
        owner_index: Dict[int, int],
        u_col: Sequence[int],
        v_col: Sequence[int],
    ) -> List[Tuple[int, "array[int]", "array[int]"]]:
        """Group part-internal edges into per-part columns, keys ascending."""
        get = owner_index.get
        buckets: Dict[int, Tuple["array[int]", "array[int]"]] = {}
        for u, v in zip(u_col, v_col):
            part = get(u)
            if part is None or part != get(v):
                continue
            pair = buckets.get(part)
            if pair is None:
                pair = (array(_TYPECODE), array(_TYPECODE))
                buckets[part] = pair
            pair[0].append(u)
            pair[1].append(v)
        return [
            (part, columns[0], columns[1])
            for part, columns in sorted(buckets.items())
        ]


def _is_i32_array(column: object) -> bool:
    return isinstance(column, array) and column.typecode == _TYPECODE
