"""Spanning-tree wire format: the int32 values a sealed tree is stored as.

Semi-external DFS runs can be long (the paper's experiments run for
hours); the only in-memory state the algorithms carry between passes is
the spanning tree, so checkpointing it makes a run resumable.  A tree
over ``n`` nodes serializes to ``3`` ints per node (node, parent,
virtual flag) plus a small header, costing ``ceil(3n / B)`` write I/Os —
the same unit the algorithms are charged in.

Format (little-endian int32 stream)::

    MAGIC  root  count  [node parent flags] * count

Nodes are emitted in preorder, so reconstruction by appending children
reproduces the sibling order exactly.  :class:`repro.serve.ArtifactStore`
writes these values as the ``tree`` payload of an artifact (framed,
CRC'd, SHA-256-manifested blocks); checkpoints and sealed results are
published and opened through it.
"""

from __future__ import annotations

from typing import List

from ..errors import StorageError
from .tree import SpanningTree

#: Format marker ("DFS1" as an int, little-endian).
MAGIC = 0x44465331

_NO_PARENT = -1
_FLAG_VIRTUAL = 1


def tree_values(tree: SpanningTree) -> List[int]:
    """Serialize ``tree`` to its int32 wire values (header + triples).

    Only the part of the tree reachable from the root is emitted
    (detached nodes are transient algorithm state, never
    checkpoint-worthy).

    Raises:
        StorageError: when the tree has no root.
    """
    if tree.root is None:
        raise StorageError("cannot save a rootless tree")
    values = [MAGIC, tree.root, 0]
    for node in tree.preorder():
        parent = tree.parent[node]
        values.extend((
            node,
            _NO_PARENT if parent is None else parent,
            _FLAG_VIRTUAL if tree.is_virtual(node) else 0,
        ))
    values[2] = (len(values) - 3) // 3
    return values


def tree_from_values(values: List[int], context: str) -> SpanningTree:
    """Reconstruct a tree from its wire values (see :func:`tree_values`).

    Raises:
        StorageError: on a bad magic number or truncated value stream.
    """
    if len(values) < 3 or values[0] != MAGIC:
        raise StorageError(f"{context} is not a tree checkpoint")
    root, count = values[1], values[2]
    expected = 3 + 3 * count
    if len(values) < expected:
        raise StorageError(
            f"{context} truncated: expected {expected} values, got {len(values)}"
        )
    body = values[3:expected]
    return SpanningTree.from_preorder(
        root, body[0::3], body[1::3], body[2::3], no_parent=_NO_PARENT
    )

