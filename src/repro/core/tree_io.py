"""Spanning-tree persistence: checkpoint the in-memory tree to the device.

Semi-external DFS runs can be long (the paper's experiments run for
hours); the only in-memory state the algorithms carry between passes is
the spanning tree, so checkpointing it makes a run resumable.  A tree
over ``n`` nodes serializes to ``3`` ints per node (node, parent,
virtual flag) plus a small header, costing ``ceil(3n / B)`` write I/Os —
the same unit the algorithms are charged in.

Format (little-endian int32 stream)::

    MAGIC  root  count  [node parent flags] * count

Nodes are emitted in preorder, so reconstruction by appending children
reproduces the sibling order exactly.

The module-level :func:`write_tree_blob` / :func:`read_tree_blob` pair
is the raw wire format, used by :mod:`repro.serve.store` as the tree
payload *inside* a manifest-bearing artifact directory.  The historical
:func:`save_tree` / :func:`load_tree` entry points write the same bytes
but as a bare, unversioned file with no manifest — they still work, but
are deprecated in favour of publishing through
:class:`repro.serve.ArtifactStore`.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Set

from ..errors import StorageError
from ..storage.block_device import BlockDevice
from ..storage.serialization import pack_ints, unpack_ints
from .tree import SpanningTree

#: Format marker ("DFS1" as an int, little-endian).
MAGIC = 0x44465331

_NO_PARENT = -1
_FLAG_VIRTUAL = 1

#: Deprecated entry points that have already warned this process.
_WARNED_BLOB_API: Set[str] = set()


def _warn_bare_blob(name: str) -> None:
    if name in _WARNED_BLOB_API:
        return
    _WARNED_BLOB_API.add(name)
    warnings.warn(
        f"{name}() reads/writes a bare, unversioned tree blob; publish "
        "and open sealed trees through repro.serve.ArtifactStore instead "
        "(manifest, checksums, versioning)",
        DeprecationWarning,
        stacklevel=3,
    )


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


def write_tree_blob(device: BlockDevice, tree: SpanningTree, path: str) -> None:
    """Write ``tree`` to ``path`` as CRC-framed blocks on ``device``."""
    values = tree_values(tree)
    block_values = device.block_elements
    # repro: allow[SEX101] checkpoint frames flow through device.write_block, so every block IS charged
    with open(path, "wb") as handle:
        for start in range(0, len(values), block_values):
            device.write_block(
                handle, pack_ints(values[start : start + block_values]),
                context=path,
            )


def read_tree_blob(device: BlockDevice, path: str) -> SpanningTree:
    """Read a tree written by :func:`write_tree_blob` (I/O-counted).

    Raises:
        StorageError: on a bad magic number, truncated file, or (via
            :class:`~repro.errors.CorruptBlockError`) a block whose
            checksum no longer matches.
    """
    values: List[int] = []
    # repro: allow[SEX101] checkpoint frames flow through device.read_block, so every block IS charged
    with open(path, "rb") as handle:
        while True:
            chunk = device.read_block(handle, context=path)
            if chunk is None:
                break
            values.extend(unpack_ints(chunk))
    return tree_from_values(values, context=path)


def save_tree(
    device: BlockDevice, tree: SpanningTree, name: Optional[str] = None
) -> str:
    """Write ``tree`` to a new bare blob on ``device``; returns the path.

    .. deprecated::
        Bare blobs carry no manifest, checksum, or version.  Publish
        through :class:`repro.serve.ArtifactStore` instead; this wrapper
        warns once per process and will eventually be removed.

    Raises:
        StorageError: when the tree has no root.
    """
    _warn_bare_blob("save_tree")
    path = device.allocate_path(name, suffix=".tree")
    write_tree_blob(device, tree, path)
    return path


def load_tree(device: BlockDevice, path: str) -> SpanningTree:
    """Reconstruct a tree written by :func:`save_tree` (I/O-counted).

    Reading a *legacy* bare blob still works — artifact tree payloads
    use the identical wire format — but new code should open artifacts
    by name through :class:`repro.serve.ArtifactStore`.

    Raises:
        StorageError: on a bad magic number, truncated file, or (via
            :class:`~repro.errors.CorruptBlockError`) a block whose
            checksum no longer matches.
    """
    _warn_bare_blob("load_tree")
    return read_tree_blob(device, path)
