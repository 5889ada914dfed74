"""SEX1xx — I/O containment.

The semi-external model charges *every* block transfer to
:class:`~repro.storage.io_stats.IOStats` by routing it through
:class:`~repro.storage.block_device.BlockDevice`.  One stray ``open()``
outside the storage layer moves bytes the accounting never sees, which
silently invalidates every I/O figure the benchmarks reproduce.  These
rules confine raw file primitives to ``repro/storage/`` and the text
edge-list codec ``repro/graph/io.py``; anywhere else they require an
explicit, justified waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .base import RawViolation, Rule, in_storage_layer, register

#: ``os`` functions that move file bytes or hand out raw descriptors.
_OS_IO_FUNCTIONS: Tuple[str, ...] = (
    "open", "read", "write", "pread", "pwrite", "fdopen", "sendfile",
    "readv", "writev",
)

#: ``io`` module entry points that open real files.
_IO_MODULE_OPENERS: Tuple[str, ...] = ("open", "open_code", "FileIO")

#: Attribute methods that read/write files directly (``pathlib.Path`` and
#: friends); ``.open`` also catches ``gzip.open`` / ``Path.open`` escapes.
_ATTRIBUTE_IO_METHODS: Tuple[str, ...] = (
    "read_bytes", "read_text", "write_bytes", "write_text", "open",
)

#: Codec machinery private to ``repro/storage/serialization.py``: frame
#: layout, block-codec tags and the encode/decode entry points.  Callers
#: outside the storage layer must stay wire-format agnostic — EdgeFile
#: dispatches on the codec tag — so new codecs never require touching
#: algorithm code.  ``resolve_block_codec`` / ``BLOCK_CODECS`` /
#: ``pack_ints`` / ``unpack_ints`` stay public by design.
_CODEC_INTERNAL_NAMES: Tuple[str, ...] = (
    "frame_block", "parse_frame_header", "verify_frame_payload",
    "classify_edge_block", "declared_edge_count", "decode_varint_columns",
    "decode_edge_block", "DeltaVarintBlockEncoder", "CODEC_TAG_DELTA_VARINT",
)


class _StorageScopedRule(Rule):
    """Shared scope: everywhere except the storage layer allow-list."""

    def applies_to(self, relpath: str) -> bool:
        return not in_storage_layer(relpath)


@register
class BuiltinOpenRule(_StorageScopedRule):
    """``open(...)`` outside the storage layer bypasses I/O accounting."""

    code = "SEX101"
    name = "io-open-outside-storage"
    summary = (
        "builtin open() is only allowed in repro/storage/ and "
        "repro/graph/io.py; route block transfers through BlockDevice so "
        "they are charged to IOStats"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "open":
                yield self.violation(
                    node,
                    "builtin open() outside the storage layer; use "
                    "BlockDevice/EdgeFile so the transfer is I/O-counted",
                )


@register
class LowLevelOsIoRule(_StorageScopedRule):
    """``os.read``/``os.open``/… bypass both framing and accounting."""

    code = "SEX102"
    name = "io-os-primitives-outside-storage"
    summary = (
        "low-level os/io file primitives (os.open/os.read/io.open/...) are "
        "confined to the storage layer"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)):
                continue
            base, attr = node.func.value.id, node.func.attr
            if (base == "os" and attr in _OS_IO_FUNCTIONS) or \
                    (base == "io" and attr in _IO_MODULE_OPENERS):
                yield self.violation(
                    node,
                    f"{base}.{attr}() outside the storage layer bypasses "
                    "block framing and I/O accounting",
                )


@register
class MmapRule(_StorageScopedRule):
    """Memory-mapping a file makes transfers invisible to IOStats."""

    code = "SEX103"
    name = "io-mmap-outside-storage"
    summary = (
        "mmap maps disk pages straight into memory, so transfers are "
        "neither block-framed nor charged; only the storage layer may use it"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "mmap" or alias.name.startswith("mmap."):
                        yield self.violation(
                            node, "import of mmap outside the storage layer"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "mmap":
                    yield self.violation(
                        node, "import from mmap outside the storage layer"
                    )


@register
class AttributeIoRule(_StorageScopedRule):
    """``Path.read_bytes()``-style shortcuts are still raw file I/O."""

    code = "SEX104"
    name = "io-path-methods-outside-storage"
    summary = (
        "pathlib-style direct file methods (.read_bytes/.write_text/.open/"
        "...) are confined to the storage layer"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ATTRIBUTE_IO_METHODS):
                continue
            # ``os.open`` / ``io.open`` are SEX102's finding, not ours.
            base = node.func.value
            if isinstance(base, ast.Name) and base.id in ("os", "io"):
                continue
            yield self.violation(
                node,
                f".{node.func.attr}() performs raw file I/O outside the "
                "storage layer",
            )


@register
class CodecInternalsRule(_StorageScopedRule):
    """Block-codec internals must not leak past ``repro/storage/``."""

    code = "SEX105"
    name = "codec-internals-outside-storage"
    summary = (
        "block frame/codec internals (frame_block, classify_edge_block, "
        "DeltaVarintBlockEncoder, codec tags, ...) are confined to the "
        "storage layer; read edges through EdgeFile scans so the wire "
        "format stays swappable"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom):
                if not (node.module or "").endswith("serialization"):
                    continue
                for alias in node.names:
                    if alias.name in _CODEC_INTERNAL_NAMES:
                        yield self.violation(
                            node,
                            f"import of codec-internal {alias.name!r} outside "
                            "the storage layer couples the caller to the "
                            "block wire format",
                        )
            elif isinstance(node, ast.Attribute) and \
                    node.attr in _CODEC_INTERNAL_NAMES and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "serialization":
                yield self.violation(
                    node,
                    f"serialization.{node.attr} outside the storage layer "
                    "couples the caller to the block wire format",
                )
