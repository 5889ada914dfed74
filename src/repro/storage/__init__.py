"""The external-memory storage substrate (simulated block device).

See DESIGN.md §3 and §5: this package substitutes a physical disk with an
I/O-accounted block device backed by real temporary files, plus the
external-memory primitives the paper's algorithms rely on (edge files,
partition routing, external sort, and logical memory budgeting).
"""

from .block_device import DEFAULT_BLOCK_ELEMENTS, DEFAULT_MAX_RETRIES, BlockDevice
from .buffer_pool import TREE_NODE_COST, MemoryBudget
from .edge_file import EdgeFile, PartitionWriter, edge_file_from_edges
from .external_sort import sort_edge_file
from .faults import FAULT_SEED_ENV_VAR, FaultEvent, FaultInjector, FaultPlan
from .io_stats import IOSnapshot, IOStats
from .serialization import (
    BLOCK_CODEC_ENV_VAR,
    BLOCK_CODECS,
    resolve_block_codec,
)

__all__ = [
    "BLOCK_CODECS",
    "BLOCK_CODEC_ENV_VAR",
    "BlockDevice",
    "DEFAULT_BLOCK_ELEMENTS",
    "DEFAULT_MAX_RETRIES",
    "EdgeFile",
    "FAULT_SEED_ENV_VAR",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "IOSnapshot",
    "IOStats",
    "MemoryBudget",
    "PartitionWriter",
    "TREE_NODE_COST",
    "edge_file_from_edges",
    "resolve_block_codec",
    "sort_edge_file",
]
