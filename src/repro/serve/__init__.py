"""``repro.serve`` — publish sealed trees once, answer queries forever.

The serve layer turns the batch reproduction into a system that serves
traffic: a :class:`ArtifactStore` of versioned, checksummed artifacts
(sealed spanning tree + query columns + manifest), a
:class:`QueryEngine` answering order/ancestor/toposort/SCC/reachability
questions in O(answer) time with zero raw-graph I/O, and a stdlib
threaded HTTP service (:class:`ReproServer`) with request spans,
metrics, deadlines, and typed JSON errors.

See docs/SERVE.md for the store layout, manifest schema, and endpoint
reference.
"""

from .app import ServeConfig, ReproServer
from .queries import QUERY_KINDS, QueryEngine
from .store import (
    SCHEMA_VERSION,
    ArtifactRef,
    ArtifactStore,
    TreeArtifact,
    parse_ref,
    seal_result,
)

__all__ = [
    "QUERY_KINDS",
    "SCHEMA_VERSION",
    "ArtifactRef",
    "ArtifactStore",
    "QueryEngine",
    "ReproServer",
    "ServeConfig",
    "TreeArtifact",
    "parse_ref",
    "seal_result",
]
