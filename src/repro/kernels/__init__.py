"""Columnar kernel layer: pluggable hot-path backends.

The restructure loop — scan blocks, classify every edge against the
spanning tree — dominates the whole system's CPU profile.  This package
isolates its per-edge operations behind a small backend interface so the
same algorithms run on a pure-Python path (always) or a vectorized NumPy
path (auto-detected), with identical on-disk bytes, identical batch
boundaries, and identical I/O accounting.  See ``docs/ARCHITECTURE.md``
("Kernel layer") for the contract.  Callers hold a kernel instance
(``BlockDevice.kernel``, or :func:`resolve_kernel`).
"""

from .base import (
    KERNEL_ENV_VAR,
    KERNEL_NAMES,
    Kernel,
    available_backends,
    numpy_available,
    resolve_kernel,
)

__all__ = [
    "KERNEL_ENV_VAR",
    "KERNEL_NAMES",
    "Kernel",
    "available_backends",
    "numpy_available",
    "resolve_kernel",
]
