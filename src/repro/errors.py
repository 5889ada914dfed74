"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses separate the three
failure domains of a semi-external graph system: the storage substrate, the
memory model, and the algorithms themselves.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class StorageError(ReproError):
    """An on-disk structure is missing, closed, or corrupt."""


class ClosedFileError(StorageError):
    """An operation was attempted on a closed device or edge file."""


class TransientIOError(StorageError):
    """A single block transfer failed in a retryable way.

    Raised by the fault-injection layer (and the place a real deployment
    would surface ``EIO``/timeout errors).  :class:`~repro.storage.BlockDevice`
    catches it internally and retries with backoff; callers only ever see
    :class:`RetriesExhausted` once the retry budget is spent.
    """


class CorruptBlockError(StorageError):
    """A block's checksum did not match its payload, or its frame was cut
    short.

    Detected by the per-block CRC the serialization layer writes (see
    ``docs/ARCHITECTURE.md``, *Fault model*).  A corrupt block is retried —
    in-flight (torn) corruption heals on re-read — but corruption that
    persists on disk raises this error to the caller instead of silently
    classifying garbage edges.
    """


class RetriesExhausted(StorageError):
    """Bounded retry-with-backoff gave up on a block transfer.

    Attributes:
        last_error: the final underlying error (a
            :class:`TransientIOError` or :class:`CorruptBlockError`).
        attempts: how many attempts were made (1 + retries).
    """

    def __init__(self, message: str, last_error: "Exception | None" = None,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


class MemoryBudgetExceeded(ReproError):
    """The memory budget ``M`` is too small: below the spanning tree's
    ``3·|V|``, or leaving no room for a single batch edge next to it."""


class InvalidGraphError(ReproError):
    """A graph input violates a documented precondition (bad node id, ...)."""


class ConvergenceError(ReproError):
    """A restructuring heuristic exceeded its pass limit.

    The Sibeyn et al. procedures are heuristics whose worst case is ``n``
    passes over the edge file; the library caps passes (see
    ``max_passes``) and raises this error rather than loop unboundedly.

    Attributes:
        artifact_ref: version directory of the checkpoint the run sealed
            before raising (``edge-by-batch`` with ``checkpoint_every``),
            or ``None``.
    """

    artifact_ref: Optional[str] = None


class InvalidDivisionError(ReproError):
    """A division violates one of the four validity properties (Section 5)."""


class NotADAGError(ReproError):
    """Topological sort was requested for a graph that contains a cycle."""


class ArtifactError(StorageError):
    """Base class for sealed-artifact store failures (:mod:`repro.serve`)."""


class ArtifactNotFound(ArtifactError):
    """No artifact (or no such version) exists under the requested name."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact's manifest or payload failed checksum/schema validation."""


class QueryError(ReproError):
    """A serve-layer query is malformed or cannot be answered.

    Attributes:
        code: stable machine-readable error code (kebab-case), mapped to
            an HTTP status by :mod:`repro.serve.app`.
    """

    def __init__(self, message: str, code: str = "bad-query") -> None:
        super().__init__(message)
        self.code = code


class DeadlineExceeded(ReproError):
    """A serve-layer request ran past its per-request deadline."""
