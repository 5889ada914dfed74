"""A simulated block device backed by real temporary files.

:class:`BlockDevice` is the substitution for the paper's physical disk (see
DESIGN.md §5).  It owns a directory of data files, a block size ``B``
(counted in *elements*, matching the EM model), and a single
:class:`~repro.storage.io_stats.IOStats` counter that every structure created
on the device increments.  Data really is written to and read from the
filesystem, so scans exercise genuine serialization and buffering code paths;
the *accounting* is logical so the reproduced I/O numbers are exact and
machine-independent.

All block transfers flow through :meth:`BlockDevice.write_block` /
:meth:`BlockDevice.read_block`, which add the resilience layer:

* every block is framed with a length + CRC-32 header
  (:func:`~repro.storage.serialization.frame_block`), so torn or
  bit-flipped blocks are *detected* instead of silently decoded;
* transient failures (injected by a :class:`~repro.storage.faults.FaultPlan`
  or surfaced by the OS) are retried up to ``max_retries`` times with
  exponential backoff;
* a failure that outlives the retry budget raises a typed error —
  :class:`~repro.errors.RetriesExhausted` for transient trouble,
  :class:`~repro.errors.CorruptBlockError` for persistent corruption —
  never a wrong answer.

Retries and faults are counted in :class:`IOStats` separately from the
logical read/write charges, which are identical with and without faults.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import TYPE_CHECKING, BinaryIO, Optional

from ..errors import ClosedFileError, CorruptBlockError, RetriesExhausted, TransientIOError

if TYPE_CHECKING:
    from ..obs import Tracer

from .faults import FaultInjector, FaultPlan
from .io_stats import IOStats
from .serialization import (
    FRAME_HEADER_BYTES,
    frame_block,
    parse_frame_header,
    resolve_block_codec,
    verify_frame_payload,
)

#: Default number of elements (edges / ints) per block.  The paper uses 64 KB
#: blocks; at 8 bytes per edge record that is 8192 edges.  We default to 4096
#: to keep block counts meaningful on the ~1000x-scaled-down datasets.
DEFAULT_BLOCK_ELEMENTS = 4096

#: Default retry budget for one block transfer (1 initial + 4 retries).
DEFAULT_MAX_RETRIES = 4

#: Default base backoff; attempt ``k`` sleeps ``backoff * 2**(k-1)``.
DEFAULT_BACKOFF_SECONDS = 0.002


class BlockDevice:
    """A directory of block-addressed files with shared I/O accounting.

    Args:
        block_elements: elements per block (``B`` in the EM model).
        directory: directory to place files in; a private temporary
            directory is created (and removed on :meth:`close`) when omitted.
        kernel: columnar kernel backend for structures on this device —
            ``"python"``, ``"numpy"``, ``"auto"``, or ``None`` to defer to
            ``$REPRO_KERNEL`` (then ``auto``).  The backend changes CPU
            cost only; bytes on disk and I/O charges are identical.
        block_codec: edge-block payload codec for files *written* on this
            device — ``"fixed32"``, ``"delta-varint"``, or ``None`` to
            defer to ``$REPRO_BLOCK_CODEC`` (then ``fixed32``).  Reading
            is always self-describing, so sealed files written under any
            codec setting remain readable.
        fault_plan: optional :class:`~repro.storage.faults.FaultPlan`; when
            given, every block transfer consults a fresh injector bound to
            the plan, so a run replays the plan's exact failure schedule.
        max_retries: extra attempts per block transfer before the device
            gives up with a typed error.
        backoff_seconds: base of the exponential backoff between retries
            (``0`` disables sleeping, useful in tests).

    The device is a context manager::

        with BlockDevice() as device:
            edge_file = device.create_edge_file()
            ...
    """

    def __init__(
        self,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        directory: Optional[str] = None,
        kernel: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        block_codec: Optional[str] = None,
    ) -> None:
        if block_elements <= 0:
            raise ValueError("block_elements must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        from ..kernels import resolve_kernel  # local import to avoid a cycle
        from ..obs import NULL_TRACER  # local import to avoid a cycle

        self.block_elements = block_elements
        self.kernel = resolve_kernel(kernel)
        #: Codec for edge blocks written on this device.  Mutable: a
        #: :class:`~repro.algorithms.base.RunContext` may install the
        #: run's codec here for the duration of a run (and restores the
        #: previous value on release), mirroring the tracer slot below.
        self.block_codec = resolve_block_codec(block_codec)
        self.stats = IOStats()
        #: The tracer storage-layer code reports to (retry/fault counters,
        #: external-sort spans).  A :class:`~repro.algorithms.base.RunContext`
        #: installs the run's tracer here for the duration of a run and
        #: restores the previous one on release.
        self.tracer: "Tracer" = NULL_TRACER
        self.fault_plan = fault_plan
        self.faults: Optional[FaultInjector] = (
            fault_plan.bind() if fault_plan is not None else None
        )
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self._owns_directory = directory is None
        if directory is None:
            self.directory = tempfile.mkdtemp(prefix="repro-device-")
        else:
            os.makedirs(directory, exist_ok=True)
            self.directory = directory
        self._closed = False
        self._file_counter = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the device; removes the backing directory if it owns it."""
        if self._closed:
            return
        self._closed = True
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "BlockDevice":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedFileError("operation on a closed BlockDevice")

    # ------------------------------------------------------------------
    # resilient block transfer
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        if self.backoff_seconds > 0:
            time.sleep(self.backoff_seconds * (2 ** attempt))

    def _sync_faults(self, baseline: int) -> int:
        """Mirror newly injected faults into the stats counter."""
        injected = self.faults.injected if self.faults is not None else 0
        if injected > baseline:
            self.stats.add_faults(injected - baseline)
            self.tracer.count("device.faults", injected - baseline)
        return injected

    def write_block(self, handle: BinaryIO, payload: bytes,
                    context: str = "block",
                    raw_bytes: Optional[int] = None) -> None:
        """Frame ``payload`` and write it at the handle's current position.

        Charges exactly one logical write I/O however many attempts it
        takes.  On a transient failure the handle is rewound to the block's
        start offset and the write is repeated, so a torn attempt can never
        leave a half-frame behind a successful one.

        Args:
            raw_bytes: when given, the *logical* (uncompressed) size of an
                edge-block payload; on success the stored-vs-raw pair is
                charged to :meth:`IOStats.add_edge_bytes` so compression
                ratios are measurable.  Non-edge payloads omit it.

        Raises:
            ClosedFileError: when the device is closed.
            RetriesExhausted: when transient failures outlive the budget.
        """
        self._check_open()
        injector = self.faults
        baseline = 0
        if injector is not None:
            injector.begin_op()
            baseline = injector.injected
        start = handle.tell()
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.stats.add_retries(1)
                self.tracer.count("device.write_retries")
                self._backoff(attempt - 1)
                handle.seek(start)
            try:
                frame = frame_block(payload)
                if injector is not None:
                    injector.before_write(attempt)
                    # The header's CRC is always computed over the *clean*
                    # payload; persisted damage must be detectable on read.
                    damaged = injector.damage_write(payload)
                    if damaged is not payload:
                        frame = frame[:FRAME_HEADER_BYTES] + damaged
                handle.write(frame)
            except (TransientIOError, OSError) as error:
                last_error = error
                baseline = self._sync_faults(baseline)
                continue
            self._sync_faults(baseline)
            self.stats.add_writes(1)
            if raw_bytes is not None:
                self.stats.add_edge_bytes(raw_bytes, len(payload))
            return
        raise RetriesExhausted(
            f"{context}: write failed after {self.max_retries + 1} attempts "
            f"({last_error})",
            last_error=last_error,
            attempts=self.max_retries + 1,
        )

    def read_block(
        self, handle: BinaryIO, context: str = "block"
    ) -> Optional[bytes]:
        """Read one framed block at the handle's current position.

        Returns the payload bytes, or ``None`` at a clean end-of-file (no
        I/O charged).  Charges exactly one logical read I/O per block
        returned, however many attempts it takes.

        Raises:
            ClosedFileError: when the device is closed.
            CorruptBlockError: when a checksum/truncation failure persists
                across the whole retry budget (the block is damaged *on
                disk*, not in flight).
            RetriesExhausted: when transient failures outlive the budget.
        """
        self._check_open()
        injector = self.faults
        baseline = 0
        if injector is not None:
            injector.begin_op()
            baseline = injector.injected
        start = handle.tell()
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.stats.add_retries(1)
                self.tracer.count("device.read_retries")
                self._backoff(attempt - 1)
                handle.seek(start)
            try:
                if injector is not None:
                    injector.before_read(attempt)
                header = handle.read(FRAME_HEADER_BYTES)
                if not header:
                    self._sync_faults(baseline)
                    return None  # clean EOF
                payload_len, crc = parse_frame_header(header, context)
                payload = handle.read(payload_len)
                if injector is not None:
                    payload = injector.damage_read(payload, attempt)
                verify_frame_payload(payload, payload_len, crc, context)
            except CorruptBlockError as error:
                last_error = error
                self.stats.add_checksum_failures(1)
                self.tracer.count("device.checksum_failures")
                baseline = self._sync_faults(baseline)
                continue
            except (TransientIOError, OSError) as error:
                last_error = error
                baseline = self._sync_faults(baseline)
                continue
            self._sync_faults(baseline)
            self.stats.add_reads(1)
            return payload
        if isinstance(last_error, CorruptBlockError):
            raise CorruptBlockError(
                f"{context}: corrupt block persisted across "
                f"{self.max_retries + 1} attempts ({last_error})"
            )
        raise RetriesExhausted(
            f"{context}: read failed after {self.max_retries + 1} attempts "
            f"({last_error})",
            last_error=last_error,
            attempts=self.max_retries + 1,
        )

    # ------------------------------------------------------------------
    # file management
    # ------------------------------------------------------------------
    def allocate_path(self, name: Optional[str] = None, suffix: str = ".bin") -> str:
        """Reserve a fresh file path on the device."""
        self._check_open()
        if name is None:
            self._file_counter += 1
            name = f"file-{self._file_counter:06d}"
        return os.path.join(self.directory, name + suffix)

    def create_edge_file(self, name: Optional[str] = None) -> "EdgeFile":
        """Create a new, writable :class:`~repro.storage.edge_file.EdgeFile`."""
        self._check_open()
        from .edge_file import EdgeFile  # local import to avoid a cycle

        return EdgeFile(self, self.allocate_path(name, suffix=".edges"))

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        faulty = ", faulty" if self.fault_plan is not None else ""
        codec = (
            f", codec={self.block_codec}" if self.block_codec != "fixed32" else ""
        )
        return (
            f"BlockDevice(block_elements={self.block_elements}, "
            f"directory={self.directory!r}, {state}{faulty}{codec})"
        )
