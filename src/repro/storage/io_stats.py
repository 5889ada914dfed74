"""I/O accounting for the simulated external-memory model.

The paper analyses algorithms in the external-memory (EM) model of
Aggarwal & Vitter: main memory holds ``M`` elements, disk transfers move one
block of ``B`` elements per I/O.  Everything the paper plots in its "(b) I/O"
panels is a count of such block transfers.  :class:`IOStats` is the mutable
counter threaded through the storage layer; :class:`IOSnapshot` is an
immutable point-in-time copy used to compute per-phase deltas.

Since the resilience layer landed, the counter also tracks the *physical*
cost of surviving failures — ``retries`` (extra attempts beyond the first),
``faults`` (injected or observed block-level failures), and
``checksum_failures`` (blocks whose CRC did not match).  Those never feed
into :attr:`IOSnapshot.total`: the logical read/write charges the paper
reasons about are identical with and without faults, which is exactly the
invariant the fault tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOSnapshot:
    """Immutable point-in-time copy of an :class:`IOStats` counter.

    ``reads``/``writes`` are logical block transfers; ``retries``,
    ``faults`` and ``checksum_failures`` are resilience-layer observables
    (see the module docstring) and are excluded from :attr:`total`.
    ``edge_bytes_raw``/``edge_bytes_stored`` track the edge-block codec:
    logical (uncompressed, 8 bytes/edge) versus on-disk payload bytes of
    every edge block moved in either direction.
    """

    reads: int
    writes: int
    retries: int = 0
    faults: int = 0
    checksum_failures: int = 0
    edge_bytes_raw: int = 0
    edge_bytes_stored: int = 0

    @property
    def total(self) -> int:
        """Total logical block transfers (reads + writes)."""
        return self.reads + self.writes

    @property
    def compression_ratio(self) -> float:
        """Raw-over-stored edge bytes (``1.0`` when nothing moved)."""
        if self.edge_bytes_stored <= 0:
            return 1.0
        return self.edge_bytes_raw / self.edge_bytes_stored

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            self.reads - other.reads,
            self.writes - other.writes,
            self.retries - other.retries,
            self.faults - other.faults,
            self.checksum_failures - other.checksum_failures,
            self.edge_bytes_raw - other.edge_bytes_raw,
            self.edge_bytes_stored - other.edge_bytes_stored,
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            self.reads + other.reads,
            self.writes + other.writes,
            self.retries + other.retries,
            self.faults + other.faults,
            self.checksum_failures + other.checksum_failures,
            self.edge_bytes_raw + other.edge_bytes_raw,
            self.edge_bytes_stored + other.edge_bytes_stored,
        )


class IOStats:
    """Mutable counter of block reads and writes (plus fault observables).

    One :class:`IOStats` instance belongs to each
    :class:`~repro.storage.block_device.BlockDevice`; every block transfer
    performed through that device increments it.  Algorithms observe costs
    by snapshotting before and after a phase::

        before = device.stats.snapshot()
        ...          # do I/O
        cost = device.stats.snapshot() - before
    """

    __slots__ = (
        "reads", "writes", "retries", "faults", "checksum_failures",
        "edge_bytes_raw", "edge_bytes_stored",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.retries = 0
        self.faults = 0
        self.checksum_failures = 0
        self.edge_bytes_raw = 0
        self.edge_bytes_stored = 0

    def add_reads(self, blocks: int = 1) -> None:
        """Record ``blocks`` block reads."""
        if blocks < 0:
            raise ValueError("block count must be non-negative")
        self.reads += blocks

    def add_writes(self, blocks: int = 1) -> None:
        """Record ``blocks`` block writes."""
        if blocks < 0:
            raise ValueError("block count must be non-negative")
        self.writes += blocks

    def add_retries(self, attempts: int = 1) -> None:
        """Record ``attempts`` extra block-transfer attempts (not charged)."""
        if attempts < 0:
            raise ValueError("attempt count must be non-negative")
        self.retries += attempts

    def add_faults(self, count: int = 1) -> None:
        """Record ``count`` block-level faults (injected or observed)."""
        if count < 0:
            raise ValueError("fault count must be non-negative")
        self.faults += count

    def add_checksum_failures(self, count: int = 1) -> None:
        """Record ``count`` blocks whose CRC did not match on read."""
        if count < 0:
            raise ValueError("failure count must be non-negative")
        self.checksum_failures += count

    def add_edge_bytes(self, raw: int, stored: int) -> None:
        """Record one edge block moved: logical vs on-disk payload bytes.

        Charged by the edge-file layer on every edge-block read and write
        (never for non-edge payloads such as stack pages or checkpoints),
        so ``edge_bytes_raw / edge_bytes_stored`` is the block codec's
        measured compression ratio.
        """
        if raw < 0 or stored < 0:
            raise ValueError("byte counts must be non-negative")
        self.edge_bytes_raw += raw
        self.edge_bytes_stored += stored

    @property
    def total(self) -> int:
        """Total logical block transfers so far."""
        return self.reads + self.writes

    def snapshot(self) -> IOSnapshot:
        """Return an immutable copy of the current counters."""
        return IOSnapshot(
            self.reads, self.writes, self.retries, self.faults,
            self.checksum_failures, self.edge_bytes_raw,
            self.edge_bytes_stored,
        )

    def __repr__(self) -> str:
        extras = ""
        if self.retries or self.faults or self.checksum_failures:
            extras = (
                f", retries={self.retries}, faults={self.faults}, "
                f"checksum_failures={self.checksum_failures}"
            )
        return f"IOStats(reads={self.reads}, writes={self.writes}{extras})"
