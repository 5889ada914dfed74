"""Unit tests for the I/O counters."""

import pytest

from repro.storage import IOSnapshot, IOStats


class TestIOStats:
    def test_starts_at_zero(self):
        stats = IOStats()
        assert stats.reads == 0
        assert stats.writes == 0
        assert stats.total == 0

    def test_add_reads_and_writes(self):
        stats = IOStats()
        stats.add_reads(3)
        stats.add_writes(2)
        stats.add_reads()  # default 1
        assert stats.reads == 4
        assert stats.writes == 2
        assert stats.total == 6

    def test_negative_counts_rejected(self):
        stats = IOStats()
        with pytest.raises(ValueError):
            stats.add_reads(-1)
        with pytest.raises(ValueError):
            stats.add_writes(-5)

    def test_repr_mentions_counts(self):
        stats = IOStats()
        stats.add_writes(2)
        assert "writes=2" in repr(stats)


class TestIOSnapshot:
    def test_snapshot_is_frozen_copy(self):
        stats = IOStats()
        stats.add_reads(5)
        snap = stats.snapshot()
        stats.add_reads(5)
        assert snap.reads == 5
        assert stats.reads == 10

    def test_snapshot_immutable(self):
        snap = IOStats().snapshot()
        with pytest.raises(Exception):
            snap.reads = 3  # type: ignore[misc]

    def test_delta_arithmetic(self):
        stats = IOStats()
        stats.add_reads(4)
        stats.add_writes(1)
        before = stats.snapshot()
        stats.add_reads(6)
        stats.add_writes(2)
        delta = stats.snapshot() - before
        assert delta == IOSnapshot(reads=6, writes=2)
        assert delta.total == 8

    def test_addition(self):
        total = IOSnapshot(1, 2) + IOSnapshot(10, 20)
        assert total == IOSnapshot(11, 22)
