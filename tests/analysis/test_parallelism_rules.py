"""SEX5xx (parallelism containment): positive and negative fixture cases."""

from __future__ import annotations


class TestProcessPoolConfinement:
    def test_multiprocessing_import_flagged(self, check):
        assert check("import multiprocessing\n") == ["SEX501"]

    def test_multiprocessing_submodule_flagged(self, check):
        assert check("import multiprocessing.pool\n") == ["SEX501"]

    def test_concurrent_futures_from_import_flagged(self, check):
        source = "from concurrent.futures import ProcessPoolExecutor\n"
        assert check(source) == ["SEX501"]

    def test_flagged_in_storage_layer_too(self, check):
        source = "from concurrent import futures\n"
        assert check(source, "repro/storage/snippet.py") == ["SEX501"]

    def test_shared_memory_flagged_in_the_storage_layer(self, check):
        assert check(
            "from multiprocessing import resource_tracker, shared_memory\n",
            "repro/storage/snippet.py",
        ) == ["SEX501"]
        assert check(
            "import multiprocessing.shared_memory\n", "repro/storage/shm.py"
        ) == ["SEX501"]

    def test_shared_memory_flagged_outside_the_storage_layer(self, check):
        source = "from multiprocessing.shared_memory import SharedMemory\n"
        assert check(source, "repro/algorithms/snippet.py") == ["SEX501"]
        assert check(source, "repro/core/snippet.py") == ["SEX501"]

    def test_flagged_at_the_former_scheduler_path(self, check):
        source = """\
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, wait
        """
        assert check(source, "repro/parallel.py") == ["SEX501", "SEX501"]

    def test_unrelated_imports_ok(self, check):
        source = """\
        import os
        from dataclasses import dataclass
        import concurrency_helpers  # similar name, different module
        """
        assert check(source) == []

    def test_waiver_applies(self, check):
        source = """\
        # repro: allow[SEX501] documented one-off pool for the test harness
        import multiprocessing
        """
        assert check(source) == []
