"""Tests for the typed RunOptions surface and what each algorithm accepts."""

import dataclasses

import pytest

from repro import DiskGraph, RunOptions, semi_external_dfs
from repro.graph import random_graph


@pytest.fixture
def disk(device):
    return DiskGraph.from_digraph(device, random_graph(50, 3, seed=9))


class TestRunOptions:
    def test_frozen(self):
        options = RunOptions()
        with pytest.raises(AttributeError):
            options.max_passes = 5

    def test_replace_derives_a_variant(self):
        base = RunOptions(max_passes=4)
        derived = base.replace(deadline_seconds=2.0)
        assert base.deadline_seconds is None
        assert derived.max_passes == 4
        assert derived.deadline_seconds == 2.0

    def test_defaults_are_not_forwarded(self):
        assert RunOptions().to_kwargs(BASE_FIELDS, "divide-td") == {}

    def test_explicit_fields_are_forwarded(self):
        options = RunOptions(max_passes=7, checkpoint_every=2)
        kwargs = options.to_kwargs(
            BASE_FIELDS | {"checkpoint_every"}, "edge-by-batch"
        )
        assert kwargs == {"max_passes": 7, "checkpoint_every": 2}

    def test_unsupported_explicit_option_names_the_valid_set(self):
        with pytest.raises(ValueError) as excinfo:
            RunOptions(checkpoint_every=3).to_kwargs(BASE_FIELDS, "divide-td")
        message = str(excinfo.value)
        assert "'checkpoint_every'" in message
        assert "'divide-td'" in message
        assert "max_passes" in message  # the supported set is spelled out

    def test_option_names_match_the_dataclass(self):
        # the kernel and the block codec are set on the device, not per run
        assert {field.name for field in dataclasses.fields(RunOptions)} == {
            "max_passes", "deadline_seconds", "order", "checkpoint_every",
            "initial_tree", "tracer",
        }

    def test_typo_is_a_construction_error(self):
        with pytest.raises(TypeError):
            RunOptions(max_passe=9)


class TestFacadeOptions:
    def test_options_object_forwarded(self, disk):
        result = semi_external_dfs(
            disk, memory=3 * 50 + 90, algorithm="edge-by-batch",
            options=RunOptions(checkpoint_every=1),
        )
        assert result.artifact_ref is not None

    def test_unsupported_option_for_algorithm(self, disk):
        with pytest.raises(ValueError, match="supported options"):
            semi_external_dfs(
                disk, memory=3 * 50 + 90, algorithm="divide-td",
                options=RunOptions(order=[0, 1, 2]),
            )

    def test_removed_spellings_raise_type_error(self, disk):
        """Each entry point has one spelling; the second ones are gone."""
        from repro.algorithms import divide_td_dfs

        memory = 3 * 50 + 90
        with pytest.raises(TypeError):
            semi_external_dfs(disk, memory, max_passes=3)
        with pytest.raises(TypeError):
            divide_td_dfs(disk, memory, trace=True)
        with pytest.raises(TypeError):
            divide_td_dfs(disk, memory, block_codec="fixed32")
        with pytest.raises(TypeError):
            RunOptions(block_codec="fixed32")
        with pytest.raises(TypeError):
            RunOptions(use_external_stack=False)


#: The run options every algorithm accepts.
BASE_FIELDS = frozenset({"max_passes", "deadline_seconds", "tracer"})

#: The RunOptions fields each name and alias accepts, and the canonical
#: name its errors report.
OPTION_SURFACE = {
    "edge-by-edge": ("edge-by-edge", BASE_FIELDS),
    "edge-by-batch": (
        "edge-by-batch",
        BASE_FIELDS | {"order", "checkpoint_every", "initial_tree"},
    ),
    "semi-dfs": (
        "edge-by-batch",
        BASE_FIELDS | {"order", "checkpoint_every", "initial_tree"},
    ),
    "divide-star": ("divide-star", BASE_FIELDS),
    "divide-td": ("divide-td", BASE_FIELDS),
    "bfs": ("bfs", BASE_FIELDS),
    "semi-bfs": ("bfs", BASE_FIELDS),
}


class TestOptionSurface:
    """Pin which RunOptions fields each algorithm name accepts."""

    MEMORY = 3 * 50 + 90

    def explicit_value(self, disk, field):
        """A valid non-default value for ``field`` on the 50-node graph."""
        from repro import Tracer

        if field == "max_passes":
            return 1000
        if field == "deadline_seconds":
            return 600.0
        if field == "tracer":
            return Tracer()
        if field == "order":
            return list(reversed(range(50)))
        if field == "checkpoint_every":
            return 1
        assert field == "initial_tree"
        return semi_external_dfs(disk, self.MEMORY, "edge-by-batch").tree

    @pytest.mark.parametrize("name", sorted(OPTION_SURFACE))
    def test_accepted_fields(self, disk, name):
        canonical, accepted = OPTION_SURFACE[name]
        fields = {field.name for field in dataclasses.fields(RunOptions)}
        assert accepted <= fields
        for field in sorted(fields):
            options = RunOptions(**{field: self.explicit_value(disk, field)})
            if field in accepted:
                result = semi_external_dfs(
                    disk, self.MEMORY, algorithm=name, options=options,
                )
                assert result.algorithm == canonical
                assert sorted(result.order) == list(range(50))
            else:
                with pytest.raises(ValueError) as excinfo:
                    semi_external_dfs(
                        disk, self.MEMORY, algorithm=name, options=options,
                    )
                assert str(excinfo.value) == (
                    f"option {field!r} is not supported by algorithm "
                    f"{canonical!r}; supported options: "
                    f"{', '.join(sorted(accepted))}"
                )

    def test_unknown_name_lists_every_name_and_alias(self, disk):
        with pytest.raises(ValueError) as excinfo:
            semi_external_dfs(disk, self.MEMORY, algorithm="ifs")
        assert str(excinfo.value) == (
            "unknown algorithm 'ifs'; known: "
            f"{', '.join(sorted(OPTION_SURFACE))}"
        )
