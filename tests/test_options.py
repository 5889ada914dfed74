"""Tests for the typed RunOptions surface and the algorithm registry."""

import dataclasses

import pytest

import repro
from repro import (
    AlgorithmRegistry,
    AlgorithmSpec,
    DiskGraph,
    RunOptions,
    semi_external_dfs,
)
from repro.graph import random_graph
from repro.registry import BASE_OPTIONS


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
        assert RunOptions().to_kwargs(BASE_OPTIONS, "divide-td") == {}

    def test_explicit_fields_are_forwarded(self):
        options = RunOptions(max_passes=7, checkpoint_every=2)
        kwargs = options.to_kwargs(
            BASE_OPTIONS | {"checkpoint_every"}, "edge-by-batch"
        )
        assert kwargs == {"max_passes": 7, "checkpoint_every": 2}

    def test_unsupported_explicit_option_names_the_valid_set(self):
        with pytest.raises(ValueError) as excinfo:
            RunOptions(checkpoint_every=3).to_kwargs(BASE_OPTIONS, "divide-td")
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
        from repro.apps import find_cycle, topological_order

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
        with pytest.raises(TypeError):
            topological_order(disk, memory)
        with pytest.raises(TypeError):
            find_cycle(disk, memory)


class TestRegistry:
    def make_spec(self, name, **overrides):
        def runner(graph, memory, start=None, **kwargs):
            raise NotImplementedError

        fields = dict(name=name, runner=runner, description="test algorithm")
        fields.update(overrides)
        return AlgorithmSpec(**fields)

    def test_names_cover_aliases(self):
        registry = AlgorithmRegistry()
        spec = self.make_spec("primary", aliases=("alias",))
        registry.register(spec)
        assert registry.names() == ["alias", "primary"]
        assert registry.spec("alias") is registry.spec("primary") is spec

    def test_specs_yield_each_algorithm_once_in_order(self):
        registry = AlgorithmRegistry()
        first = registry.register(self.make_spec("one", aliases=("uno",)))
        second = registry.register(self.make_spec("two"))
        assert registry.specs() == [first, second]

    def test_duplicate_name_rejected(self):
        registry = AlgorithmRegistry()
        registry.register(self.make_spec("taken"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self.make_spec("taken"))

    def test_duplicate_alias_rejected(self):
        registry = AlgorithmRegistry()
        registry.register(self.make_spec("one", aliases=("shared",)))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self.make_spec("two", aliases=("shared",)))

    def test_unknown_name_lists_known_ones(self):
        registry = AlgorithmRegistry()
        registry.register(self.make_spec("real"))
        with pytest.raises(ValueError, match="real"):
            registry.spec("imaginary")


class TestRegisterAlgorithm:
    @pytest.fixture
    def scratch_registration(self):
        """Undo any global registrations made by the test."""
        registry = repro.ALGORITHMS
        before = set(registry._by_name)
        yield registry
        for name in set(registry._by_name) - before:
            spec = registry._by_name.pop(name)
            registry._specs.pop(spec.name, None)

    def test_registered_algorithm_is_callable_via_facade(
        self, disk, scratch_registration
    ):
        from repro.algorithms import divide_td_dfs

        repro.register_algorithm(AlgorithmSpec(
            name="custom-td",
            runner=divide_td_dfs,
            description="divide-td under a custom name",
        ))
        result = semi_external_dfs(
            disk, memory=3 * 50 + 90, algorithm="custom-td",
        )
        assert sorted(result.order) == list(range(50))

    def test_registered_algorithm_enumerated_by_cli(self, scratch_registration):
        from repro.algorithms import divide_td_dfs
        from repro.cli import build_parser

        repro.register_algorithm(AlgorithmSpec(
            name="custom-choice",
            runner=divide_td_dfs,
            description="registered after import",
        ))
        parser = build_parser()
        args = parser.parse_args([
            "dfs", "--input", "x.txt", "--algorithm", "custom-choice",
        ])
        assert args.algorithm == "custom-choice"
