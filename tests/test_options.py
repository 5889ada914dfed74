"""Tests for the typed RunOptions surface and the algorithm registry."""

import warnings

import pytest

import repro.api
from repro import (
    AlgorithmRegistry,
    AlgorithmSpec,
    DiskGraph,
    RunOptions,
    Tracer,
    semi_external_dfs,
)
from repro.graph import random_graph
from repro.options import OPTION_NAMES
from repro.registry import BASE_OPTIONS


@pytest.fixture
def disk(device):
    return DiskGraph.from_digraph(device, random_graph(50, 3, seed=9))


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Reset the once-per-name deprecation bookkeeping for this test."""
    monkeypatch.setattr(repro.api, "_WARNED_OPTIONS", set())


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

    def test_default_bool_not_forwarded_even_if_unsupported(self):
        # use_external_stack defaults to True; divide-td does not accept
        # it, but leaving it at the default must not raise.
        kwargs = RunOptions(use_external_stack=True).to_kwargs(
            BASE_OPTIONS, "divide-td"
        )
        assert kwargs == {}

    def test_explicit_fields_are_forwarded(self):
        options = RunOptions(max_passes=7, use_external_stack=False)
        kwargs = options.to_kwargs(
            BASE_OPTIONS | {"use_external_stack"}, "edge-by-batch"
        )
        assert kwargs == {"max_passes": 7, "use_external_stack": False}

    def test_unsupported_explicit_option_names_the_valid_set(self):
        with pytest.raises(ValueError) as excinfo:
            RunOptions(checkpoint_every=3).to_kwargs(BASE_OPTIONS, "divide-td")
        message = str(excinfo.value)
        assert "'checkpoint_every'" in message
        assert "'divide-td'" in message
        assert "max_passes" in message  # the supported set is spelled out

    def test_option_names_match_the_dataclass(self):
        assert OPTION_NAMES == {
            "max_passes", "deadline_seconds", "use_external_stack", "order",
            "checkpoint_every", "initial_tree", "tracer", "block_codec",
        }

    def test_typo_is_a_construction_error(self):
        with pytest.raises(TypeError):
            RunOptions(max_passe=9)


class TestFacadeOptions:
    def test_options_object_forwarded(self, disk):
        result = semi_external_dfs(
            disk, memory=3 * 50 + 90, algorithm="edge-by-batch",
            options=RunOptions(use_external_stack=False),
        )
        assert result.io.writes == 0

    def test_unsupported_option_for_algorithm(self, disk):
        with pytest.raises(ValueError, match="supported options"):
            semi_external_dfs(
                disk, memory=3 * 50 + 90, algorithm="divide-td",
                options=RunOptions(order=[0, 1, 2]),
            )

    def test_unknown_legacy_kwarg_lists_valid_names(self, disk, fresh_warnings):
        with pytest.raises(ValueError) as excinfo:
            semi_external_dfs(disk, memory=3 * 50 + 90, max_passe=9)
        message = str(excinfo.value)
        assert "'max_passe'" in message
        assert "max_passes" in message and "trace" in message

    def test_legacy_kwargs_warn_once_per_name(self, disk, fresh_warnings):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                semi_external_dfs(
                    disk, memory=3 * 50 + 90, algorithm="divide-td",
                    max_passes=200,
                )
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "max_passes" in str(deprecations[0].message)

    def test_each_legacy_name_warns_separately(self, disk, fresh_warnings):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            semi_external_dfs(
                disk, memory=3 * 50 + 90, algorithm="edge-by-batch",
                max_passes=200, use_external_stack=False,
            )
        names = {str(w.message).split("'")[1] for w in caught
                 if issubclass(w.category, DeprecationWarning)}
        assert names == {"max_passes", "use_external_stack"}

    def test_legacy_trace_flag_builds_a_tracer(self, disk, fresh_warnings):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = semi_external_dfs(
                disk, memory=3 * 50 + 90, algorithm="divide-td", trace=True,
            )
        assert any("trace" in str(w.message) for w in caught)
        assert result.events  # the shim installed a real tracer

    def test_explicit_options_combine_with_legacy_kwargs(
        self, disk, fresh_warnings
    ):
        tracer = Tracer()
        result = semi_external_dfs(
            disk, memory=3 * 50 + 90, algorithm="divide-td",
            options=RunOptions(tracer=tracer), max_passes=200,
        )
        assert result.events


class TestTraceNextToTracer:
    def test_trace_with_explicit_tracer_warns_once(self, disk, monkeypatch):
        import repro.algorithms.divide_conquer as dc

        monkeypatch.setattr(dc, "_TRACE_TRACER_WARNED", False)
        tracer = Tracer()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                dc.divide_td_dfs(
                    disk, memory=3 * 50 + 90, trace=True, tracer=tracer,
                )
        deprecations = [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
            and "trace=True is ignored" in str(w.message)
        ]
        assert len(deprecations) == 1

    def test_trace_alone_still_silent(self, disk, monkeypatch):
        import repro.algorithms.divide_conquer as dc

        monkeypatch.setattr(dc, "_TRACE_TRACER_WARNED", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = dc.divide_td_dfs(disk, memory=3 * 50 + 90, trace=True)
        assert result.events  # legacy flag still records events
        assert not any(
            "trace=True is ignored" in str(w.message) for w in caught
        )


class TestDeprecatedTraceAttribute:
    def test_trace_property_warns_and_derives_entries(self, disk, monkeypatch):
        import repro.algorithms.base as base

        monkeypatch.setattr(base, "_TRACE_DEPRECATION_WARNED", False)
        result = semi_external_dfs(
            disk, memory=3 * 50 + 90, algorithm="divide-td",
            options=RunOptions(tracer=Tracer()),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = result.trace
            result.trace  # second read: already announced
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert all("event" in entry for entry in entries)


class TestRegistry:
    def make_spec(self, name, **overrides):
        def runner(graph, memory, start=None, **kwargs):
            raise NotImplementedError

        fields = dict(name=name, runner=runner, description="test algorithm")
        fields.update(overrides)
        return AlgorithmSpec(**fields)

    def test_mapping_shape_covers_aliases(self):
        registry = AlgorithmRegistry()
        spec = self.make_spec("primary", aliases=("alias",))
        registry.register(spec)
        assert set(registry) == {"primary", "alias"}
        assert len(registry) == 2
        assert registry["alias"] is registry["primary"]

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

    def test_missing_getitem_raises_keyerror(self):
        with pytest.raises(KeyError):
            AlgorithmRegistry()["nope"]


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
