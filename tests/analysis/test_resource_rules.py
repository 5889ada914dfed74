"""SEX6xx (resource lifecycle): the PR-5 leak shape and its clean twins."""

from __future__ import annotations

#: The historical division-step bug, reduced: a PartitionWriter is
#: acquired, the routing loop can raise (block fault, retries exhausted,
#: budget trip), and nothing releases the half-written part files on
#: that path.  The happy path seals.  This exact shape must be flagged.
LEAKY_ROUTING = """\
def materialize(device, keys, edge_file, owner):
    writer = PartitionWriter(device, keys)
    for u, v in edge_file.scan():
        writer.route(owner[u], u, v)
    return writer.seal()
"""

#: The shipped fix: a narrow except releases the parts and re-raises.
FIXED_ROUTING = """\
def materialize(device, keys, edge_file, owner):
    writer = PartitionWriter(device, keys)
    try:
        for u, v in edge_file.scan():
            writer.route(owner[u], u, v)
        return writer.seal()
    except StorageError:
        writer.discard()
        raise
"""


class TestLeakFlagged:
    def test_pr5_leak_shape_flagged(self, check):
        assert check(LEAKY_ROUTING) == ["SEX601"]

    def test_fixed_shape_clean(self, check):
        assert check(FIXED_ROUTING) == []

    def test_leak_on_early_return_path(self, check):
        source = """\
        def f(device, p):
            w = BlockDevice(device)
            if p:
                return None
            w.close()
            return None
        """
        assert check(source) == ["SEX601"]

    def test_try_finally_release_clean(self, check):
        source = """\
        def f(device, keys, edge_file, owner):
            writer = PartitionWriter(device, keys)
            try:
                for u, v in edge_file.scan():
                    writer.route(owner[u], u, v)
            finally:
                writer.discard()
        """
        assert check(source) == []

    def test_summary_acquirer_tracked(self, check):
        # `open_sealed` is not called directly: the resource arrives
        # through a project helper whose summary says returns_resource.
        source = """\
        def make(path):
            return open_sealed(path)

        def f(path):
            handle = make(path)
            handle.flush()
        """
        assert check(source) == ["SEX601"]


class TestOwnershipTransfers:
    def test_returning_resource_is_a_handoff(self, check):
        source = """\
        def f(device, keys):
            writer = PartitionWriter(device, keys)
            return writer
        """
        assert check(source) == []

    def test_passing_to_call_is_a_handoff(self, check):
        source = """\
        def f(device, keys):
            writer = PartitionWriter(device, keys)
            registry.adopt(writer)
        """
        assert check(source) == []

    def test_storing_in_container_is_a_handoff(self, check):
        source = """\
        def f(device, keys, sink):
            writer = PartitionWriter(device, keys)
            sink.append(writer)
        """
        assert check(source) == []

    def test_with_binding_untracked(self, check):
        source = """\
        def f(path):
            with open_sealed(path) as handle:
                handle.flush()
        """
        assert check(source) == []


class TestScope:
    def test_rule_silent_outside_gated_layers(self, check):
        assert check(LEAKY_ROUTING, path="repro/bench/harness.py") == []

    def test_rule_active_in_apps(self, check):
        assert check(LEAKY_ROUTING, path="repro/apps/cli.py") == ["SEX601"]

    def test_conditional_release_accepted_after_join(self, check):
        # Released on one branch, untouched on the other, paths merge
        # before exiting: the joined state carries a `done` fact, so the
        # may-analysis stays quiet past the merge point.
        source = """\
        def f(device, keys, p):
            writer = PartitionWriter(device, keys)
            if p:
                writer.discard()
            record(p)
        """
        assert check(source) == []

    def test_branch_straight_to_exit_without_release_flagged(self, check):
        # ...but a fall-through edge that reaches EXIT without ever
        # merging with the releasing path is judged on its own state:
        # that path genuinely leaks.
        source = """\
        def f(device, keys, p):
            writer = PartitionWriter(device, keys)
            if p:
                writer.discard()
        """
        assert check(source) == ["SEX601"]
