"""SEX31x (flow-sensitive determinism): taint reaching run state."""

from __future__ import annotations


class TestHostStateTaint:
    def test_wallclock_through_local_reaches_result(self, check):
        source = """\
        def run(context, tree):
            started = time.time()
            return context.finish_result(DFSResult, tree, started_at=started)
        """
        assert "SEX311" in check(source)

    def test_wallclock_through_helper_call(self, check):
        # The taint crosses a project-function boundary via its summary.
        source = """\
        def stamp():
            return time.monotonic()

        def run(context, tree):
            mark = stamp()
            return context.finish_result(DFSResult, tree, mark=mark)
        """
        assert "SEX311" in check(source)

    def test_environment_read_reaches_span_payload(self, check):
        source = """\
        def trace(span):
            host = os.getenv("HOSTNAME")
            span.annotate(host=host)
        """
        assert "SEX311" in check(source)

    def test_random_reaches_storage_write(self, check):
        source = """\
        def shuffle_out(device, keys, values):
            writer = PartitionWriter(device, keys)
            pick = random.choice(values)
            writer.route_columns(1, [pick], [pick])
            writer.seal()
        """
        assert "SEX311" in check(source)

    def test_elapsed_seconds_keyword_exempt(self, check):
        source = """\
        def run(context, tree, started):
            delta = time.perf_counter() - started
            return context.finish_result(DFSResult, tree, elapsed_seconds=delta)
        """
        codes = check(source)
        assert "SEX311" not in codes

    def test_untainted_fields_clean(self, check):
        source = """\
        def run(context, tree, passes):
            return context.finish_result(DFSResult, tree, passes=passes)
        """
        assert check(source) == []

    def test_taint_cleared_by_rebind(self, check):
        source = """\
        def run(context, tree):
            mark = time.time()
            mark = 0
            return context.finish_result(DFSResult, tree, mark=mark)
        """
        # (the raw time.time() call itself still trips the statement-level
        # SEX302 — only the flow-sensitive sink rule must stay quiet)
        assert "SEX311" not in check(source)

    def test_rule_silent_in_observability_layer(self, check):
        source = """\
        def trace(span):
            span.annotate(at=time.time())
        """
        assert check(source, path="repro/obs/tracer.py") == []


class TestSetOrderTaint:
    def test_set_iteration_order_reaches_result(self, check):
        source = """\
        def run(context, tree, nodes):
            seen = set(nodes)
            order = [node for node in seen]
            return context.finish_result(DFSResult, tree, order=order)
        """
        assert "SEX312" in check(source)

    def test_sorted_iteration_clean(self, check):
        source = """\
        def run(context, tree, nodes):
            seen = set(nodes)
            order = [node for node in sorted(seen)]
            return context.finish_result(DFSResult, tree, order=order)
        """
        codes = check(source)
        assert "SEX312" not in codes

    def test_set_order_into_span_payload(self, check):
        source = """\
        def trace(span, nodes):
            pending = set(nodes)
            for node in pending:
                span.annotate(node=node)
        """
        assert "SEX312" in check(source)

    def test_list_iteration_clean(self, check):
        source = """\
        def run(context, tree, nodes):
            order = [node for node in list(nodes)]
            return context.finish_result(DFSResult, tree, order=order)
        """
        assert check(source) == []
