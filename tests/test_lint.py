"""Positive and negative fixtures for every repo lint rule."""

import ast
import textwrap

from repro.analysis.lint import (
    COLUMNAR_HOT_FUNCS,
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    iter_python_files,
    lint_paths,
    lint_source,
)

HOT = "src/repro/operators/example.py"
COLD = "benchmarks/example.py"


def _lint(source, path=HOT, rules=None):
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def _rule_ids(findings):
    return [finding.rule for finding in findings]


class TestWallClock:
    def test_positive_time_time(self):
        findings = _lint(
            """
            import time

            def on_insert(self, element, port):
                stamp = time.time()
            """
        )
        assert _rule_ids(findings) == ["REP101"]
        assert findings[0].severity == SEVERITY_ERROR

    def test_positive_datetime_now_and_from_import(self):
        findings = _lint(
            """
            import datetime
            from time import time

            def a():
                return datetime.datetime.now()

            def b():
                return time()
            """
        )
        assert _rule_ids(findings) == ["REP101", "REP101"]

    def test_negative_perf_counter_allowed(self):
        assert not _lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        )

    def test_negative_outside_hot_paths(self):
        assert not _lint(
            """
            import time

            def anywhere():
                return time.time()
            """,
            path=COLD,
        )


class TestOnStable:
    def test_positive_data_without_punctuation(self):
        findings = _lint(
            """
            class Leaky(Operator):
                def on_insert(self, element, port):
                    self.emit(element)
            """
        )
        assert _rule_ids(findings) == ["REP102"]

    def test_negative_with_on_stable(self):
        assert not _lint(
            """
            class Fine(Operator):
                def on_insert(self, element, port):
                    self.emit(element)

                def on_stable(self, vc, port):
                    self.emit_stable(vc)
            """
        )

    def test_negative_receive_override(self):
        assert not _lint(
            """
            class Bridge(Operator):
                def receive(self, element, port=0):
                    self.forward(element)
            """
        )

    def test_negative_output_only_operator(self):
        # Sources and output bridges never receive input: exempt.
        assert not _lint(
            """
            class Source(Operator):
                def play(self):
                    pass
            """
        )


class TestPrint:
    def test_positive_in_src(self):
        findings = _lint(
            """
            def debug(x):
                print(x)
            """,
            path="src/repro/streams/thing.py",
        )
        assert _rule_ids(findings) == ["REP105"]

    def test_negative_cli_modules_exempt(self):
        for path in ("src/repro/__main__.py", "src/repro/analysis/cli.py"):
            assert not _lint("print('status')\n", path=path)

    def test_negative_outside_src(self):
        assert not _lint("print('hi')\n", path="tests/helper.py")


class TestMutableDefault:
    def test_positive_literal_and_call(self):
        findings = _lint(
            """
            def f(a=[], b=dict()):
                return a, b
            """
        )
        assert _rule_ids(findings) == ["REP106", "REP106"]
        assert all(f.severity == SEVERITY_WARNING for f in findings)

    def test_negative_none_default(self):
        assert not _lint(
            """
            def f(a=None, b=()):
                return a, b
            """
        )


class TestColumnarLoops:
    def test_positive_direct_iteration(self):
        findings = _lint(
            """
            def receive_columns(self, batch, port=0):
                for element in batch:
                    self.receive(element, port)
            """
        )
        assert _rule_ids(findings) == ["REP107"]
        assert findings[0].severity == SEVERITY_ERROR

    def test_positive_to_elements_loop(self):
        findings = _lint(
            """
            def emit_columns(self, batch):
                for element in batch.to_elements():
                    self.emit(element)
            """
        )
        assert _rule_ids(findings) == ["REP107"]

    def test_positive_elements_slice_comprehension(self):
        findings = _lint(
            """
            def partition_columns(batch, num_shards):
                out = [e for e in batch.elements_slice(0, batch.n)]
                return out
            """
        )
        assert _rule_ids(findings) == ["REP107"]

    def test_positive_annotated_param(self):
        findings = _lint(
            """
            def receive_columns(self, chunk: ColumnBatch, port=0):
                for element in chunk.to_elements():
                    self.receive(element, port)
            """
        )
        assert _rule_ids(findings) == ["REP107"]

    def test_negative_column_walk(self):
        assert not _lint(
            """
            def receive_columns(self, batch, port=0):
                vs = batch.vs
                for i in range(batch.n):
                    self._note(vs[i])
            """
        )

    def test_negative_survivor_materialization(self):
        # Materializing only emitted rows is the sanctioned pattern.
        assert not _lint(
            """
            def receive_columns(self, batch, port=0):
                out = batch.take(self._survivors).to_elements()
                self._emit_batch(out)
            """
        )

    def test_negative_outside_hot_paths(self):
        assert not _lint(
            """
            def receive_columns(self, batch, port=0):
                for element in batch:
                    self.receive(element, port)
            """,
            path=COLD,
        )

    def test_negative_non_batch_function(self):
        assert not _lint(
            """
            def helper(self, batch):
                for element in batch:
                    self.receive(element)
            """
        )


class TestRegistryInLoop:
    ENGINE = "src/repro/engine/example.py"

    def test_positive_for_loop_lookup(self):
        findings = _lint(
            """
            def update(registry, edges):
                for edge in edges:
                    registry.gauge("queue_depth", {"edge": edge.name}).set(
                        edge.depth
                    )
            """,
            path=self.ENGINE,
        )
        assert _rule_ids(findings) == ["REP109"]
        assert findings[0].severity == SEVERITY_ERROR

    def test_positive_while_loop_self_registry(self):
        findings = _lint(
            """
            def drain(self):
                while self.pending:
                    item = self.pending.pop()
                    self.registry.counter("drained_total").inc()
            """,
            path="src/repro/lmerge/example.py",
        )
        assert _rule_ids(findings) == ["REP109"]

    def test_positive_comprehension(self):
        findings = _lint(
            """
            def peaks(registry, shards):
                return [
                    registry.gauge("peak", {"shard": s}).value for s in shards
                ]
            """,
            path="src/repro/structures/example.py",
        )
        assert _rule_ids(findings) == ["REP109"]

    def test_positive_nested_loop_reported_once(self):
        findings = _lint(
            """
            def update(registry, grid):
                for row in grid:
                    for cell in row:
                        registry.counter("cells_total").inc()
            """,
            path=self.ENGINE,
        )
        assert _rule_ids(findings) == ["REP109"]

    def test_negative_handle_resolved_before_loop(self):
        assert not _lint(
            """
            def update(registry, edges):
                depth = registry.gauge("queue_depth")
                for edge in edges:
                    depth.set(edge.depth)
            """,
            path=self.ENGINE,
        )

    def test_negative_outside_scope(self):
        # obs/ and resilience/ sample at observer cadence, not per
        # element — the rule patrols engine/lmerge/structures only.
        source = """
            def update(registry, edges):
                for edge in edges:
                    registry.gauge("queue_depth", {"edge": edge.name}).set(0)
            """
        assert not _lint(source, path="src/repro/obs/example.py")
        assert not _lint(source, path="src/repro/resilience/example.py")
        assert not _lint(source, path=COLD)

    def test_negative_non_registry_receiver(self):
        assert not _lint(
            """
            def update(store, edges):
                for edge in edges:
                    store.counter("queue_depth").inc()
            """,
            path=self.ENGINE,
        )

    def test_noqa_suppresses(self):
        assert not _lint(
            """
            def update(registry, edges):
                for edge in edges:
                    registry.counter("edges_total").inc()  # noqa: REP109
            """,
            path=self.ENGINE,
        )


class TestUnusedNoqa:
    def test_positive_suppresses_nothing(self):
        findings = _lint(
            """
            x = 1  # noqa: REP105
            """
        )
        assert _rule_ids(findings) == ["REP113"]
        assert findings[0].severity == SEVERITY_WARNING

    def test_negative_suppression_in_use(self):
        assert not _lint(
            """
            def f(a=[]):  # noqa: REP106
                return a
            """
        )

    def test_negative_bare_noqa_not_flagged(self):
        assert not _lint(
            """
            x = 1  # noqa
            """
        )

    def test_negative_foreign_codes_not_flagged(self):
        assert not _lint(
            """
            x = 1  # noqa: E501
            """
        )

    def test_negative_noqa_text_in_string(self):
        # Only real comment tokens count — noqa-shaped text inside
        # strings and docstrings is data, not a suppression.
        assert not _lint(
            '''
            FIXTURE = """
            x = 1  # noqa: REP105
            """
            '''
        )


class TestSuppression:
    def test_bare_noqa(self):
        assert not _lint(
            """
            def f(a=[]):  # noqa
                return a
            """
        )

    def test_targeted_noqa(self):
        assert not _lint(
            """
            def f(a=[]):  # noqa: REP106
                return a
            """
        )

    def test_wrong_code_does_not_suppress(self):
        findings = _lint(
            """
            def f(a=[]):  # noqa: REP101
                return a
            """
        )
        # The REP106 finding survives, and the REP101 suppression —
        # which suppressed nothing — is itself flagged (REP113).
        assert sorted(_rule_ids(findings)) == ["REP106", "REP113"]


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        findings = _lint("def broken(:\n", path=HOT)
        assert _rule_ids(findings) == ["REP100"]

    def test_rule_filter(self):
        source = """
        import time

        def f(a=[]):
            return time.time()
        """
        assert _rule_ids(_lint(source, rules=["REP106"])) == ["REP106"]

    def test_rule_catalog_complete(self):
        assert set(RULES) == {
            "REP101",
            "REP102",
            "REP105",
            "REP106",
            "REP107",
            "REP109",
            "REP113",
        }

    def test_columnar_rule_has_live_subjects(self):
        # REP107 finds its subjects by name: a renamed handler must fail
        # here instead of silently leaving the rule nothing to inspect.
        defined = {
            node.name
            for file in iter_python_files(
                ["src/repro/engine", "src/repro/operators"]
            )
            for node in ast.walk(ast.parse(file.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
        }
        assert COLUMNAR_HOT_FUNCS <= defined

    def test_repo_is_clean(self):
        findings = lint_paths(["src", "tests", "benchmarks", "examples"])
        errors = [
            f for f in findings if f.severity == SEVERITY_ERROR
        ]
        assert errors == [], "\n".join(f.render() for f in errors)
