"""CFG construction and shared-pass caching."""

import ast
import textwrap

from repro.analysis.flow import (
    build_cfg,
    context_for_source,
    receiver_text,
    shallow_walk,
    statement_tree,
)


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    function = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(function)


def _find(cfg, needle):
    """(block_index, statement_index) of the statement matching *needle*.

    Compound statements (If/While) unparse to text containing their
    bodies, so prefer the tightest match — the statement itself, not an
    enclosing head.
    """
    candidates = []
    for block in cfg.blocks:
        for i, statement in enumerate(block.statements):
            text = ast.unparse(statement)
            if needle in text:
                candidates.append((len(text), block.index, i))
    if not candidates:
        raise AssertionError(f"statement {needle!r} not in CFG")
    _, block_index, statement_index = min(candidates)
    return block_index, statement_index


def _after(cfg, needle):
    block, index = _find(cfg, needle)
    return {ast.unparse(s).split("\n")[0] for s in cfg.statements_after(block, index)}


class TestCFGShape:
    def test_straight_line_single_block(self):
        cfg = _cfg(
            """
            def f():
                a = 1
                b = 2
                return a + b
            """
        )
        bodies = [b for b in cfg.blocks if b.statements]
        assert len(bodies) == 1

    def test_if_else_joins(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                done = True
            """
        )
        # Both branches reach the join statement; neither reaches the other.
        assert "done = True" in _after(cfg, "a = 1")
        assert "done = True" in _after(cfg, "a = 2")
        assert "a = 2" not in _after(cfg, "a = 1")

    def test_while_loop_has_back_edge(self):
        cfg = _cfg(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )
        # The loop body may re-execute itself (back edge through the head).
        assert "n -= 1" in _after(cfg, "n -= 1")
        assert "return n" in _after(cfg, "n -= 1")

    def test_break_skips_rest_of_loop(self):
        cfg = _cfg(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                    consume(item)
                after = True
            """
        )
        block, index = _find(cfg, "break")
        names = {
            ast.unparse(s) for s in cfg.statements_after(block, index)
        }
        assert "after = True" in names
        assert "consume(item)" not in names

    def test_return_cuts_block(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    return 1
                tail = 2
            """
        )
        assert _after(cfg, "return 1") == set()

    def test_try_body_reaches_handler(self):
        cfg = _cfg(
            """
            def f():
                try:
                    risky()
                    more()
                except ValueError:
                    handled = True
                done = True
            """
        )
        # Conservative exception edges: every try-body statement may be
        # followed by the handler.
        assert "handled = True" in _after(cfg, "risky()")
        assert "handled = True" in _after(cfg, "more()")
        assert "done = True" in _after(cfg, "handled = True")

    def test_nested_loop_in_try_reaches_handler(self):
        cfg = _cfg(
            """
            def f(items):
                try:
                    for item in items:
                        use(item)
                except Exception:
                    cleanup()
            """
        )
        # Blocks allocated for the nested loop body are still part of
        # the protected region.
        assert "cleanup()" in _after(cfg, "use(item)")


class TestModuleContext:
    SOURCE = """
    import time

    class Box:
        def method(self):
            return 1

    def top(a, b):
        if a:
            return b
        return a
    """

    def test_walk_index_is_cached(self):
        ctx = context_for_source(textwrap.dedent(self.SOURCE))
        first = ctx.walk(ast.FunctionDef)
        second = ctx.walk(ast.FunctionDef)
        # One shared index: repeated walks return the same node objects.
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
        assert {f.name for f in first} == {"method", "top"}

    def test_cfg_cached_per_function(self):
        ctx = context_for_source(textwrap.dedent(self.SOURCE))
        fn = next(f.node for f in ctx.functions if f.node.name == "top")
        assert ctx.cfg(fn) is ctx.cfg(fn)

    def test_enclosing_class(self):
        ctx = context_for_source(textwrap.dedent(self.SOURCE))
        by_name = {f.node.name: f.node for f in ctx.functions}
        assert ctx.enclosing_class(by_name["method"]) == "Box"
        assert ctx.enclosing_class(by_name["top"]) is None


class TestHelpers:
    def test_shallow_walk_if_sees_only_test(self):
        statement = ast.parse(
            "if cond():\n    body_call()\n"
        ).body[0]
        names = {
            node.func.id
            for node in shallow_walk(statement)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
        }
        assert names == {"cond"}

    def test_statement_tree_skips_nested_defs(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def outer():
                    a = 1
                    def inner():
                        hidden = 1
                    b = 2
                """
            )
        )
        statements = statement_tree(tree.body[0].body)
        text = [ast.unparse(s).split("\n")[0] for s in statements]
        assert "a = 1" in text and "b = 2" in text
        assert "hidden = 1" not in text

    def test_receiver_text_unwraps_calls_and_subscripts(self):
        expr = ast.parse("self.rings[0].buf").body[0].value
        assert receiver_text(expr) == "self.rings.buf"
