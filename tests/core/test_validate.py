"""Tests for the supported-subset validator (repro.core.validate)."""

import ast

import pytest

from repro.core.callgraph import build_call_graph
from repro.core.recongraph import build_reconfiguration_graph
from repro.core.validate import (
    check_instrumented,
    check_module_level,
    require_valid,
)
from repro.errors import UnsupportedConstructError


def diagnostics_for(body: str) -> list:
    """Wrap a body into an instrumented procedure and validate it."""
    source = (
        "def main():\n"
        + "".join(f"    {line}\n" for line in body.split("\n"))
        + "    mh.reconfig_point('R')\n"
    )
    tree = ast.parse(source)
    call_graph = build_call_graph(tree)
    recon = build_reconfiguration_graph(call_graph)
    return check_instrumented(call_graph, recon)


def assert_rejected(body: str, fragment: str):
    diagnostics = diagnostics_for(body)
    assert diagnostics, f"expected a diagnostic for: {body!r}"
    assert any(fragment in str(d) for d in diagnostics), diagnostics


class TestBannedStatements:
    def test_try(self):
        assert_rejected("try:\n    pass\nexcept Exception:\n    pass", "try/except")

    def test_with(self):
        assert_rejected("with open('x') as f:\n    pass", "mh.files")

    def test_nested_def(self):
        assert_rejected("def inner():\n    pass", "nested procedure")

    def test_class(self):
        assert_rejected("class C:\n    pass", "class definitions")

    def test_global(self):
        assert_rejected("global x", "mh.statics")

    def test_nonlocal(self):
        # nonlocal outside a nested function is a syntax error, so check
        # the table instead.
        from repro.core.validate import _BANNED_STMTS

        assert ast.Nonlocal in _BANNED_STMTS

    def test_delete(self):
        assert_rejected("x = 1\ndel x", "frame layout")

    def test_import(self):
        assert_rejected("import os", "module level")

    def test_loop_else(self):
        assert_rejected("while False:\n    pass\nelse:\n    pass", "else-clauses")


class TestLoopExits:
    # ast.parse accepts a stray break or continue (the *compiler* rejects
    # it); validation must refuse it with a located diagnostic.
    def test_break_outside_loop(self):
        assert_rejected("x = 1\nif x:\n    break", "line 4: break outside loop")

    def test_continue_outside_loop(self):
        assert_rejected("continue", "line 2: continue outside loop")

    def test_inside_a_loop_they_pass(self):
        body = "for i in range(3):\n    if i:\n        continue\n    break"
        assert diagnostics_for(body) == []

    def test_prepare_module_refuses_with_the_line(self):
        from repro.core import prepare_module

        source = "def main():\n    break\n    mh.reconfig_point('R')\n"
        with pytest.raises(UnsupportedConstructError, match="line 2: break outside loop"):
            prepare_module(source, "m")


class TestBannedExpressions:
    def test_lambda(self):
        assert_rejected("f = lambda x: x", "scopes invisible")

    def test_yield_makes_generator(self):
        # A yield turns main into a generator: structurally rejected.
        diagnostics = diagnostics_for("x = 1\nif False:\n    yield x")
        assert diagnostics

    def test_walrus(self):
        assert_rejected("if (x := 1):\n    pass", "walrus")


class TestForLoops:
    def test_range_ok(self):
        assert diagnostics_for("for i in range(3):\n    pass") == []

    def test_range_with_args_ok(self):
        assert diagnostics_for("for i in range(0, 10, 2):\n    pass") == []

    def test_arbitrary_iterable_rejected(self):
        assert_rejected("for x in [1, 2]:\n    pass", "range")

    def test_tuple_target_rejected(self):
        assert_rejected("for a, b in range(3):\n    pass", "single name")

    def test_range_keyword_rejected(self):
        assert_rejected("for i in range(stop=3):\n    pass", "range")


class TestInstrumentedCallShape:
    def make(self, main_body: str) -> list:
        source = (
            "def main():\n"
            + "".join(f"    {line}\n" for line in main_body.split("\n"))
            + "\n"
            "def f(x: int):\n"
            "    mh.reconfig_point('R')\n"
            "    return x\n"
        )
        tree = ast.parse(source)
        call_graph = build_call_graph(tree)
        recon = build_reconfiguration_graph(call_graph)
        return check_instrumented(call_graph, recon)

    def test_statement_call_ok(self):
        assert self.make("f(1)") == []

    def test_assignment_call_ok(self):
        assert self.make("x = f(1)") == []

    def test_nested_call_rejected(self):
        diagnostics = self.make("x = f(1) + 1")
        assert any("whole statement" in str(d) for d in diagnostics)

    def test_call_in_condition_rejected(self):
        diagnostics = self.make("if f(1):\n    pass")
        assert any("whole statement" in str(d) for d in diagnostics)

    def test_two_calls_one_stmt_rejected(self):
        diagnostics = self.make("x = f(f(1))")
        assert any("whole statement" in str(d) for d in diagnostics)

    def test_keyword_args_rejected(self):
        diagnostics = self.make("f(x=1)")
        assert any("positional" in str(d) for d in diagnostics)

    def test_starred_args_rejected(self):
        diagnostics = self.make("args = [1]\nf(*args)")
        assert any(
            "starred" in str(d) or "whole statement" in str(d)
            for d in diagnostics
        )

    def test_tuple_target_rejected(self):
        diagnostics = self.make("x, y = f(1), 2")
        assert diagnostics

    def test_call_to_uninstrumented_unrestricted(self):
        # Calls to helpers outside the reconfiguration graph are free.
        source = (
            "def main():\n"
            "    x = helper(1) + helper(2)\n"
            "    mh.reconfig_point('R')\n"
            "\n"
            "def helper(v):\n"
            "    return v\n"
        )
        tree = ast.parse(source)
        call_graph = build_call_graph(tree)
        recon = build_reconfiguration_graph(call_graph)
        assert check_instrumented(call_graph, recon) == []


class TestSignatures:
    def make(self, signature: str) -> list:
        source = (
            f"def main():\n    leaf(1)\n\n"
            f"def leaf{signature}:\n    mh.reconfig_point('R')\n"
        )
        tree = ast.parse(source)
        call_graph = build_call_graph(tree)
        recon = build_reconfiguration_graph(call_graph)
        return check_instrumented(call_graph, recon)

    def test_plain_ok(self):
        assert self.make("(x)") == []

    def test_default_ok(self):
        assert self.make("(x=0)") == []

    def test_varargs_rejected(self):
        assert any("fixed frame" in str(d) for d in self.make("(*args)"))

    def test_kwargs_rejected(self):
        assert any("fixed frame" in str(d) for d in self.make("(**kw)"))

    def test_kwonly_rejected(self):
        assert any("keyword-only" in str(d) for d in self.make("(x, *, y=1)"))


class TestModuleLevel:
    def test_async_def_rejected(self):
        tree = ast.parse("async def main():\n    pass\n")
        assert check_module_level(tree)

    def test_plain_module_ok(self):
        tree = ast.parse("import os\nX = 1\n\ndef main():\n    pass\n")
        assert check_module_level(tree) == []


class TestRequireValid:
    def test_raises_with_line(self):
        diagnostics = diagnostics_for("global x")
        with pytest.raises(UnsupportedConstructError) as info:
            require_valid(diagnostics)
        assert info.value.lineno > 0

    def test_empty_passes(self):
        require_valid([])

    def test_many_diagnostics_truncated(self):
        diagnostics = diagnostics_for("\n".join(["global x"] * 12))
        with pytest.raises(UnsupportedConstructError, match="more"):
            require_valid(diagnostics)
