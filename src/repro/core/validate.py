"""Supported-subset validation for reconfigurable module sources.

The paper assumes "a module written in a statically-scoped language with
a single thread of control"; its examples are structured C.  Our module
language is structured Python.  *Only procedures on the reconfiguration
graph* are restricted — everything else in the module is passed through
untouched, mirroring the paper's observation that only procedures which
can be on the activation-record stack at a reconfiguration point need
instrumentation.

Restrictions on instrumented procedures (each with a diagnostic that
points at the offending line):

- structured statements only: assignment, expression statements,
  ``if``/``while``/``for range(...)``/``break``/``continue``/``return``
  (no ``try``, ``with``, ``yield``, nested ``def``, ``global``, ...)
- a call to another instrumented procedure must be a whole statement —
  either ``f(...)`` or ``x = f(...)`` — with positional arguments
- loop ``else`` clauses are rejected (their resume semantics under
  restoration are ambiguous)
- ``break``/``continue`` must sit inside a loop (``ast.parse`` accepts a
  stray one; only the compiler would refuse it, without naming the
  procedure's source line)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.callgraph import StaticCallGraph
from repro.core.recongraph import ReconfigurationGraph, is_reconfig_marker
from repro.errors import UnsupportedConstructError


@dataclass
class Diagnostic:
    """One validation finding."""

    message: str
    lineno: int

    def __str__(self) -> str:
        return f"line {self.lineno}: {self.message}"


_BANNED_STMTS = {
    ast.Try: "try/except cannot be captured across a reconfiguration",
    ast.With: "with-blocks hold resources the abstract state cannot carry; "
    "use mh.files for files",
    ast.AsyncFor: "async constructs violate the single-thread-of-control model",
    ast.AsyncWith: "async constructs violate the single-thread-of-control model",
    ast.AsyncFunctionDef: "async constructs violate the single-thread-of-control model",
    ast.FunctionDef: "nested procedure definitions break the static call graph",
    ast.ClassDef: "class definitions inside instrumented procedures are unsupported",
    ast.Global: "use mh.statics for static data instead of global",
    ast.Nonlocal: "nonlocal requires closures, which are unsupported",
    ast.Delete: "del of locals would leave the frame layout undefined",
    ast.Import: "imports belong at module level",
    ast.ImportFrom: "imports belong at module level",
}

_BANNED_EXPRS = {
    ast.Yield: "generators cannot participate in stack capture",
    ast.YieldFrom: "generators cannot participate in stack capture",
    ast.Await: "async constructs violate the single-thread-of-control model",
    ast.Lambda: "lambdas create scopes invisible to the call graph",
    ast.NamedExpr: "walrus assignments hide locals from the frame layout",
}


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and 1 <= len(node.args) <= 3
        and not node.keywords
    )


class _InstrumentedChecker(ast.NodeVisitor):
    """Validate one instrumented procedure."""

    def __init__(self, fn: ast.FunctionDef, instrumented: Set[str]):
        self.fn = fn
        self.instrumented = instrumented
        self.diagnostics: List[Diagnostic] = []

    def report(self, message: str, node: ast.AST) -> None:
        self.diagnostics.append(Diagnostic(message, getattr(node, "lineno", 0)))

    # -- signature ----------------------------------------------------------

    def check_signature(self) -> None:
        args = self.fn.args
        if args.vararg or args.kwarg:
            self.report(
                f"procedure {self.fn.name!r} uses *args/**kwargs; instrumented "
                f"procedures need a fixed frame layout",
                self.fn,
            )
        if args.kwonlyargs:
            self.report(
                f"procedure {self.fn.name!r} has keyword-only parameters; "
                f"instrumented calls are positional",
                self.fn,
            )

    # -- statements ----------------------------------------------------------

    def check_body(self) -> None:
        self.check_signature()
        for stmt in self.fn.body:
            self._check_stmt(stmt, in_loop=False)

    def _check_stmt(self, stmt: ast.stmt, in_loop: bool) -> None:
        if isinstance(stmt, (ast.Break, ast.Continue)) and not in_loop:
            keyword = "break" if isinstance(stmt, ast.Break) else "continue"
            self.report(f"{keyword} outside loop", stmt)
        for banned, why in _BANNED_STMTS.items():
            if isinstance(stmt, banned):
                self.report(why, stmt)
                return
        if isinstance(stmt, (ast.While, ast.For)) and stmt.orelse:
            self.report(
                "loop else-clauses are unsupported in instrumented procedures",
                stmt,
            )
        if isinstance(stmt, ast.For):
            if not _is_range_call(stmt.iter):
                self.report(
                    "for-loops in instrumented procedures must iterate over "
                    "range(...) — arbitrary iterators cannot be captured in "
                    "the abstract state",
                    stmt,
                )
            elif not isinstance(stmt.target, ast.Name):
                self.report("for-loop target must be a single name", stmt)

        self._check_instrumented_calls(stmt)
        self._check_expressions(stmt)

        # Recurse into structured bodies.
        in_loop = in_loop or isinstance(stmt, (ast.While, ast.For))
        for attr in ("body", "orelse"):
            for child in getattr(stmt, attr, []) or []:
                self._check_stmt(child, in_loop)

    def _check_instrumented_calls(self, stmt: ast.stmt) -> None:
        """Calls into the reconfiguration graph must be whole statements."""
        if is_reconfig_marker(stmt):
            return
        # Do not descend into nested statements: they are checked on their
        # own visit, with their own top-level call slots.
        calls = [
            child
            for child in _shallow_walk(stmt)
            if isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in self.instrumented
        ]
        if not calls:
            return
        top_value = getattr(stmt, "value", None)
        ok_shape = (
            isinstance(stmt, (ast.Expr, ast.Assign))
            and top_value in calls
            and len(calls) == 1
        )
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                ok_shape = False
        if not ok_shape:
            names = ", ".join(sorted({c.func.id for c in calls}))  # type: ignore[union-attr]
            self.report(
                f"call(s) to instrumented procedure(s) {names} must appear as "
                f"a whole statement ('f(...)' or 'x = f(...)') so a capture "
                f"block can be installed after the call",
                stmt,
            )
            return
        call = calls[0]
        if call.keywords:
            self.report(
                f"instrumented call to {call.func.id!r} must use positional "  # type: ignore[union-attr]
                f"arguments (the restore code re-invokes it positionally)",
                stmt,
            )
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                self.report(
                    "starred arguments in instrumented calls are unsupported",
                    stmt,
                )

    def _check_expressions(self, stmt: ast.stmt) -> None:
        for node in _shallow_walk(stmt):
            for banned, why in _BANNED_EXPRS.items():
                if isinstance(node, banned):
                    self.report(why, stmt)


def _shallow_walk(stmt: ast.AST):
    """Walk ``stmt`` without descending into nested statements."""
    stack = list(ast.iter_child_nodes(stmt))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def check_module_level(tree: ast.Module) -> List[Diagnostic]:
    """Validate module-level structure (loose: only real hazards)."""
    diagnostics: List[Diagnostic] = []
    for node in tree.body:
        if isinstance(node, ast.AsyncFunctionDef):
            diagnostics.append(
                Diagnostic(
                    "async procedures violate the single-thread-of-control model",
                    node.lineno,
                )
            )
    return diagnostics


def check_instrumented(
    call_graph: StaticCallGraph, recon: ReconfigurationGraph
) -> List[Diagnostic]:
    """Validate every procedure on the reconfiguration graph."""
    diagnostics: List[Diagnostic] = []
    instrumented = set(recon.procedures())
    for name in recon.procedures():
        checker = _InstrumentedChecker(call_graph.functions[name], instrumented)
        checker.check_body()
        diagnostics.extend(checker.diagnostics)
    return diagnostics


def require_valid(diagnostics: List[Diagnostic]) -> None:
    """Raise :class:`UnsupportedConstructError` if any diagnostics exist."""
    if diagnostics:
        summary = "; ".join(str(d) for d in diagnostics[:10])
        if len(diagnostics) > 10:
            summary += f" (+{len(diagnostics) - 10} more)"
        first = diagnostics[0]
        raise UnsupportedConstructError(summary, lineno=first.lineno)
