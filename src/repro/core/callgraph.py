"""Static call graph construction (paper Section 3, Figure 6).

"The static call graph of a program contains a node for each
procedure/function in the program, and a directed edge from node a to
node b if and only if the source code for procedure a contains a call to
procedure b. ... At any particular time during program execution, the
frames contained in the activation record stack correspond to a path in
the static call graph originating at node main."

Two calls from ``main`` to ``a`` are two distinct edges, each a
:class:`CallSite` (line number and the exact AST nodes) in ``sites`` —
the paper labels edges with line numbers for the same reason.  The
node-level queries (who calls whom, what reaches what) run on a plain
adjacency built from those sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import CallGraphError

MAIN = "main"


@dataclass
class CallSite:
    """One syntactic call from ``caller`` to ``callee``.

    ``stmt`` is the enclosing *simple statement* (the unit the transformer
    instruments); ``call`` is the :class:`ast.Call` node itself; ``top_level``
    records whether the call is the whole right-hand side of the statement
    (the only position the transformer supports for instrumented calls).
    """

    caller: str
    callee: str
    lineno: int
    col: int
    stmt: ast.stmt
    call: ast.Call
    top_level: bool

    def describe(self) -> str:
        return f"{self.caller} -> {self.callee} at line {self.lineno}"


class _CallCollector(ast.NodeVisitor):
    """Collect calls to module-level functions within one function body."""

    def __init__(self, caller: str, known: Set[str]):
        self.caller = caller
        self.known = known
        self.sites: List[CallSite] = []
        self._current_stmt: Optional[ast.stmt] = None
        self._top_level_calls: Set[int] = set()

    def visit_stmt(self, node: ast.stmt) -> None:
        previous = self._current_stmt
        self._current_stmt = node
        # Identify the call occupying the statement's top-level value slot.
        value = getattr(node, "value", None)
        if isinstance(value, ast.Call):
            self._top_level_calls.add(id(value))
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._current_stmt = previous

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt):
            self.visit_stmt(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested scopes are rejected by validation; don't descend here.
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name in self.known and self._current_stmt is not None:
                self.sites.append(
                    CallSite(
                        caller=self.caller,
                        callee=name,
                        lineno=node.lineno,
                        col=node.col_offset,
                        stmt=self._current_stmt,
                        call=node,
                        top_level=id(node) in self._top_level_calls,
                    )
                )
        for child in ast.iter_child_nodes(node):
            self.visit(child)


def _closure(start: str, step: Dict[str, Set[str]]) -> Set[str]:
    """``start`` and every node reachable from it along ``step`` edges."""
    seen = {start}
    pending = [start]
    while pending:
        for neighbour in step.get(pending.pop(), ()):
            if neighbour not in seen:
                seen.add(neighbour)
                pending.append(neighbour)
    return seen


@dataclass
class StaticCallGraph:
    """The program's static call graph plus the underlying AST functions."""

    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    sites: List[CallSite] = field(default_factory=list)

    def __post_init__(self) -> None:
        # caller -> callees and callee -> callers.  Sets: the parallel
        # edges live in ``sites``, no node-level query counts them.
        self._callees: Dict[str, Set[str]] = {name: set() for name in self.functions}
        self._callers: Dict[str, Set[str]] = {name: set() for name in self.functions}
        for site in self.sites:
            self._callees[site.caller].add(site.callee)
            self._callers[site.callee].add(site.caller)

    # -- queries ------------------------------------------------------------

    def callees(self, name: str) -> List[str]:
        return sorted(self._callees.get(name, ()))

    def callers(self, name: str) -> List[str]:
        return sorted(self._callers.get(name, ()))

    def sites_from(self, name: str) -> List[CallSite]:
        return [s for s in self.sites if s.caller == name]

    def sites_between(self, caller: str, callee: str) -> List[CallSite]:
        return [s for s in self.sites if s.caller == caller and s.callee == callee]

    def reachable_from(self, name: str) -> Set[str]:
        """All procedures reachable from ``name`` (inclusive)."""
        if name not in self.functions:
            return set()
        return _closure(name, self._callees)

    def reaching(self, targets: Set[str]) -> Set[str]:
        """All procedures from which any of ``targets`` is reachable
        (each target included, known or not)."""
        result: Set[str] = set()
        for target in targets:
            result |= _closure(target, self._callers)
        return result

    def possible_stacks_are_paths(self) -> bool:
        """Invariant check used by property tests: each node is either
        ``main`` or has an incoming edge (the paper's observation that all
        nodes except main have one or more incoming edges holds only for
        programs without dead procedures; dead procedures are allowed but
        never on a stack)."""
        on_stack = self.reachable_from(MAIN)
        return all(
            self._callers[node] for node in on_stack if node != MAIN
        )


def module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Top-level function definitions by name, in source order."""
    functions: Dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if node.name in functions:
                raise CallGraphError(
                    f"procedure {node.name!r} defined twice (lines "
                    f"{functions[node.name].lineno} and {node.lineno})"
                )
            functions[node.name] = node
    return functions


def build_call_graph(tree: ast.Module) -> StaticCallGraph:
    """Build the static call graph of a module AST.

    Only calls to the module's own top-level functions become edges —
    calls into the runtime (``mh.read``) or to builtins are not
    procedures of the program in the paper's sense.
    """
    functions = module_functions(tree)
    known = set(functions)
    sites: List[CallSite] = []
    for name, fn in functions.items():
        collector = _CallCollector(name, known)
        for stmt in fn.body:
            collector.visit_stmt(stmt)
        sites.extend(collector.sites)
    sites.sort(key=lambda s: (functions[s.caller].lineno, s.lineno, s.col))
    return StaticCallGraph(functions=functions, sites=sites)
