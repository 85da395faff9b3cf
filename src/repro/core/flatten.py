"""Emit an instrumented procedure as Python source, with structured resume.

The paper's restore code jumps with ``goto Li`` into loop bodies.  Python
has no goto, so each instrumented procedure keeps its own ``if``/``while``
structure and steers by a resume value ``_mh_r`` instead: the restore
block (Figure 8) sets it to the captured edge number, and it is 0 in
normal execution.  On the way to that edge's label

- a label-free run of statements that comes before a label in its block
  runs only under ``if not _mh_r:``;
- a loop holding the label is entered whatever its test says
  (``_mh_r == k or not _mh_r and <test>``; ``_mh_r or <test>`` where no
  label follows it in its block), and so is the branch of an ``if`` that
  holds it;
- a call edge's label repeats the call with dummy arguments and clears
  ``_mh_r``; a reconfiguration point's label clears it.

The paper's Figure 4 ``compute`` comes out as::

    def compute(num: int, n: int, rp: Ref):
        temper = None
        _mh_r = 0
        if mh.restoring:
            _mh_vals = mh.restore('compute')
            mh.expect_frame_fmt('lllaa', 'compute')
            num = _mh_vals[1]
            ...
            if _mh_vals[0] == 3:
                _mh_r = 3
            elif _mh_vals[0] == 4:
                mh.end_restore()
                _mh_r = 4
            else:
                mh.bad_restore_location(_mh_vals[0], 'compute')
        if not _mh_r:
            temper = None
            if n <= 0:
                rp.set(0.0)
                return
        if _mh_r == 3:                   # label of edge (3, S21)
            _mh_r = 0
            compute(num, 0, rp)          # dummies substituted
        elif not _mh_r:
            compute(num, n - 1, rp)
        if mh.capturestack:              # capture block for edge 3
            mh.capture('compute', 'lllaa', 3, num, n, rp.get(), temper)
            return None
        if _mh_r:                        # label R, the last in its block
            _mh_r = 0
        else:
            if mh.reconfig:
                ...

Normal execution pays one test of ``_mh_r`` per guarded run, labelled
statement and pass through a loop test that holds a label, plus one flag
test per capture block — the paper's "run-time cost is merely that of
periodically testing the flags", measured in benchmarks D1 and A3.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.capture_blocks import (
    call_capture_lines,
    reconfig_capture_lines,
    restore_block_lines,
)
from repro.core.dummy_args import substitute_dummy_args
from repro.core.recongraph import ReconEdge, ReconfigurationGraph
from repro.core.varinfo import FrameLayout
from repro.errors import FlattenError

INDENT = "    "


@dataclass
class FlattenOptions:
    """Codegen knobs.

    ``substitute_dummies=False`` disables the paper's dummy-argument
    substitution (Section 3's fix for restore-time run-time errors) —
    exists so the ablation tests can demonstrate the failure the paper
    predicts.  ``keep_per_edge`` enables liveness-based capture pruning:
    each edge captures (and its restore arm reinstates) only its own
    variable subset.
    """

    substitute_dummies: bool = True
    keep_per_edge: Optional[Dict[int, Set[str]]] = None

    def keep_for(self, edge_number: int) -> Optional[Set[str]]:
        if self.keep_per_edge is None:
            return None
        return self.keep_per_edge.get(edge_number)


def _signature(fn: ast.FunctionDef) -> str:
    args = ast.unparse(fn.args)
    return f"def {fn.name}({args}):"


def _docstring(fn: ast.FunctionDef) -> Optional[str]:
    if (
        fn.body
        and isinstance(fn.body[0], ast.Expr)
        and isinstance(fn.body[0].value, ast.Constant)
        and isinstance(fn.body[0].value.value, str)
    ):
        return fn.body[0].value.value
    return None


def _redo_stmt(stmt: ast.stmt, functions: Dict[str, ast.FunctionDef]) -> ast.stmt:
    """The call statement re-executed during restoration, dummies applied."""
    call = stmt.value if isinstance(stmt, (ast.Expr, ast.Assign)) else None
    if not isinstance(call, ast.Call):  # pragma: no cover - guaranteed by validation
        raise FlattenError("call edge does not label a call statement")
    callee_name = call.func.id if isinstance(call.func, ast.Name) else None
    callee = functions.get(callee_name) if callee_name else None
    new_call = substitute_dummy_args(call, callee)
    if isinstance(stmt, ast.Expr):
        redo: ast.stmt = ast.Expr(value=new_call)
    else:
        redo = ast.Assign(targets=[stmt.targets[0]], value=new_call)
    ast.copy_location(redo, stmt)
    return ast.fix_missing_locations(redo)


def _resume_test(
    labels: List[int], test: Optional[ast.expr] = None, only: bool = False
) -> str:
    """True while resuming to one of ``labels`` or, in normal execution,
    when ``test`` holds: ``_mh_r == k or not _mh_r and <test>``.

    ``only``: a set ``_mh_r`` can be nothing but one of ``labels`` here,
    so the test shrinks to ``_mh_r or <test>``.
    """
    if only and test is not None:
        return ast.unparse(ast.BoolOp(ast.Or(), [ast.Name("_mh_r"), test]))
    normal: ast.expr = ast.UnaryOp(ast.Not(), ast.Name("_mh_r"))
    if test is not None:
        normal = ast.BoolOp(ast.And(), [normal, test])
    if not labels:
        return ast.unparse(normal)
    if len(labels) == 1:
        resume: ast.expr = ast.Compare(
            ast.Name("_mh_r"), [ast.Eq()], [ast.Constant(labels[0])]
        )
    else:
        resume = ast.Compare(
            ast.Name("_mh_r"),
            [ast.In()],
            [ast.Tuple([ast.Constant(k) for k in labels])],
        )
    return ast.unparse(ast.BoolOp(ast.Or(), [resume, normal]))


class _Emitter:
    """Writes one procedure's statements with their labels and guards."""

    def __init__(
        self,
        layout: FrameLayout,
        edges: List[ReconEdge],
        functions: Dict[str, ast.FunctionDef],
        is_main: bool,
        options: FlattenOptions,
    ) -> None:
        self.layout = layout
        self.functions = functions
        self.is_main = is_main
        self.options = options
        self.edge_at = {id(edge.stmt): edge for edge in edges}
        self.lines: List[str] = []
        self.level = 0

    def emit(self, *lines: str) -> None:
        self.lines.extend(f"{INDENT * self.level}{line}" for line in lines)

    def nested(self, header: str, lines: List[str]) -> None:
        self.emit(header)
        self.emit(*(INDENT + line for line in lines))

    def labels(self, stmts: List[ast.stmt]) -> List[int]:
        """Edge numbers of the labels ``stmts`` hold, themselves included."""
        return sorted(
            self.edge_at[id(node)].number
            for stmt in stmts
            for node in ast.walk(stmt)
            if id(node) in self.edge_at
        )

    def block(self, stmts: List[ast.stmt]) -> None:
        held = [self.labels([stmt]) for stmt in stmts]
        guarded: List[ast.stmt] = []
        for index, stmt in enumerate(stmts):
            later = any(held[index + 1 :])
            if not held[index]:
                if later:
                    guarded.append(stmt)
                else:
                    self.emit(*ast.unparse(stmt).split("\n"))
                continue
            if guarded:
                self.indented("if not _mh_r:", guarded)
                guarded = []
            self.labelled(stmt, held[index], later)

    def indented(self, header: str, stmts: List[ast.stmt]) -> None:
        self.emit(header)
        self.level += 1
        self.block(stmts)
        self.level -= 1

    def labelled(self, stmt: ast.stmt, labels: List[int], later: bool) -> None:
        """``later``: a label follows ``stmt`` in its block, so ``_mh_r``
        may be on its way past ``stmt`` rather than into it."""
        edge = self.edge_at.get(id(stmt))
        if edge is not None:
            # With nothing labelled after it, a set _mh_r can only be bound
            # for this label.
            here = f"if _mh_r == {edge.number}:" if later else "if _mh_r:"
            otherwise = "elif not _mh_r:" if later else "else:"
            keep = self.options.keep_for(edge.number)
            if edge.kind == "reconfig":
                self.nested(here, ["_mh_r = 0"])
                self.nested(
                    otherwise,
                    reconfig_capture_lines(self.layout, edge, self.is_main, keep),
                )
                return
            # The ablation repeats the original call verbatim — the unsafe
            # behaviour Section 3 warns about.
            redo = (
                _redo_stmt(stmt, self.functions)
                if self.options.substitute_dummies
                else stmt
            )
            self.nested(here, ["_mh_r = 0", *ast.unparse(redo).split("\n")])
            self.nested(otherwise, ast.unparse(stmt).split("\n"))
            # While _mh_r passes by, no capture is under way: mh.capturestack
            # is only raised by a reconfiguration capture block, and those
            # stay shut until restoration has ended.
            self.emit(*call_capture_lines(self.layout, edge, self.is_main, keep))
            return
        if isinstance(stmt, ast.While):
            test = _resume_test(labels, stmt.test, only=not later)
            self.indented(f"while {test}:", stmt.body)
            return
        assert isinstance(stmt, ast.If), stmt  # all else was desugared or refused
        else_labels = self.labels(stmt.orelse)
        only = not later and not else_labels
        test = _resume_test(self.labels(stmt.body), stmt.test, only)
        self.indented(f"if {test}:", stmt.body)
        if stmt.orelse:
            header = f"elif {_resume_test(else_labels)}:" if later else "else:"
            self.indented(header, stmt.orelse)


def flatten_function(
    fn: ast.FunctionDef,
    layout: FrameLayout,
    recon: ReconfigurationGraph,
    functions: Dict[str, ast.FunctionDef],
    is_main: bool,
    options: Optional[FlattenOptions] = None,
) -> str:
    """Emit the reconfigurable (instrumented, resumable) source of ``fn``."""
    options = options or FlattenOptions()
    edges = recon.edges_from(fn.name)
    out = _Emitter(layout, edges, functions, is_main, options)
    out.emit(_signature(fn))
    out.level += 1

    body = fn.body
    doc = _docstring(fn)
    if doc is not None:
        out.emit(f"{doc!r}")
        body = body[1:]

    # -- locals pre-initialisation (uninitialised slots are NULL) --
    out.emit(*(f"{name} = None" for name in layout.local_names()))
    out.emit("_mh_r = 0")

    # -- restore block (Figure 8) --
    if edges:
        out.emit(
            *restore_block_lines(
                layout, edges, is_main, keep_per_edge=options.keep_per_edge
            )
        )

    out.block(body)
    return "\n".join(out.lines) + "\n"


def check_flattened(name: str, source: str) -> None:
    """Raise a :class:`FlattenError` naming ``name`` if ``source`` is invalid.

    Only the failure path of :func:`repro.core.transformer.prepare_module`
    calls this: the assembled module is compiled once, and when that
    raises, each emitted procedure is compiled on its own to name the
    culprit.
    """
    try:
        compile(source, f"<flattened {name}>", "exec")
    except SyntaxError as exc:
        raise FlattenError(
            f"flattener produced invalid source for {name!r}: {exc}\n{source}"
        ) from exc
