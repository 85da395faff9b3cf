"""Control-flow flattening: emit an instrumented procedure as Python source.

The paper's restore code jumps with ``goto Li`` into loop bodies.  The
flattener provides that power in Python: each procedure becomes a
dispatch loop over an explicit program counter ``_mh_pc``::

    def compute(num: int, n: int, rp: Ref):
        temper = None
        _mh_pc = 0
        _mh_redo = False
        if mh.restoring:
            _mh_vals = mh.restore('compute')
            num = _mh_vals[1]
            ...
        while True:
            if _mh_pc == 0:
                ...
            elif _mh_pc == 3:   # call block, edge (3, S3)
                if _mh_redo:
                    _mh_redo = False
                    compute(num, 0, rp)      # dummies substituted
                else:
                    compute(num, n - 1, rp)
                _mh_pc = 4
                continue
            elif _mh_pc == 4:   # capture block for edge 3
                if mh.capturestack:
                    mh.capture('compute', 'lllF', 3, num, n, rp.get())
                    return None
                ...

Normal execution pays one integer comparison chain per block transition
plus one flag test per capture block — the paper's "run-time cost is
merely that of periodically testing the flags", with the dispatch
overhead measured honestly in benchmark D1.
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
from repro.core.cfg import Block, CondGoto, FunctionCFG, Goto, ReturnTerm
from repro.core.dummy_args import substitute_dummy_args
from repro.core.recongraph import ReconfigurationGraph
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


class _Emitter:
    """Indentation-aware line buffer."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.level = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(f"{INDENT * self.level}{line}" if line else "")

    def emit_lines(self, lines: List[str]) -> None:
        for line in lines:
            self.emit(line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _unparse_stmt(stmt: ast.stmt) -> List[str]:
    return ast.unparse(stmt).split("\n")


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


def _redo_stmt(block: Block, functions: Dict[str, ast.FunctionDef]) -> ast.stmt:
    """The call statement re-executed during restoration, dummies applied."""
    stmt = block.stmts[0]
    call: Optional[ast.Call] = None
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
    elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
        call = stmt.value
    if call is None:  # pragma: no cover - guaranteed by validation
        raise FlattenError("call block does not contain a call statement")
    callee_name = call.func.id if isinstance(call.func, ast.Name) else None
    callee = functions.get(callee_name) if callee_name else None
    new_call = substitute_dummy_args(call, callee)
    if isinstance(stmt, ast.Expr):
        redo: ast.stmt = ast.Expr(value=new_call)
    else:
        assign = stmt
        redo = ast.Assign(targets=[assign.targets[0]], value=new_call)
    ast.copy_location(redo, stmt)
    return ast.fix_missing_locations(redo)


def flatten_function(
    fn: ast.FunctionDef,
    cfg: FunctionCFG,
    layout: FrameLayout,
    recon: ReconfigurationGraph,
    functions: Dict[str, ast.FunctionDef],
    is_main: bool,
    options: Optional[FlattenOptions] = None,
) -> str:
    """Emit the reconfigurable (flattened + instrumented) source of ``fn``."""
    options = options or FlattenOptions()
    out = _Emitter()
    out.emit(_signature(fn))
    out.level += 1

    doc = _docstring(fn)
    if doc is not None:
        out.emit(f"{doc!r}")

    # -- locals pre-initialisation (uninitialised slots are NULL) --
    locals_ = layout.local_names()
    for name in locals_:
        out.emit(f"{name} = None")
    out.emit(f"_mh_pc = {cfg.entry}")
    out.emit("_mh_redo = False")

    # -- restore block (Figure 8) --
    edges = recon.edges_from(fn.name)
    if edges:
        out.emit_lines(
            restore_block_lines(
                layout,
                edges,
                cfg.call_block_for_edge,
                cfg.resume_block_for_edge,
                is_main,
                keep_per_edge=options.keep_per_edge,
            )
        )

    # -- dispatch loop --
    out.emit("while True:")
    out.level += 1
    keyword = "if"
    for block_id in cfg.block_ids():
        block = cfg.blocks[block_id]
        out.emit(f"{keyword} _mh_pc == {block_id}:")
        keyword = "elif"
        out.level += 1
        _emit_block(out, block, cfg, layout, recon, functions, is_main, options)
        out.level -= 1
    out.emit("else:")
    out.level += 1
    out.emit(f"mh.bad_pc(_mh_pc, '{fn.name}')")
    out.level -= 2
    out.level -= 1

    return out.source()


def check_flattened(name: str, source: str) -> None:
    """Raise a :class:`FlattenError` naming ``name`` if ``source`` is invalid.

    Only the failure path of :func:`repro.core.transformer.prepare_module`
    calls this: the assembled module is compiled once, and when that
    raises, each flattened procedure is compiled on its own to name the
    culprit.
    """
    try:
        compile(source, f"<flattened {name}>", "exec")
    except SyntaxError as exc:
        raise FlattenError(
            f"flattener produced invalid source for {name!r}: {exc}\n{source}"
        ) from exc


def _emit_block(
    out: _Emitter,
    block: Block,
    cfg: FunctionCFG,
    layout: FrameLayout,
    recon: ReconfigurationGraph,
    functions: Dict[str, ast.FunctionDef],
    is_main: bool,
    options: FlattenOptions,
) -> None:
    term = block.terminator
    if block.kind == "call":
        assert block.edge is not None and isinstance(term, Goto)
        out.emit("if _mh_redo:")
        out.level += 1
        out.emit("_mh_redo = False")
        if options.substitute_dummies:
            out.emit_lines(_unparse_stmt(_redo_stmt(block, functions)))
        else:
            # Ablation: repeat the original call verbatim — the unsafe
            # behaviour Section 3 warns about.
            out.emit_lines(_unparse_stmt(block.stmts[0]))
        out.level -= 1
        out.emit("else:")
        out.level += 1
        out.emit_lines(_unparse_stmt(block.stmts[0]))
        out.level -= 1
        out.emit(f"_mh_pc = {term.target}")
        out.emit("continue")
        return
    if block.kind == "capture":
        assert block.edge is not None and isinstance(term, Goto)
        out.emit_lines(
            call_capture_lines(
                layout,
                block.edge,
                is_main,
                term.target,
                keep=options.keep_for(block.edge.number),
            )
        )
        return
    if block.kind == "reconfig_capture":
        assert block.edge is not None and isinstance(term, Goto)
        out.emit_lines(
            reconfig_capture_lines(
                layout,
                block.edge,
                is_main,
                term.target,
                keep=options.keep_for(block.edge.number),
            )
        )
        return

    # plain block
    for stmt in block.stmts:
        out.emit_lines(_unparse_stmt(stmt))
    if isinstance(term, Goto):
        out.emit(f"_mh_pc = {term.target}")
        out.emit("continue")
    elif isinstance(term, CondGoto):
        out.emit(f"if {ast.unparse(term.test)}:")
        out.level += 1
        out.emit(f"_mh_pc = {term.then_target}")
        out.level -= 1
        out.emit("else:")
        out.level += 1
        out.emit(f"_mh_pc = {term.else_target}")
        out.level -= 1
        out.emit("continue")
    elif isinstance(term, ReturnTerm):
        if term.value is not None:
            out.emit(f"return {ast.unparse(term.value)}")
        else:
            out.emit("return None")
    else:  # pragma: no cover - cfg.check() rules this out
        raise FlattenError(f"block {block.id} has no terminator")
