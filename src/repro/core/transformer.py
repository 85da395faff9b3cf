"""End-to-end module preparation: the paper's source code transformation.

:func:`prepare_module` takes a module source with programmer-designated
reconfiguration points and returns a :class:`TransformResult` whose
``source`` is the reconfigurable module — the Python analogue of turning
Figure 3 (original compute module) into Figure 4 (prepared compute
module).  Procedures not on the reconfiguration graph pass through
byte-for-byte semantics-preserving (re-unparsed); the rest are validated,
desugared and emitted with capture/restore blocks and resume guards.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import CodeType
from typing import Dict, List, Optional

from repro.core.callgraph import MAIN, StaticCallGraph, build_call_graph
from repro.core.desugar import desugar_for_range
from repro.core.liveness import LivenessReport, analyze_liveness
from repro.core.naming import module_filename
from repro.core.recongraph import (
    ReconfigurationGraph,
    build_reconfiguration_graph,
    find_reconfig_points,
)
from repro.core.resume import EmitOptions, check_emitted, emit_procedure
from repro.core.validate import (
    check_instrumented,
    check_module_level,
    require_valid,
)
from repro.core.varinfo import FrameLayout, analyze_frame
from repro.errors import TransformError

HEADER = (
    "# Reconfigurable module source generated by repro.core.transformer.\n"
    "# Capture/restore blocks and resume labels were installed automatically\n"
    "# from the programmer-designated reconfiguration points (mh.reconfig_point).\n"
)


@dataclass
class FunctionReport:
    """Per-procedure transformation statistics (used by tests and benches)."""

    procedure: str
    call_capture_blocks: int
    reconfig_capture_blocks: int
    has_restore_block: bool
    fmt: str
    variables: List[str] = field(default_factory=list)


@dataclass
class TransformResult:
    """Everything produced by one :func:`prepare_module` run."""

    module_name: str
    original_source: str
    source: str
    call_graph: StaticCallGraph
    recon_graph: Optional[ReconfigurationGraph]
    layouts: Dict[str, FrameLayout] = field(default_factory=dict)
    reports: Dict[str, FunctionReport] = field(default_factory=dict)
    liveness: Dict[str, LivenessReport] = field(default_factory=dict)
    #: ``source`` compiled under :func:`module_filename`; ``None`` for an
    #: untransformed module (nothing was assembled).
    code: Optional[CodeType] = None

    @property
    def instrumented(self) -> List[str]:
        return list(self.reports)

    @property
    def is_reconfigurable(self) -> bool:
        return self.recon_graph is not None

    def describe(self) -> str:
        """Human-readable transformation summary (Figure-6 style)."""
        if self.recon_graph is None:
            return f"module {self.module_name!r}: no reconfiguration points"
        lines = [f"module {self.module_name!r}:", self.recon_graph.describe()]
        for report in self.reports.values():
            lines.append(
                f"  {report.procedure}: "
                f"{report.call_capture_blocks} call capture block(s), "
                f"{report.reconfig_capture_blocks} reconfiguration capture "
                f"block(s), fmt={report.fmt!r}"
            )
        return "\n".join(lines)


def _replace_functions(
    tree: ast.Module, replacements: Dict[str, ast.FunctionDef]
) -> ast.Module:
    new_body: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in replacements:
            new_body.append(replacements[node.name])
        else:
            new_body.append(node)
    module = ast.Module(body=new_body, type_ignores=[])
    return ast.fix_missing_locations(module)


def prepare_module(
    source: str,
    module_name: str = "module",
    entry: str = MAIN,
    declared_points: Optional[List[str]] = None,
    prune_dead_captures: bool = False,
    substitute_dummies: bool = True,
) -> TransformResult:
    """Prepare a module source for participation in reconfiguration.

    ``declared_points``, when given (it comes from the MIL module
    specification's ``reconfiguration point = {R}`` clause), must match
    the marker labels found in the source — the paper requires the point
    to appear in both places, and a mismatch is a configuration error.

    ``prune_dead_captures`` enables the liveness extension the paper
    sketches: each capture block saves only the variables its edge's
    continuation (and restore-time re-invocation) can read, shrinking the
    abstract state.  Pruned and unpruned modules are wire-incompatible
    with each other (per-edge formats differ), so choose once per module
    lineage.

    ``substitute_dummies=False`` disables the dummy-argument substitution
    of Section 3 — only for the ablation demonstrating the restore-time
    run-time error the paper predicts.

    A module with no reconfiguration points is returned untransformed
    (its ``recon_graph`` is ``None``); such a module can still be part of
    a reconfigurable application, it just cannot be moved or replaced
    mid-execution with state carried over.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise TransformError(f"module source does not parse: {exc}") from exc

    require_valid(check_module_level(tree))
    call_graph = build_call_graph(tree)
    points = find_reconfig_points(call_graph)

    if declared_points is not None:
        found = {p.label for p in points}
        declared = set(declared_points)
        if found != declared:
            raise TransformError(
                f"reconfiguration points in MIL spec {sorted(declared)} do "
                f"not match markers in source {sorted(found)}"
            )

    if not points:
        return TransformResult(
            module_name=module_name,
            original_source=source,
            source=source,
            call_graph=call_graph,
            recon_graph=None,
        )

    # Pass 1: identify instrumented procedures and validate them.
    recon_preview = build_reconfiguration_graph(call_graph, points, entry=entry)
    require_valid(check_instrumented(call_graph, recon_preview))

    # Pass 2: desugar range-loops inside instrumented procedures, then
    # rebuild both graphs so edge objects reference the final AST nodes.
    replacements = {
        name: desugar_for_range(call_graph.functions[name])
        for name in recon_preview.procedures()
    }
    tree = _replace_functions(tree, replacements)
    call_graph = build_call_graph(tree)
    recon = build_reconfiguration_graph(call_graph, entry=entry)

    result = TransformResult(
        module_name=module_name,
        original_source=source,
        source="",
        call_graph=call_graph,
        recon_graph=recon,
    )

    # Pass 3: emit each instrumented procedure.
    emitted: Dict[str, str] = {}
    for name in recon.procedures():
        fn = call_graph.functions[name]
        layout = analyze_frame(fn)
        liveness = analyze_liveness(fn, layout, recon)
        keep_per_edge = None
        if prune_dead_captures:
            keep_per_edge = {
                entry_.edge_number: set(entry_.capture_set)
                for entry_ in liveness.edges
            }
        options = EmitOptions(
            substitute_dummies=substitute_dummies,
            keep_per_edge=keep_per_edge,
        )
        text = emit_procedure(
            fn,
            layout,
            recon,
            call_graph.functions,
            is_main=(name == entry),
            options=options,
        )
        emitted[name] = text
        result.layouts[name] = layout
        result.liveness[name] = liveness
        edges = recon.edges_from(name)
        result.reports[name] = FunctionReport(
            procedure=name,
            call_capture_blocks=sum(1 for e in edges if e.kind == "call"),
            reconfig_capture_blocks=sum(1 for e in edges if e.kind == "reconfig"),
            has_restore_block=bool(edges),
            fmt=layout.fmt,
            variables=layout.names(),
        )

    # Pass 4: assemble the output module.
    pieces: List[str] = [HEADER]
    pieces.append("# Reconfiguration graph:")
    for line in recon.describe().split("\n"):
        pieces.append(f"#   {line}")
    pieces.append("")
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in emitted:
            pieces.append(emitted[node.name])
        else:
            pieces.append(ast.unparse(node))
        pieces.append("")
    output = "\n".join(pieces)

    # The one compile of a reconfigurable module: the code object stays
    # with the result, so every instance of this text executes it.
    try:
        result.code = compile(output, module_filename(module_name), "exec")
    except SyntaxError as exc:
        for name, text in emitted.items():
            check_emitted(name, text)
        raise TransformError(
            f"assembled reconfigurable module does not compile: {exc}"
        ) from exc
    result.source = output
    return result
