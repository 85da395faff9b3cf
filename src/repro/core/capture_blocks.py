"""Source snippets for capture and restore blocks (Figures 7 and 8).

Each function returns a list of source lines (no indentation); the
emitter in :mod:`repro.core.resume` indents and splices them into the
procedure's own statements.  Keeping the text generation here makes the
correspondence with the paper's figures auditable in one place:

- :func:`call_capture_lines`      = Figure 7, "Capture Block for Edge (i, Si)"
- :func:`reconfig_capture_lines`  = Figure 7, "Capture Block for
  Reconfiguration Edge (j, R)"
- :func:`restore_block_lines`     = Figure 8, "Restore Block" including the
  per-edge restore code and the reconfiguration-edge variant
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.recongraph import ReconEdge
from repro.core.varinfo import FrameLayout, Variable


def edge_variables(
    layout: FrameLayout, keep: Optional[Set[str]]
) -> List[Variable]:
    """The frame slots captured at one edge, in layout order.

    ``keep=None`` means the full frame (the paper's conservative default);
    a set prunes to the liveness-derived subset (CAPTURE-PRUNING
    extension; the paper: "data-flow analysis could be used to determine
    the set of live variables").
    """
    if keep is None:
        return list(layout.variables)
    return [v for v in layout.variables if v.name in keep]


def _edge_fmt(layout: FrameLayout, variables: List[Variable]) -> str:
    chars = []
    for var in variables:
        chars.append("a" if var.kind.value == "ref_local" else var.fmt_char)
    return "l" + "".join(chars)


def _capture_call(
    layout: FrameLayout, edge_number: int, variables: List[Variable]
) -> str:
    values = ", ".join(v.capture_expr() for v in variables)
    fmt = _edge_fmt(layout, variables)
    args = f"'{layout.procedure}', '{fmt}', {edge_number}"
    if values:
        args += f", {values}"
    return f"mh.capture({args})"


def call_capture_lines(
    layout: FrameLayout,
    edge: ReconEdge,
    is_main: bool,
    keep: Optional[Set[str]] = None,
) -> List[str]:
    """Capture block installed after a call edge ``(i, Si)``.

    Triggered by ``mh.capturestack``; in ``main`` it additionally runs
    ``mh.encode()`` to send the completed state outside the module.
    """
    lines = [
        "if mh.capturestack:",
        f"    {_capture_call(layout, edge.number, edge_variables(layout, keep))}",
    ]
    if is_main:
        lines.append("    mh.encode()")
    lines.append("    return None")
    return lines


def reconfig_capture_lines(
    layout: FrameLayout,
    edge: ReconEdge,
    is_main: bool,
    keep: Optional[Set[str]] = None,
) -> List[str]:
    """Capture block installed at a reconfiguration point ``(j, R)``.

    Triggered by ``mh.reconfig``; it flips on ``mh.capturestack`` (via
    ``begin_reconfig_capture``) so the call-edge blocks fire as each
    frame returns — exactly the flag hand-off of Figure 7.
    """
    label = edge.point.label if edge.point else "?"
    lines = [
        "if mh.reconfig:",
        f"    mh.begin_reconfig_capture('{label}')",
        f"    {_capture_call(layout, edge.number, edge_variables(layout, keep))}",
    ]
    if is_main:
        lines.append("    mh.encode()")
    lines.append("    return None")
    return lines


def restore_block_lines(
    layout: FrameLayout,
    edges: List[ReconEdge],
    is_main: bool,
    keep_per_edge: Optional[Dict[int, Set[str]]] = None,
) -> List[str]:
    """Restore block inserted at the top of an instrumented procedure.

    Restores the local state, then checks the captured location and
    keeps it in ``_mh_r``, the resume value the procedure's guarded
    statements steer by: a call edge's label repeats the call (dummies
    substituted), the reconfiguration edge ends the restoration here and
    its label ``R`` clears ``_mh_r``.

    With pruning (``keep_per_edge``), each location arm restores exactly
    the variables its edge captured; unpruned, the variable restores are
    hoisted above the location test since every edge captures the full frame.
    """
    lines: List[str] = []
    if is_main:
        lines.append("if mh.getstatus() == 'clone' and not mh.restoring:")
        lines.append("    mh.decode()")
    lines.append("if mh.restoring:")
    lines.append(f"    _mh_vals = mh.restore('{layout.procedure}')")
    if keep_per_edge is None:
        full = list(layout.variables)
        lines.append(
            f"    mh.expect_frame_fmt('{_edge_fmt(layout, full)}', "
            f"'{layout.procedure}')"
        )
        for index, var in enumerate(full, start=1):
            lines.append(f"    {var.restore_stmt(f'_mh_vals[{index}]')}")
    keyword = "if"
    for edge in edges:
        lines.append(f"    {keyword} _mh_vals[0] == {edge.number}:")
        if keep_per_edge is not None:
            variables = edge_variables(layout, keep_per_edge.get(edge.number))
            lines.append(
                f"        mh.expect_frame_fmt('{_edge_fmt(layout, variables)}', "
                f"'{layout.procedure}')"
            )
            for index, var in enumerate(variables, start=1):
                lines.append(f"        {var.restore_stmt(f'_mh_vals[{index}]')}")
        if edge.kind == "reconfig":
            lines.append("        mh.end_restore()")
        lines.append(f"        _mh_r = {edge.number}")
        keyword = "elif"
    lines.append("    else:")
    lines.append(
        f"        mh.bad_restore_location(_mh_vals[0], '{layout.procedure}')"
    )
    return lines
