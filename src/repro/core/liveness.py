"""Live-variable analysis at reconfiguration points.

Paper Section 3: "At a reconfiguration point, data-flow analysis could be
used to determine the set of live variables."  The paper leaves this as
future work (the programmer lists the variables); we implement the
analysis as an advisory pass: a backward may-liveness pass over the
procedure's own (desugared) statements, iterating each loop to its
fixpoint, reporting which captured frame variables are actually dead at
each capture edge.  The transformer still captures the full frame
(conservative and version-stable), but the report lets a module author
— or the CAPTURE-PRUNING extension in ``transformer`` — shrink the
abstract state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.recongraph import ReconfigurationGraph
from repro.core.varinfo import FrameLayout


def _uses_defs_of_stmt(stmt: ast.stmt) -> Tuple[Set[str], Set[str]]:
    """Names read and names written by one simple statement.

    A method call on a name (``rp.set(...)``) counts as a *use* of the
    name: the cell object must exist even though its content changes.
    """
    uses: Set[str] = set()
    defs: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                defs.add(node.id)
            else:
                uses.add(node.id)
    # AugAssign both reads and writes its target.
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        uses.add(stmt.target.id)
    return uses, defs


def _reads(expr: Optional[ast.expr]) -> Set[str]:
    if expr is None:
        return set()
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


@dataclass
class EdgeLiveness:
    """Liveness verdict for one reconfiguration-graph edge.

    ``live`` is what the continuation *after* the edge reads;
    ``capture_set`` is the safe pruned capture list — for call edges it
    additionally includes the names the re-executed call itself needs
    (its argument names), which is exactly ``live_in`` of the call block.
    """

    edge_number: int
    kind: str
    live: Set[str] = field(default_factory=set)
    captured: Set[str] = field(default_factory=set)
    capture_set: Set[str] = field(default_factory=set)

    @property
    def dead_captured(self) -> Set[str]:
        """Frame variables captured at this edge but never read again."""
        return self.captured - self.live


@dataclass
class LivenessReport:
    """Per-procedure liveness at every capture edge."""

    procedure: str
    edges: List[EdgeLiveness] = field(default_factory=list)

    def edge(self, number: int) -> EdgeLiveness:
        for entry in self.edges:
            if entry.edge_number == number:
                return entry
        raise KeyError(f"no liveness entry for edge {number}")

    def total_dead_slots(self) -> int:
        return sum(len(e.dead_captured) for e in self.edges)


class _Pass:
    """One backward pass over a procedure's statements.

    ``after`` is the set live after the statements; the result is the
    set live before them.  A loop iterates to a fixpoint, ``break`` takes
    the loop's live-out set, ``continue`` its head set, and ``return``
    kills everything after it.  At each edge it records what is live
    there; inside a loop the last iteration, run on the fixpoint, writes
    last.
    """

    def __init__(self, recon: ReconfigurationGraph, procedure: str) -> None:
        self.edge_at = {id(edge.stmt): edge for edge in recon.edges_from(procedure)}
        #: edge number -> (live after the edge, live at its label)
        self.at_edge: Dict[int, Tuple[Set[str], Set[str]]] = {}

    def stmts(
        self,
        stmts: List[ast.stmt],
        after: Set[str],
        loop: Optional[Tuple[Set[str], Set[str]]],
    ) -> Set[str]:
        live = after
        for stmt in reversed(stmts):
            live = self.stmt(stmt, live, loop)
        return live

    def stmt(
        self,
        stmt: ast.stmt,
        after: Set[str],
        loop: Optional[Tuple[Set[str], Set[str]]],
    ) -> Set[str]:
        edge = self.edge_at.get(id(stmt))
        if edge is not None and edge.kind == "reconfig":
            self.at_edge[edge.number] = (after, after)
            return after
        if isinstance(stmt, ast.If):
            return (
                _reads(stmt.test)
                | self.stmts(stmt.body, after, loop)
                | self.stmts(stmt.orelse, after, loop)
            )
        if isinstance(stmt, ast.While):
            head = _reads(stmt.test) | after
            while True:
                new_head = head | self.stmts(stmt.body, head, (after, head))
                if new_head == head:
                    return head
                head = new_head
        if isinstance(stmt, ast.Return):
            return _reads(stmt.value)
        # Validation keeps break and continue inside a loop.
        if isinstance(stmt, ast.Break):
            return loop[0]  # type: ignore[index]
        if isinstance(stmt, ast.Continue):
            return loop[1]  # type: ignore[index]
        uses, defs = _uses_defs_of_stmt(stmt)
        live = uses | (after - defs)
        if edge is not None:
            # A call edge's label re-executes the call: what it reads is
            # captured too, and its own assignment target is not.
            self.at_edge[edge.number] = (after, live)
        return live


def analyze_liveness(
    fn: ast.FunctionDef, layout: FrameLayout, recon: ReconfigurationGraph
) -> LivenessReport:
    """Backward may-liveness over one (desugared) procedure's statements."""
    frame_names = set(layout.names())
    walk = _Pass(recon, fn.name)
    walk.stmts(fn.body, set(), None)
    report = LivenessReport(procedure=fn.name)
    for edge in recon.edges_from(fn.name):
        live, capture_set = walk.at_edge[edge.number]
        report.edges.append(
            EdgeLiveness(
                edge_number=edge.number,
                kind=edge.kind,
                live=live & frame_names,
                captured=frame_names,
                capture_set=capture_set & frame_names,
            )
        )
    return report
