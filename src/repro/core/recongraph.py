"""The reconfiguration graph (paper Section 3, Figure 6).

"The first step in preparing a program for reconfiguration is to augment
this subgraph of the static call graph.  The augmented subgraph, called
the *reconfiguration graph*, contains an edge for each procedure call,
and each edge is labeled with the line number of the call. ... The
reconfiguration graph also contains a new node, named *reconfig*, and an
edge from each reconfiguration point to the reconfig node ... the edges
in the reconfiguration graph are numbered consecutively, so each edge is
labeled (i, Si)."

These numbered edges are exactly the resume *locations* stored as the
first value of every captured activation record.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.callgraph import MAIN, CallSite, StaticCallGraph
from repro.errors import ReconfigGraphError

#: Name of the synthetic sink node every reconfiguration point points to.
RECONFIG_NODE = "reconfig"

#: The runtime object and method that mark a reconfiguration point in source.
MARKER_OBJECT = "mh"
MARKER_METHOD = "reconfig_point"


@dataclass
class ReconfigPoint:
    """A programmer-designated reconfiguration point.

    Found as a marker statement ``mh.reconfig_point("R")`` in the source
    (the paper uses a C label plus a MIL declaration; we fold both into
    the marker and optionally cross-check against the MIL spec).
    """

    label: str
    procedure: str
    lineno: int
    stmt: ast.stmt


@dataclass
class ReconEdge:
    """One numbered edge ``(i, Si)`` of the reconfiguration graph."""

    number: int
    kind: str  # "call" or "reconfig"
    source: str
    target: str  # callee procedure, or RECONFIG_NODE
    lineno: int
    call_site: Optional[CallSite] = None
    point: Optional[ReconfigPoint] = None

    @property
    def label(self) -> str:
        """The paper's edge label: ``(i, Si)`` or ``(j, R)``."""
        if self.kind == "reconfig":
            return f"({self.number}, {self.point.label})"  # type: ignore[union-attr]
        return f"({self.number}, S{self.lineno})"

    @property
    def stmt(self) -> ast.stmt:
        """The statement the edge labels: its call, or its point's marker."""
        if self.call_site is not None:
            return self.call_site.stmt
        return self.point.stmt  # type: ignore[union-attr]


@dataclass
class ReconfigurationGraph:
    """All numbered edges plus the node set they span."""

    nodes: List[str] = field(default_factory=list)  # procedures, source order
    points: List[ReconfigPoint] = field(default_factory=list)
    edges: List[ReconEdge] = field(default_factory=list)

    # -- queries ------------------------------------------------------------

    def procedures(self) -> List[str]:
        """Instrumented procedures (every node except the reconfig sink)."""
        return list(self.nodes)

    def is_instrumented(self, procedure: str) -> bool:
        return procedure in self.nodes

    def edges_from(self, procedure: str) -> List[ReconEdge]:
        return [e for e in self.edges if e.source == procedure]

    def call_edges(self) -> List[ReconEdge]:
        return [e for e in self.edges if e.kind == "call"]

    def reconfig_edges(self) -> List[ReconEdge]:
        return [e for e in self.edges if e.kind == "reconfig"]

    def edge_by_number(self, number: int) -> ReconEdge:
        for edge in self.edges:
            if edge.number == number:
                return edge
        raise ReconfigGraphError(f"no reconfiguration edge numbered {number}")

    def point_labels(self) -> List[str]:
        return [p.label for p in self.points]

    def describe(self) -> str:
        """Figure-6-style listing of the numbered edges."""
        lines = [f"reconfiguration graph over {', '.join(self.nodes)}"]
        for edge in self.edges:
            lines.append(
                f"  {edge.label}: {edge.source} -> "
                f"{edge.target if edge.kind == 'call' else RECONFIG_NODE}"
            )
        return "\n".join(lines)


def is_reconfig_marker(stmt: ast.stmt) -> Optional[str]:
    """Return the point label if ``stmt`` is ``mh.reconfig_point("R")``."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return None
    call = stmt.value
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == MARKER_METHOD
        and isinstance(func.value, ast.Name)
        and func.value.id == MARKER_OBJECT
    ):
        if len(call.args) != 1 or not isinstance(call.args[0], ast.Constant):
            raise ReconfigGraphError(
                f"line {stmt.lineno}: reconfiguration point marker must be "
                f'mh.reconfig_point("LABEL") with a literal label'
            )
        label = call.args[0].value
        if not isinstance(label, str) or not label:
            raise ReconfigGraphError(
                f"line {stmt.lineno}: reconfiguration point label must be a "
                f"non-empty string"
            )
        return label
    return None


def find_reconfig_points(call_graph: StaticCallGraph) -> List[ReconfigPoint]:
    """Locate every marker statement in every procedure."""
    points: List[ReconfigPoint] = []
    seen_labels: Dict[str, int] = {}
    for name, fn in call_graph.functions.items():
        for stmt in ast.walk(fn):
            if not isinstance(stmt, ast.stmt):
                continue
            label = is_reconfig_marker(stmt)
            if label is None:
                continue
            if label in seen_labels:
                raise ReconfigGraphError(
                    f"line {stmt.lineno}: reconfiguration point {label!r} "
                    f"already defined at line {seen_labels[label]}"
                )
            seen_labels[label] = stmt.lineno
            points.append(
                ReconfigPoint(
                    label=label, procedure=name, lineno=stmt.lineno, stmt=stmt
                )
            )
    points.sort(key=lambda p: p.lineno)
    return points


def build_reconfiguration_graph(
    call_graph: StaticCallGraph,
    points: Optional[List[ReconfigPoint]] = None,
    entry: str = MAIN,
) -> ReconfigurationGraph:
    """Construct the numbered reconfiguration graph.

    Node set: "only nodes on paths starting at main and ending at a
    procedure containing a reconfiguration point" — computed as the
    intersection of *reachable from main* and *reaches a point procedure*.
    Edges are numbered consecutively in (procedure source order, call line)
    order, so numbering is deterministic for a given source text.
    """
    if points is None:
        points = find_reconfig_points(call_graph)
    if not points:
        raise ReconfigGraphError(
            "module has no reconfiguration points; nothing to prepare "
            "(module-level reconfiguration needs no participation)"
        )
    if entry not in call_graph.functions:
        raise ReconfigGraphError(f"module has no {entry!r} procedure")

    point_procs: Set[str] = {p.procedure for p in points}
    reachable = call_graph.reachable_from(entry)
    unreachable_points = point_procs - reachable
    if unreachable_points:
        raise ReconfigGraphError(
            "reconfiguration point(s) in procedure(s) unreachable from "
            f"{entry!r}: {', '.join(sorted(unreachable_points))}"
        )
    reaches_point = call_graph.reaching(point_procs)
    node_set = (reachable & reaches_point) | {entry} | point_procs

    # Deterministic node order: source order of the function definitions.
    ordered_nodes = [
        name for name in call_graph.functions if name in node_set
    ]

    graph = ReconfigurationGraph(nodes=ordered_nodes, points=list(points))

    # Gather, per procedure, its outgoing items (call sites into the node
    # set, and points inside it), then number them consecutively.
    number = 1
    for name in ordered_nodes:
        items: List[tuple] = []
        for site in call_graph.sites_from(name):
            if site.callee in node_set:
                items.append((site.lineno, site.col, "call", site))
        for point in points:
            if point.procedure == name:
                items.append((point.lineno, 0, "reconfig", point))
        items.sort(key=lambda item: (item[0], item[1]))
        for lineno, _col, kind, payload in items:
            if kind == "call":
                site: CallSite = payload
                graph.edges.append(
                    ReconEdge(
                        number=number,
                        kind="call",
                        source=name,
                        target=site.callee,
                        lineno=lineno,
                        call_site=site,
                    )
                )
            else:
                point = payload
                graph.edges.append(
                    ReconEdge(
                        number=number,
                        kind="reconfig",
                        source=name,
                        target=RECONFIG_NODE,
                        lineno=lineno,
                        point=point,
                    )
                )
            number += 1
    return graph
