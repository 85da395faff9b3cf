"""Tests for the reconfiguration graph (repro.core.recongraph, Figure 6)."""

import ast

import pytest

from repro.core.callgraph import build_call_graph
from repro.core.recongraph import (
    RECONFIG_NODE,
    build_reconfiguration_graph,
    find_reconfig_points,
)
from repro.errors import ReconfigGraphError

from tests.core.helpers import COMPUTE_SRC, FIGURE6_SRC


def recon_of(source):
    call_graph = build_call_graph(ast.parse(source))
    return build_reconfiguration_graph(call_graph)


class TestPointDiscovery:
    def test_finds_labels(self):
        points = find_reconfig_points(build_call_graph(ast.parse(FIGURE6_SRC)))
        assert [(p.label, p.procedure) for p in points] == [
            ("R1", "a"),
            ("R2", "b"),
        ]

    def test_duplicate_label_rejected(self):
        source = (
            "def main():\n"
            "    mh.reconfig_point('R')\n"
            "    mh.reconfig_point('R')\n"
        )
        with pytest.raises(ReconfigGraphError, match="already defined"):
            find_reconfig_points(build_call_graph(ast.parse(source)))

    def test_non_literal_label_rejected(self):
        source = "def main():\n    lbl = 'R'\n    mh.reconfig_point(lbl)\n"
        with pytest.raises(ReconfigGraphError, match="literal"):
            find_reconfig_points(build_call_graph(ast.parse(source)))

    def test_empty_label_rejected(self):
        source = "def main():\n    mh.reconfig_point('')\n"
        with pytest.raises(ReconfigGraphError, match="non-empty"):
            find_reconfig_points(build_call_graph(ast.parse(source)))


class TestGraphConstruction:
    def test_monitor_edges_match_paper(self):
        # Section 2.1: main's two call sites are edges 1 and 2, the
        # recursive call is edge 3, the reconfiguration point is edge 4.
        recon = recon_of(COMPUTE_SRC)
        kinds = [(e.number, e.kind, e.source, e.target) for e in recon.edges]
        assert kinds == [
            (1, "call", "main", "compute"),
            (2, "call", "main", "compute"),
            (3, "call", "compute", "compute"),
            (4, "reconfig", "compute", RECONFIG_NODE),
        ]

    def test_numbering_is_consecutive_from_one(self):
        recon = recon_of(FIGURE6_SRC)
        assert [e.number for e in recon.edges] == list(
            range(1, len(recon.edges) + 1)
        )

    def test_helper_not_on_point_path_excluded(self):
        # helper is called by b but contains no point and reaches none:
        # "only nodes on paths starting at main and ending at a procedure
        # containing a reconfiguration point are of concern."
        recon = recon_of(FIGURE6_SRC)
        assert "helper" not in recon.nodes
        assert all(e.target != "helper" for e in recon.edges)

    def test_nodes_include_main_and_point_procs(self):
        recon = recon_of(FIGURE6_SRC)
        assert recon.nodes == ["main", "a", "b"]

    def test_unreachable_point_rejected(self):
        source = (
            "def main():\n    pass\n\n"
            "def orphan():\n    mh.reconfig_point('R')\n"
        )
        with pytest.raises(ReconfigGraphError, match="unreachable"):
            recon_of(source)

    def test_no_points_rejected(self):
        with pytest.raises(ReconfigGraphError, match="no reconfiguration points"):
            recon_of("def main():\n    pass\n")

    def test_no_main_rejected(self):
        source = "def f():\n    mh.reconfig_point('R')\n"
        with pytest.raises(ReconfigGraphError, match="no 'main'"):
            recon_of(source)

    def test_intermediate_node_included(self):
        # main -> middle -> leaf(R): middle is on the path and must be
        # instrumented even though it contains no point.
        source = (
            "def main():\n    middle()\n\n"
            "def middle():\n    leaf()\n\n"
            "def leaf():\n    mh.reconfig_point('R')\n"
        )
        recon = recon_of(source)
        assert recon.nodes == ["main", "middle", "leaf"]

    def test_edge_labels(self):
        recon = recon_of(COMPUTE_SRC)
        assert recon.edges[-1].label == "(4, R)"
        assert recon.edges[0].label.startswith("(1, S")


class TestQueries:
    def test_edges_from(self):
        recon = recon_of(COMPUTE_SRC)
        assert [e.number for e in recon.edges_from("main")] == [1, 2]
        assert [e.number for e in recon.edges_from("compute")] == [3, 4]

    def test_call_and_reconfig_edges(self):
        recon = recon_of(COMPUTE_SRC)
        assert len(recon.call_edges()) == 3
        assert len(recon.reconfig_edges()) == 1

    def test_edge_by_number(self):
        recon = recon_of(COMPUTE_SRC)
        assert recon.edge_by_number(4).kind == "reconfig"
        with pytest.raises(ReconfigGraphError):
            recon.edge_by_number(99)

    def test_edge_for_stmts(self):
        recon = recon_of(COMPUTE_SRC)
        call_edge = recon.edges[0]
        assert call_edge.stmt is call_edge.call_site.stmt
        point_edge = recon.edges[-1]
        assert point_edge.stmt is point_edge.point.stmt

    def test_describe_lists_edges(self):
        text = recon_of(COMPUTE_SRC).describe()
        assert "(4, R)" in text
        assert "main" in text

    def test_point_labels(self):
        assert recon_of(FIGURE6_SRC).point_labels() == ["R1", "R2"]

    def test_is_instrumented(self):
        recon = recon_of(FIGURE6_SRC)
        assert recon.is_instrumented("a")
        assert not recon.is_instrumented("helper")
