"""Invariants of the transformation output."""

import ast

import pytest

from repro.core import prepare_module
from repro.core.callgraph import build_call_graph
from repro.core.recongraph import find_reconfig_points

from tests.core.helpers import COMPUTE_SRC, FIGURE6_SRC


def marker_statements(source: str):
    return find_reconfig_points(build_call_graph(ast.parse(source)))


class TestMarkerConsumption:
    def test_transformed_source_has_no_markers_left(self):
        # The marker statements are *replaced* by capture blocks: running
        # prepare_module on its own output finds nothing to prepare.
        result = prepare_module(COMPUTE_SRC, "compute")
        assert marker_statements(result.source) == []
        again = prepare_module(result.source, "compute")
        assert not again.is_reconfigurable
        assert again.source == result.source

    def test_figure6_markers_consumed_too(self):
        result = prepare_module(FIGURE6_SRC, "sample")
        assert marker_statements(result.source) == []


class TestDeterminism:
    def test_transformation_is_deterministic(self):
        first = prepare_module(COMPUTE_SRC, "compute").source
        second = prepare_module(COMPUTE_SRC, "compute").source
        assert first == second

    def test_pruned_transformation_is_deterministic(self):
        first = prepare_module(COMPUTE_SRC, "compute", prune_dead_captures=True)
        second = prepare_module(COMPUTE_SRC, "compute", prune_dead_captures=True)
        assert first.source == second.source

    def test_edge_numbering_stable_under_unrelated_edits(self):
        # Adding a helper procedure off the point paths must not renumber
        # the reconfiguration edges (version compatibility depends on it).
        extended = COMPUTE_SRC + "\n\ndef helper(v):\n    return v * 2\n"
        base = prepare_module(COMPUTE_SRC, "compute")
        edited = prepare_module(extended, "compute")
        assert [
            (e.number, e.kind, e.source) for e in base.recon_graph.edges
        ] == [(e.number, e.kind, e.source) for e in edited.recon_graph.edges]


class TestReportCompleteness:
    def test_every_instrumented_procedure_reported(self):
        result = prepare_module(FIGURE6_SRC, "sample")
        assert set(result.reports) == set(result.recon_graph.procedures())
        for name, report in result.reports.items():
            edges = result.recon_graph.edges_from(name)
            assert report.call_capture_blocks + report.reconfig_capture_blocks == len(edges)
            assert report.fmt.startswith("l")
            assert result.layouts[name].names() == report.variables

    def test_liveness_reported_per_edge(self):
        result = prepare_module(FIGURE6_SRC, "sample")
        for name in result.reports:
            edges = result.recon_graph.edges_from(name)
            assert len(result.liveness[name].edges) == len(edges)
