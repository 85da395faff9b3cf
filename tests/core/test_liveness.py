"""Tests for live-variable analysis (repro.core.liveness)."""

import ast

from repro.core.callgraph import build_call_graph
from repro.core.liveness import analyze_liveness
from repro.core.recongraph import build_reconfiguration_graph
from repro.core.varinfo import analyze_frame

from tests.core.helpers import COMPUTE_SRC


def liveness_for(source: str, name: str):
    tree = ast.parse(source)
    call_graph = build_call_graph(tree)
    recon = build_reconfiguration_graph(call_graph)
    fn = call_graph.functions[name]
    layout = analyze_frame(fn)
    return analyze_liveness(fn, layout, recon), recon


class TestLivenessAtPoints:
    def test_dead_variable_detected(self):
        source = (
            "def main():\n"
            "    used = 1\n"
            "    dead = 2\n"
            "    mh.reconfig_point('R')\n"
            "    mh.write('out', 'l', used)\n"
        )
        report, recon = liveness_for(source, "main")
        edge = report.edge(recon.reconfig_edges()[0].number)
        assert "used" in edge.live
        assert "dead" in edge.dead_captured

    def test_all_live_when_all_used(self):
        source = (
            "def main():\n"
            "    a = 1\n"
            "    b = 2\n"
            "    mh.reconfig_point('R')\n"
            "    mh.write('out', 'l', a + b)\n"
        )
        report, recon = liveness_for(source, "main")
        edge = report.edge(recon.reconfig_edges()[0].number)
        assert edge.dead_captured == set()

    def test_variable_rewritten_before_use_is_dead(self):
        source = (
            "def main():\n"
            "    x = 1\n"
            "    mh.reconfig_point('R')\n"
            "    x = 2\n"
            "    mh.write('out', 'l', x)\n"
        )
        report, recon = liveness_for(source, "main")
        edge = report.edge(recon.reconfig_edges()[0].number)
        assert "x" in edge.dead_captured

    def test_loop_carried_variable_is_live(self):
        source = (
            "def main():\n"
            "    total = 0\n"
            "    i = 0\n"
            "    while i < 10:\n"
            "        mh.reconfig_point('R')\n"
            "        total = total + i\n"
            "        i = i + 1\n"
            "    mh.write('out', 'l', total)\n"
        )
        report, recon = liveness_for(source, "main")
        edge = report.edge(recon.reconfig_edges()[0].number)
        assert {"total", "i"} <= edge.live


class TestLivenessAtCallEdges:
    def test_compute_rp_live_after_recursive_call(self):
        report, recon = liveness_for(COMPUTE_SRC, "compute")
        (call_edge,) = [e for e in recon.edges_from("compute") if e.kind == "call"]
        entry = report.edge(call_edge.number)
        # After the recursive call returns, rp and num are still read.
        assert "rp" in entry.live
        assert "num" in entry.live

    def test_main_response_live_after_first_call(self):
        report, recon = liveness_for(COMPUTE_SRC, "main")
        first = recon.edges_from("main")[0]
        entry = report.edge(first.number)
        assert "response" in entry.live

    def test_ref_method_call_counts_as_use(self):
        source = (
            "def main():\n"
            "    cell = Ref(0)\n"
            "    mh.reconfig_point('R')\n"
            "    cell.set(1)\n"
        )
        report, recon = liveness_for(source, "main")
        edge = report.edge(recon.reconfig_edges()[0].number)
        assert "cell" in edge.live


class TestLoopExitsAndReturn:
    def test_break_takes_the_loops_live_out_set(self):
        # y is read only after the loop, and the loop leaves only by break.
        source = (
            "def main():\n"
            "    x = 0\n"
            "    y = 7\n"
            "    while True:\n"
            "        mh.reconfig_point('R')\n"
            "        x = x + 1\n"
            "        if x > 3:\n"
            "            break\n"
            "        y = x\n"
            "    mh.write('out', 'l', y)\n"
        )
        report, recon = liveness_for(source, "main")
        assert report.edge(recon.reconfig_edges()[0].number).live == {"x", "y"}

    def test_continue_takes_the_loops_head_set(self):
        # Past the continue, x is rewritten before the loop reads it again;
        # only the continue carries R's x to the read after the loop.
        source = (
            "def main():\n"
            "    x = 0\n"
            "    k = 0\n"
            "    while k < 3:\n"
            "        mh.reconfig_point('R')\n"
            "        k = k + 1\n"
            "        if k > 1:\n"
            "            continue\n"
            "        x = 5\n"
            "    mh.write('out', 'l', x)\n"
        )
        report, recon = liveness_for(source, "main")
        assert report.edge(recon.reconfig_edges()[0].number).live == {"x", "k"}

    def test_return_kills_everything_after_it(self):
        source = (
            "def main():\n"
            "    x = 1\n"
            "    y = 2\n"
            "    mh.reconfig_point('R')\n"
            "    return x\n"
            "    mh.write('out', 'l', y)\n"
        )
        report, recon = liveness_for(source, "main")
        edge = report.edge(recon.reconfig_edges()[0].number)
        assert edge.live == {"x"}
        assert edge.dead_captured == {"y"}


class TestReportShape:
    def test_total_dead_slots(self):
        source = (
            "def main():\n"
            "    dead1 = 1\n"
            "    dead2 = 2\n"
            "    mh.reconfig_point('R')\n"
        )
        report, _recon = liveness_for(source, "main")
        assert report.total_dead_slots() == 2

    def test_edge_lookup_error(self):
        report, _ = liveness_for(COMPUTE_SRC, "compute")
        try:
            report.edge(999)
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")

    def test_transformer_populates_liveness(self):
        from repro.core import prepare_module

        result = prepare_module(COMPUTE_SRC, "compute")
        assert set(result.liveness) == {"main", "compute"}
        assert result.liveness["compute"].edges
