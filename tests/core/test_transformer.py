"""End-to-end tests for prepare_module (repro.core.transformer)."""

import pytest

from repro.core import prepare_module
from repro.errors import ReconfigGraphError, TransformError, UnsupportedConstructError
from repro.runtime.mh import MH
from repro.runtime.refs import Ref
from repro.state.machine import MACHINES

from tests.core.helpers import (
    COMPUTE_SRC,
    FIGURE6_SRC,
    ScriptedPort,
    capture_compute_mid_recursion,
    resume_compute,
    run_module,
)


class TestFigure4Structure:
    """The transformed compute module mirrors Figure 4 structurally."""

    def test_main_has_two_capture_blocks(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        assert result.reports["main"].call_capture_blocks == 2
        assert result.reports["main"].reconfig_capture_blocks == 0

    def test_compute_has_one_of_each(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        assert result.reports["compute"].call_capture_blocks == 1
        assert result.reports["compute"].reconfig_capture_blocks == 1

    def test_both_have_restore_blocks(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        assert result.reports["main"].has_restore_block
        assert result.reports["compute"].has_restore_block

    def test_clone_check_only_in_main(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        assert result.source.count("mh.getstatus() == 'clone'") == 1

    def test_compute_fmt_matches_frame(self):
        # Paper: mh_capture("lllF", ...) — ours is 'lll' + pointee 'a' +
        # local 'a' ('a' because rp: Ref is untyped and temper unannotated).
        result = prepare_module(COMPUTE_SRC, "compute")
        assert result.reports["compute"].fmt == "lllaa"
        assert result.reports["compute"].variables == ["num", "n", "rp", "temper"]

    def test_describe_mentions_edges(self):
        text = prepare_module(COMPUTE_SRC, "compute").describe()
        assert "(4, R)" in text
        assert "capture block" in text

    def test_output_carries_graph_comment(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        assert "# Reconfiguration graph:" in result.source

    def test_output_compiles(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        compile(result.source, "<x>", "exec")


class TestCompiledOnce:
    """The assembled module is compiled exactly once, and the code kept."""

    def test_result_carries_the_code_of_its_source(self):
        result = prepare_module(COMPUTE_SRC, "compute")
        assert result.code.co_filename == "<module compute>"
        namespace = {}
        exec(result.code, namespace)
        assert callable(namespace["main"]) and callable(namespace["compute"])
        first_line = namespace["compute"].__code__.co_firstlineno
        assert result.source.splitlines()[first_line - 1].startswith("def compute(")

    def test_one_compile_per_preparation(self, compile_calls):
        prepare_module(COMPUTE_SRC, "compute")
        # ast.parse is a compile() too (filename "<unknown>"); nothing
        # else is: no per-procedure guard, no throw-away syntax check.
        assert [f for f in compile_calls if f != "<unknown>"] == ["<module compute>"]

    def test_bad_emitter_output_names_the_procedure(self, monkeypatch):
        from repro.core import transformer
        from repro.errors import EmitError

        emit = transformer.emit_procedure

        def broken(fn, *args, **kwargs):
            text = emit(fn, *args, **kwargs)
            return text + "    )\n" if fn.name == "compute" else text

        monkeypatch.setattr(transformer, "emit_procedure", broken)
        with pytest.raises(EmitError, match="invalid source for 'compute'"):
            prepare_module(COMPUTE_SRC, "compute")


class TestNoPointsPassthrough:
    def test_module_without_points_untouched(self):
        source = "def main():\n    pass\n"
        result = prepare_module(source, "m")
        assert not result.is_reconfigurable
        assert result.source == source
        assert result.reports == {}
        assert result.code is None  # nothing was assembled, nothing compiled


class TestDeclaredPoints:
    def test_matching_declaration_ok(self):
        prepare_module(COMPUTE_SRC, "compute", declared_points=["R"])

    def test_mismatch_rejected(self):
        with pytest.raises(TransformError, match="do not match"):
            prepare_module(COMPUTE_SRC, "compute", declared_points=["R", "S"])

    def test_missing_marker_rejected(self):
        with pytest.raises(TransformError, match="do not match"):
            prepare_module("def main():\n    pass\n", "m", declared_points=["R"])


class TestErrors:
    def test_syntax_error(self):
        with pytest.raises(TransformError, match="does not parse"):
            prepare_module("def main(:\n", "m")

    def test_unsupported_construct_surfaces(self):
        source = (
            "def main():\n"
            "    with open('x') as f:\n"
            "        pass\n"
            "    mh.reconfig_point('R')\n"
        )
        with pytest.raises(UnsupportedConstructError):
            prepare_module(source, "m")

    def test_unreachable_point(self):
        source = "def main():\n    pass\n\ndef lost():\n    mh.reconfig_point('R')\n"
        with pytest.raises(ReconfigGraphError):
            prepare_module(source, "m")


class TestMidRecursionCapture:
    @pytest.mark.parametrize("reads_before_capture", [1, 2, 3, 4])
    def test_resume_completes_average(self, reads_before_capture):
        # Interrupt the recursive average after k sensor reads; the clone
        # must consume exactly the remaining values and produce the exact
        # uninterrupted result.
        n = 4
        packet, port = capture_compute_mid_recursion(
            n=n, reconfig_after_reads=reads_before_capture
        )
        consumed_sensor = reads_before_capture - 1  # first read is the request
        remaining = port.queues["sensor"]
        assert len(remaining) == n - consumed_sensor
        clone_port = resume_compute(packet, remaining)
        expected = sum(range(10, 10 * (n + 1), 10)) / n
        assert clone_port.out == [("display", [expected])]

    @pytest.mark.parametrize("depth", [1, 2, 8, 50, 200])
    def test_deep_recursion(self, depth):
        # The signal must land while at least one reconfiguration-point
        # check is still ahead in this request: after the LAST sensor
        # read there is no further check until the next request, so for
        # depth 1 the signal is raised during the request read instead.
        packet, port = capture_compute_mid_recursion(
            n=depth, reconfig_after_reads=1 if depth == 1 else 2
        )
        from repro.state.frames import ProcessState

        state = ProcessState.from_bytes(packet)
        # Stack: main + one compute frame per pending recursion level.
        assert state.stack.depth >= 2
        clone_port = resume_compute(packet, port.queues["sensor"])
        expected = sum(range(10, 10 * (depth + 1), 10)) / depth
        (iface, values) = clone_port.out[0]
        assert iface == "display"
        assert values[0] == pytest.approx(expected)

    def test_cross_machine_capture_restore(self, sparc, vax):
        packet, port = capture_compute_mid_recursion(
            n=4, reconfig_after_reads=3, machine=sparc
        )
        clone_port = resume_compute(packet, port.queues["sensor"], machine=vax)
        assert clone_port.out == [("display", [25.0])]

    def test_repeated_reconfigurations(self):
        # Capture, restore, capture the clone again, restore again.
        packet, port = capture_compute_mid_recursion(n=6, reconfig_after_reads=2)
        result = prepare_module(COMPUTE_SRC, "compute")

        mh2 = MH("compute", status="clone")
        mh2.incoming_packet = packet
        port2 = ScriptedPort(mh2, {"display": [], "sensor": port.queues["sensor"]},
                             reconfig_after_reads=2)
        mh2.attach_port(port2)
        run_module(result.source, mh2)
        assert mh2.divulged.is_set()

        clone_port = resume_compute(mh2.outgoing_packet, port2.queues["sensor"])
        expected = sum(range(10, 70, 10)) / 6
        assert clone_port.out == [("display", [pytest.approx(expected)])]


class TestMultiplePoints:
    def test_figure6_shape(self):
        result = prepare_module(FIGURE6_SRC, "sample")
        assert set(result.reports) == {"main", "a", "b"}
        assert result.reports["a"].reconfig_capture_blocks == 1
        assert result.reports["b"].reconfig_capture_blocks == 1
        # main's three call sites are shared capture blocks: "reconfiguration
        # points can share capture blocks."
        assert result.reports["main"].call_capture_blocks == 3

    def test_version_mismatch_detected_at_restore(self):
        # Capture with the original, restore with a structurally different
        # version: the clone must fail loudly, not corrupt state.
        result_v1 = prepare_module(COMPUTE_SRC, "compute")
        mh = MH("compute")
        port = ScriptedPort(mh, {"display": [3], "sensor": [10, 20, 30]},
                            reconfig_after_reads=2)
        mh.attach_port(port)
        run_module(result_v1.source, mh)
        packet = mh.outgoing_packet

        V2 = COMPUTE_SRC.replace(
            "def compute(num: int, n: int, rp: Ref):",
            "def compute(num: int, n: int, rp: Ref):\n    extra = 1",
        )
        result_v2 = prepare_module(V2, "compute")
        mh2 = MH("compute", status="clone")
        mh2.incoming_packet = packet
        port2 = ScriptedPort(mh2, {"display": [], "sensor": [30]})
        mh2.attach_port(port2)
        from repro.errors import RestoreError, CaptureError

        with pytest.raises((RestoreError, CaptureError, IndexError, Exception)):
            run_module(result_v2.source, mh2)
