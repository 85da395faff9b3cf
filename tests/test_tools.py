"""Tests for the command-line tools (repro.tools)."""

import subprocess
import sys

import pytest

from repro.apps.monitor import COMPUTE_SOURCE, MONITOR_MIL, SENSOR_SOURCE, DISPLAY_SOURCE
from repro.runtime import telemetry
from repro.tools.graph import main as graph_main
from repro.tools.prepare import main as prepare_main
from repro.tools.stats import main as stats_main


@pytest.fixture
def compute_file(tmp_path):
    path = tmp_path / "compute.py"
    path.write_text(COMPUTE_SOURCE)
    return path


class TestPrepareCli:
    def test_prepare_to_stdout(self, compute_file, capsys):
        assert prepare_main([str(compute_file)]) == 0
        out = capsys.readouterr().out
        assert "mh.capturestack" in out
        compile(out, "<cli>", "exec")

    def test_prepare_to_file(self, compute_file, tmp_path):
        output = tmp_path / "compute_r.py"
        assert prepare_main([str(compute_file), "-o", str(output)]) == 0
        text = output.read_text()
        assert "mh.begin_reconfig_capture('R')" in text

    def test_report_flag(self, compute_file, capsys):
        assert prepare_main([str(compute_file), "--report"]) == 0
        err = capsys.readouterr().err
        assert "reconfiguration graph" in err
        assert "liveness" in err

    def test_prune_flag(self, compute_file, capsys):
        assert prepare_main([str(compute_file), "--prune"]) == 0
        out = capsys.readouterr().out
        compile(out, "<cli>", "exec")

    def test_no_points_passthrough(self, tmp_path, capsys):
        path = tmp_path / "plain.py"
        path.write_text("def main():\n    pass\n")
        assert prepare_main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "no reconfiguration points" in captured.err
        assert captured.out == "def main():\n    pass\n"

    def test_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(
            "def main():\n"
            "    with open('x') as f:\n"
            "        pass\n"
            "    mh.reconfig_point('R')\n"
        )
        assert prepare_main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestGraphCli:
    def test_text_output(self, compute_file, capsys):
        assert graph_main([str(compute_file)]) == 0
        out = capsys.readouterr().out
        assert "static call graph" in out
        assert "(4, R)" in out

    def test_dot_output(self, compute_file, capsys):
        assert graph_main([str(compute_file), "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"compute" -> "reconfig"' in out
        assert "doublecircle" in out

    def test_module_without_points(self, tmp_path, capsys):
        path = tmp_path / "plain.py"
        path.write_text("def main():\n    helper()\n\ndef helper():\n    pass\n")
        assert graph_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "no reconfiguration points" in out
        assert "main -> helper" in out

    def test_error_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def main(:\n")
        assert graph_main([str(path)]) == 1


class TestStatsCli:
    @pytest.fixture
    def trace(self, tmp_path):
        """A small two-reconfiguration dump made with the real recorder."""
        recorder = telemetry.enable(capacity=64)
        try:
            with telemetry.span(
                "reconfig.replace", recon="rc-0001", ambient=True, instance="compute"
            ):
                with telemetry.span("stage.commit", instance="compute"):
                    pass
                telemetry.event("fault.fired", site="mh.encode", mode="delay")
            with telemetry.span("reconfig.replace", recon="rc-0002", ambient=True):
                with telemetry.span("stage.rollback"):
                    pass
            telemetry.count("bus.delivered", n=12, key="sensor.out")
            telemetry.count("reconfig.commits")
            telemetry.gauge_max("queue.hwm", 5, key="display.inp")
            path = tmp_path / "trace.jsonl"
            recorder.export_jsonl(str(path))
        finally:
            telemetry.disable()
        return path

    def test_latency_table_and_counters(self, trace, capsys):
        assert stats_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span latency breakdown" in out
        assert "reconfig.replace" in out and "stage.commit" in out
        assert "fault.fired" in out
        assert 'repro_bus_delivered_total{key="sensor.out"} 12' in out
        assert "repro_reconfig_commits_total 1" in out
        assert 'repro_queue_hwm{key="display.inp"} 5' in out
        # the dump is self-describing: how it was recorded rides along
        assert "# recorded with" in out
        assert "capacity=" in out

    def test_tree_and_recon_filter(self, trace, capsys):
        assert stats_main([str(trace), "--tree", "--recon", "rc-0001"]) == 0
        out = capsys.readouterr().out
        assert "reconfig.replace [rc-0001]" in out
        assert "  stage.commit" in out
        assert "rc-0002" not in out.split("# counters")[0]

    def test_json_output_is_machine_readable(self, trace, capsys):
        import json

        assert stats_main([str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["recons"] == ["rc-0001", "rc-0002"]
        assert doc["latency"]["reconfig.replace"]["count"] == 2
        assert doc["counters"]["bus.delivered{sensor.out}"] == 12
        assert doc["meta"]["schema"] == "repro-bench-meta/2"
        assert doc["meta"]["cpus"] is not None
        assert doc["span_count"] == 4 and doc["event_count"] == 1

    def test_prometheus_meta_info_block(self, trace, capsys):
        assert stats_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_meta_info gauge" in out
        assert 'schema="repro-bench-meta/2"' in out
        assert "repro_meta_info{" in out

    def test_health_flag_without_snapshot(self, trace, capsys):
        assert stats_main([str(trace), "--health"]) == 0
        out = capsys.readouterr().out
        assert "# health" in out
        assert "no health snapshot" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        assert stats_main([str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_garbage_line_reports_lineno(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        assert stats_main([str(path)]) == 1
        assert "bad.jsonl:2" in capsys.readouterr().err


@pytest.mark.slow
class TestRunAppCli:
    def test_end_to_end_with_move(self, tmp_path):
        (tmp_path / "compute.py").write_text(COMPUTE_SOURCE)
        (tmp_path / "sensor.py").write_text(SENSOR_SOURCE)
        (tmp_path / "display.py").write_text(DISPLAY_SOURCE)
        mil = MONITOR_MIL.replace('"display.py"', '"display.py"')
        (tmp_path / "monitor.mil").write_text(mil)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.tools.runapp",
                str(tmp_path / "monitor.mil"),
                "--hosts",
                "alpha:sparc-like",
                "beta:vax-like",
                "--move",
                "compute:beta:0.5",
                "--run-for",
                "2.5",
                "--sleep-scale",
                "0.05",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "move of 'compute'" in result.stdout
        assert "alpha -> beta" in result.stdout

    def test_stats_flag_prints_counters_and_dumps_trace(self, tmp_path):
        (tmp_path / "compute.py").write_text(COMPUTE_SOURCE)
        (tmp_path / "sensor.py").write_text(SENSOR_SOURCE)
        (tmp_path / "display.py").write_text(DISPLAY_SOURCE)
        (tmp_path / "monitor.mil").write_text(MONITOR_MIL)
        trace_path = tmp_path / "trace.jsonl"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.tools.runapp",
                str(tmp_path / "monitor.mil"),
                "--run-for",
                "1.0",
                "--sleep-scale",
                "0.05",
                "--stats",
                "--trace-out",
                str(trace_path),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "telemetry counters:" in result.stdout
        assert "repro_bus_delivered_total" in result.stdout
        assert trace_path.exists()
        assert stats_main([str(trace_path)]) == 0
