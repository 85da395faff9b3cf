"""The benchmark scripts that write a committed ``BENCH_*.json`` read
their command line before any work (benchmarks/_meta.py ``bench_args``):
``--help`` exits 0 and an unknown flag exits 2, and neither runs the
benchmark or writes a file."""

import importlib

import pytest

SCRIPTS = [
    "bench_a4_bus_throughput",
    "bench_a5_state_path",
    "bench_o1_telemetry_overhead",
]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--quikc"], 2)])
@pytest.mark.parametrize("script", SCRIPTS)
def test_help_or_a_typo_exits_before_any_work(
    script, argv, code, tmp_path, monkeypatch, capsys
):
    module = importlib.import_module(f"benchmarks.{script}")

    def run_all(*args, **kwargs):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(module, "run_all", run_all)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        module.main(argv)
    assert exit_.value.code == code
    assert list(tmp_path.iterdir()) == []
    if code == 0:
        assert "--out" in capsys.readouterr().out
