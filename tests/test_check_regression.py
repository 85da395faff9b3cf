"""The CI regression gate's three comparisons (benchmarks/check_regression.py)."""

import json
from pathlib import Path

import pytest

from benchmarks.check_regression import (
    check_against_committed,
    check_ratio,
    dig,
    main,
)


def test_dig_follows_dotted_path():
    assert dig({"results": {"heap": {"encode_ms": 4.5}}}, "results.heap.encode_ms") == 4.5
    with pytest.raises(KeyError):
        dig({"results": {}}, "results.heap")


@pytest.mark.parametrize(
    "measured,lower,ok",
    [
        (300_000, False, True),
        (254_999, False, False),  # below 85% of 300k
        (255_000, False, True),  # exactly on the floor
        (8.0, True, True),
        (12.0, True, True),  # exactly on the ceiling
        (12.1, True, False),
    ],
)
def test_committed_comparison_both_directions(measured, lower, ok):
    committed, ratio = (8.0, 1.5) if lower else (300_000, 0.85)
    passed, line = check_against_committed("k", committed, measured, ratio, lower)
    assert passed is ok
    assert ("REGRESSION" in line) is not ok
    assert ("ceiling" if lower else "floor") in line


def test_ratio_of_two_keys():
    assert check_ratio("enc", "dec", 4.4, 7.3, 1.0)[0]
    passed, line = check_ratio("enc", "dec", 47.3, 10.0, 1.0)
    assert not passed and "4.730 > 1.000" in line
    assert check_ratio("enc", "dec", 10.0, 10.0, 1.0)[0]  # the limit itself passes
    assert not check_ratio("enc", "dec", 1.0, 0.0, 1.0)[0]  # never divides by zero


def test_cli_modes_and_exit_codes(tmp_path, capsys):
    committed = tmp_path / "committed.json"
    measured = tmp_path / "measured.json"
    committed.write_text(json.dumps({"xproc": {"aggregate": 300000}, "t": {"ms": 8.0}}))
    measured.write_text(
        json.dumps(
            {
                "xproc": {"aggregate": 200000},
                "t": {"ms": 9.0},
                "results": {"heap": {"encode_ms": 47.3, "decode_ms": 10.0}},
            }
        )
    )
    c, m = str(committed), str(measured)
    assert main([c, m, "xproc.aggregate", "0.85"]) == 1  # the original, unflagged form
    assert main([c, m, "xproc.aggregate", "0.5"]) == 0
    assert main(["--lower", c, m, "t.ms", "1.25"]) == 0
    assert main(["--lower", c, m, "t.ms", "1.1"]) == 1
    ratio = ["--ratio", m, "results.heap.encode_ms", "results.heap.decode_ms"]
    assert main(ratio + ["1.0"]) == 1
    assert main(ratio + ["5.0"]) == 0
    assert main(["--ratio", m, "results.heap.encode_ms"]) == 2  # usage
    capsys.readouterr()


def test_start_clone_share_gate_on_the_committed_state_file(tmp_path, capsys):
    # The CI gate's exact key path and limit: the committed run passes,
    # a run shaped like the one before the code object moved to load()
    # (clone compiled inside start_clone: 1.42 of 1.81 ms) does not.
    committed = Path(__file__).resolve().parents[1] / "BENCH_state.json"
    gate = ["results.fig1_move.start_ms", "results.fig1_move.overhead_ms", "0.67"]
    assert main(["--ratio", str(committed)] + gate) == 0
    before = tmp_path / "before.json"
    before.write_text(
        json.dumps({"results": {"fig1_move": {"start_ms": 1.42, "overhead_ms": 1.81}}})
    )
    assert main(["--ratio", str(before)] + gate) == 1
    capsys.readouterr()
