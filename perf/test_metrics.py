"""Semantics of the pure functions in ``perf/metrics.py`` and ``perf/compare.py``.

Run with ``python3 -m pytest perf -q`` (tier-1's ``testpaths`` does not
include this directory).  Synthetic sample streams only: no bus, no
clock -- except the last test, which starts real processes to see the
supervisor of ``perf/hygiene.py`` end them.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare
from perf.metrics import (
    per_replace_stalls,
    percentile,
    pick_percentile,
    self_times,
    sequence_failures,
    split_windows,
    steady_send_lags,
    supports,
)


def steady_stream(session: int, start: float, end: float, step: float, latency: float):
    """Completions every ``step`` seconds, each taking ``latency``."""
    samples = []
    t = start
    while t < end - 1e-12:
        samples.append((session, t, t + latency))
        t += step
    return samples


# -- percentile picker -----------------------------------------------------------


def test_picker_returns_p90_at_n_100_and_refuses_p99():
    assert pick_percentile(100) == 90.0
    assert supports(100, 90)
    assert not supports(100, 99)


def test_picker_ladder():
    assert pick_percentile(99) == 50.0  # 9.9 samples beyond p90: not enough
    assert pick_percentile(999) == 90.0
    assert pick_percentile(1000) == 99.0
    assert pick_percentile(10_000) == 99.9
    assert pick_percentile(1) == 50.0
    assert pick_percentile(0) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(range(1, 1001)), 99.9) == 999
    with pytest.raises(ValueError):
        percentile([], 50)


# -- loss / duplicate / reorder counter --------------------------------------------


def test_clean_stream_has_no_failures():
    assert sequence_failures(range(1, 11), 10) == {
        "lost": 0,
        "duplicated": 0,
        "reordered": 0,
    }


def test_injected_loss_duplicate_and_reorder_are_each_counted_once():
    # 1..10 sent; 4 never arrives, 6 arrives twice, 8 arrives after 9.
    received = [1, 2, 3, 5, 6, 6, 7, 9, 8, 10]
    assert sequence_failures(received, 10) == {
        "lost": 1,
        "duplicated": 1,
        "reordered": 1,
    }


def test_an_echo_of_something_never_sent_is_not_a_delivery():
    assert sequence_failures([1, 2, 3, 99], 3) == {
        "lost": 0,
        "duplicated": 1,
        "reordered": 0,
    }


def test_tail_loss_is_counted_against_the_sent_total():
    assert sequence_failures([1, 2, 3], 5)["lost"] == 2


# -- per-replace windows -------------------------------------------------------------


def test_window_membership_is_per_replace_not_first_to_last():
    replaces = [(1.000, 1.010), (2.000, 2.010)]
    samples = [
        (0, 0.500, 0.501),  # before everything: steady
        (0, 0.995, 1.002),  # completes inside replace 0: during
        (0, 1.005, 1.006),  # wholly inside replace 0: during
        (0, 1.009, 1.020),  # sent inside replace 0: during
        (0, 1.500, 1.501),  # between the two replaces: steady
        (0, 1.990, 2.030),  # spans the whole of replace 1: during
        (0, 2.500, 2.501),  # after everything: steady
    ]
    steady, during = split_windows(samples, replaces)
    assert len(steady) == 3
    assert len(during) == 4
    assert max(during) == pytest.approx(0.040)
    assert all(latency == pytest.approx(0.001) for latency in steady)


def test_touching_an_interval_edge_counts_as_overlap():
    steady, during = split_windows([(0, 0.9, 1.0), (0, 1.01, 1.02)], [(1.0, 1.01)])
    assert (len(steady), len(during)) == (0, 2)


def test_no_replaces_means_everything_is_steady():
    steady, during = split_windows([(0, 0.0, 0.1), (1, 0.2, 0.3)], [])
    assert (len(steady), len(during)) == (2, 0)


def test_a_send_lag_is_judged_at_its_own_scheduled_time():
    # Paced sends every 10 ms; the replace holds up the one due at 0.105.
    replaces = [(0.100, 0.110)]
    lags = [(0.095, 0.0001), (0.105, 0.006), (0.115, 0.0002)]
    assert steady_send_lags(lags, replaces) == [0.0001, 0.0002]
    # A late send that ends before the replace starts is the generator's own.
    assert steady_send_lags([(0.090, 0.009)], replaces) == [0.009]


# -- stall attribution ----------------------------------------------------------------


def test_fifty_ms_gap_is_the_stall_of_the_replace_it_overlaps_only():
    # Two sessions completing every 1 ms; session 0 goes silent for
    # 50 ms across the second replace, session 1 never stalls.
    replaces = [(0.100, 0.104), (0.300, 0.304), (0.500, 0.504)]
    s0 = steady_stream(0, 0.0, 0.299, 0.001, 0.0005) + steady_stream(
        0, 0.3485, 0.7, 0.001, 0.0005
    )
    s1 = steady_stream(1, 0.0, 0.7, 0.001, 0.0005)
    stalls = per_replace_stalls(s0 + s1, replaces, 0.0)
    assert len(stalls) == 3
    assert stalls[0] == pytest.approx(0.001)
    assert stalls[1] == pytest.approx(0.0505, abs=1e-6)
    assert stalls[2] == pytest.approx(0.001)


def test_a_gap_spanning_two_replaces_is_charged_to_both():
    replaces = [(1.0, 1.1), (2.0, 2.1)]
    samples = [(0, 0.5, 0.6), (0, 0.6, 2.5)]
    assert per_replace_stalls(samples, replaces, 0.0) == [
        pytest.approx(1.9),
        pytest.approx(1.9),
    ]


def test_first_gap_is_clocked_from_the_start_of_the_measurement():
    stalls = per_replace_stalls([(0, 0.9, 1.2)], [(1.0, 1.1)], 0.25)
    assert stalls == [pytest.approx(0.95)]


# -- self time ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_the_children():
    spans = [
        {"sid": 1, "parent": None, "t0": 0.0, "t1": 10.0},
        {"sid": 2, "parent": 1, "t0": 1.0, "t1": 4.0},
        {"sid": 3, "parent": 1, "t0": 3.0, "t1": 6.0},  # overlaps 2 (other thread)
        {"sid": 4, "parent": 2, "t0": 1.5, "t1": 2.0},
        {"sid": 5, "parent": 1, "t0": 9.0, "t1": 12.0},  # runs past its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(3.0)


# -- perf/compare.py: one verdict rule, nothing skipped ----------------------------------

SPEC = {
    "workloads": [{"name": "kv"}, {"name": "pipe"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def run_set(setup=(1.0, 0.05), ops=(100.0, 0.05), workloads=("kv", "pipe")):
    tally = dict.fromkeys(
        ("attempted", "failed", "route_retries", "write_retries", "slots_skipped"), 0
    )
    metrics = {
        "setup_s": {"median": setup[0], "spread": setup[1]},
        "ops_per_s": {"median": ops[0], "spread": ops[1]},
    }
    return {
        "meta": {"cpus": 2},
        "workloads": {
            w: {"tally": dict(tally, attempted=10), "metrics": dict(metrics)}
            for w in workloads
        },
    }


def verdicts(a, b):
    rows, failed = compare.compare(a, b, SPEC)
    return {(row[0], row[1]): row[-1] for row in rows}, failed


def test_verdict_is_ok_worse_or_unresolved_by_one_rule_for_every_metric():
    seen, failed = verdicts(run_set(), run_set(setup=(1.3, 0.05), ops=(95.0, 0.05)))
    assert seen[("kv", "setup_s")] == "worse" and failed
    assert seen[("kv", "ops_per_s")] == "ok"  # 5 % fewer, bound 10 %
    # setup_s is held to its spread like any other metric.
    seen, failed = verdicts(run_set(), run_set(setup=(1.0, 0.4), ops=(80.0, 0.2)))
    assert seen[("pipe", "setup_s")] == "unresolved"
    assert seen[("pipe", "ops_per_s")] == "unresolved"
    assert not failed


def test_a_pair_missing_from_one_set_fails_instead_of_being_skipped():
    b = run_set()
    del b["workloads"]["pipe"]["metrics"]["ops_per_s"]
    seen, failed = verdicts(run_set(), b)
    assert seen[("pipe", "ops_per_s")] == "missing" and failed


def test_sets_that_ran_different_workloads_are_refused():
    assert "different workloads" in compare.refuse(run_set(), run_set(workloads=("kv",)))
    assert compare.refuse(run_set(), run_set()) is None


def test_more_failed_operations_fail_the_comparison():
    b = run_set()
    b["workloads"]["kv"]["tally"]["failed"] = 1
    seen, failed = verdicts(run_set(), b)
    assert seen[("kv", "op_fail_frac")] == "worse" and failed


# -- supervisor --------------------------------------------------------------------


def test_the_supervisor_ends_what_the_run_leaves_behind():
    # The "run" starts a process that would sleep for a minute, and exits.
    run = (
        "import subprocess, sys\n"
        "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(sleeper.pid, flush=True)\n"
        "sys.exit(7)\n"
    )
    supervisor = (
        "import sys\n"
        "from perf.hygiene import supervise\n"
        "sys.exit(supervise([sys.executable, '-c', sys.argv[1]], None, 30.0))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", supervisor, run],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    sleeper = int(done.stdout)
    assert done.returncode == 7  # the run's own exit code
    assert not Path(f"/proc/{sleeper}").exists()  # killed and waited for
    assert f"[{sleeper}]" in done.stderr
