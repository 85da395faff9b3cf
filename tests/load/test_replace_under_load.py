"""Load smoke tier: `pytest -m load` — invariants through replace().

Each case drives one of the benchmark's workloads (``perf/workloads.py``,
imported read-only) the way ``perf/run.py`` does, only shorter: build it
once, warm up, run about 1.5 s of traffic while the target module is
moved between machines on a timetable, then stop the traffic and verify.
``perf/README.md`` has the full-size runs and their numbers.

What each case asserts:

- ``verify()`` counts no failure of any kind: no lost, duplicated or
  reordered echo, no crossed or wrong KV reply, no time-out or stray
  reply, and every shard, stage and monitor count equals what was sent;
- every timetable replace committed, and there were at least three;
- traffic completed both before the first replace and after the last;
- no replace stalled any session for ``STALL_CEILING_S`` or longer;
- the during-replace p99 stays under a *generous* multiple of the steady
  p99 (the bound catches a wedged replace, not noise on a busy runner).

The trace case repeats the pipeline run with the flight recorder on:
what the worker and the daemon record inside a replace must be stitched
into that replace's one tree while traffic flows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List

import pytest

from perf.loadgen import ClosedLoop, OpenLoop, ReplaceRecord, run_timetable, slot_times
from perf.metrics import Sample, per_replace_stalls, percentile, split_windows
from perf.workloads import FanoutWide, KvInproc, PipeXproc

pytestmark = [pytest.mark.load, pytest.mark.usefixtures("watchdog")]

WATCHDOG_S = 120.0
SEED = 1993

WARMUP_S = 0.3
MEASURE_S = 1.5
#: Five timetable slots in the measured interval.
SLOT_PERIOD_S = 0.3
MIN_REPLACES = 3
#: Traffic measured after the last replace returned, however late it ran.
TAIL_S = 0.1

#: No replace may hold up any session this long.
STALL_CEILING_S = 5.0
#: during-p99 must stay under max(this multiple of steady-p99, the
#: absolute floor) — generous on purpose; the replace itself is ~5 ms.
DURING_P99_MULTIPLE = 50.0
DURING_P99_FLOOR_S = 0.250


@dataclass
class LoadRun:
    failures: Dict[str, int]
    attempted: int
    crashes: List[BaseException]
    samples: List[Sample]
    records: List[ReplaceRecord]
    t0: float
    t1: float


def run_under_load(cls) -> LoadRun:
    """Build ``cls`` once and move its target on a timetable under traffic."""
    workload = cls(SEED)
    try:
        workload.build()
        assert workload.first_operation(), "set-up operation failed"
        workload.warm()
        if workload.loop == "closed":
            generator = ClosedLoop(workload.sessions)
        else:
            generator = OpenLoop(workload.sessions[0], workload.rate)
        generator.start()
        time.sleep(WARMUP_S)
        t0 = time.monotonic()
        slots = slot_times(t0, MEASURE_S, SLOT_PERIOD_S, random.Random(SEED))
        records, _ = run_timetable(workload.bus, workload.target, slots)
        time.sleep(max(TAIL_S, t0 + MEASURE_S - time.monotonic()))
        t1 = time.monotonic()
        generator.finish(timeout=30.0)
        return LoadRun(
            failures=workload.verify(),
            attempted=workload.attempted(),
            crashes=generator.crashes,
            samples=generator.samples(),
            records=records,
            t0=t0,
            t1=t1,
        )
    finally:
        workload.close()


def assert_invariants(run: LoadRun) -> None:
    assert not run.crashes, f"generator threads died: {run.crashes}"
    assert run.attempted > 0
    assert {kind: n for kind, n in run.failures.items() if n} == {}

    assert len(run.records) >= MIN_REPLACES, f"only {len(run.records)} replaces fired"
    assert [r.error for r in run.records if not r.committed] == []

    measured = [s for s in run.samples if run.t0 <= s[1] and s[2] <= run.t1]
    intervals = [(r.t_call, r.t_return) for r in run.records]
    assert any(t_recv < intervals[0][0] for _, _, t_recv in measured), (
        "no steady traffic before the first replace"
    )
    assert any(t_send > intervals[-1][1] for _, t_send, _ in measured), (
        "traffic did not resume after the last replace"
    )

    stalls = per_replace_stalls(measured, intervals, run.t0)
    assert max(stalls) < STALL_CEILING_S, f"stalls {stalls}"

    steady, during = split_windows(measured, intervals)
    if during:
        ceiling = max(percentile(steady, 99) * DURING_P99_MULTIPLE, DURING_P99_FLOOR_S)
        assert percentile(during, 99) < ceiling


@pytest.mark.parametrize(
    "cls", [KvInproc, PipeXproc, FanoutWide], ids=lambda cls: cls.name
)
def test_replace_under_load(cls):
    assert_invariants(run_under_load(cls))


def test_replace_windows_resolve_to_merged_traces(tmp_path):
    """Every timetable replace's recon_id resolves to a complete trace.

    With the recorder on, each id must name one merged span tree — a
    single ``reconfig.replace`` root, the transaction stages under it,
    no orphan spans — so an operator can go straight from a latency blip
    in a load run to the causal trace of the replace that caused it.
    On ``pipe_xproc`` the replaced stage's neighbours live in a worker
    and a daemon: the spans they record inside a replace must join its
    tree across the links.
    """
    from repro.runtime import telemetry
    from repro.tools import stats

    rec = telemetry.enable(capacity=16384)
    try:
        run = run_under_load(PipeXproc)
        path = tmp_path / "load-trace.jsonl"
        rec.export_jsonl(str(path))
    finally:
        telemetry.disable()
    assert_invariants(run)

    records = stats.load_records(str(path))
    remote = set()
    for record in run.records:
        recon = record.report.recon_id
        spans, _, _ = stats.split_records(records, recon=recon)
        roots = [s for s in spans if s.get("parent") is None]
        assert [s["name"] for s in roots] == ["reconfig.replace"], (
            f"{recon}: expected a single replace root, got {roots}"
        )
        sids = {s["sid"] for s in spans}
        orphans = [
            s["name"]
            for s in spans
            if s.get("parent") is not None and s["parent"] not in sids
        ]
        assert not orphans, f"{recon}: orphan spans {orphans}"
        names = {s["name"] for s in spans}
        assert {"stage.signal", "stage.rebind", "stage.commit"} <= names, (
            f"{recon}: stage spans missing from {sorted(names)}"
        )
        remote.update(s["host"] for s in spans if s.get("host"))
    assert remote, "no worker or daemon span joined any replace tree"
