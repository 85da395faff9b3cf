"""One benchmark run: one workload, replaced under load, measured.

    python3 perf/run.py --workload kv_inproc --seed 1993 --seconds 25 --trace 0

``--trace 0`` is the end-to-end run (telemetry off): set the workload up
several times, warm up, measure ``--seconds`` of traffic while the target
module is moved between machines on a fixed timetable, drain, verify.
Its times are published as a host of the reference speed would have
measured them (``REFERENCE_UNIT_S``).  ``--trace 1`` is the per-layer
run: the same workload for ten seconds less, the second half of it
traced (the program's own flight recorder plus this benchmark's spans),
followed by ten seconds of layer probes; its times are as measured.

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  See ``perf/README.md`` for what each metric
means and which layer should move it.

The command is a supervisor: it starts the run proper as a process in a
session of its own (this file again, ``INNER_ENV`` set) and returns only
when no process of that session is left, see ``perf.hygiene.supervise``.

This file is run as a script, so spawned pool workers re-import it as
``__mp_main__``: everything with side effects stays under ``main()``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Traffic before the measured interval; its samples are discarded.
WARMUP_S = 1.0
#: One replace slot per period.  With the 25 s of ``BENCHMARK.json`` that
#: is 106 slots: p90 over replaces keeps ten samples beyond it.
SLOT_PERIOD_S = 0.235
#: A traced run spends this much of ``--seconds`` on the layer probes
#: (they take about that long) and the rest on the traced workload, so
#: both kinds of run last about as long.
PROBE_BUDGET_S = 10.0
#: What ``perf.loadgen.host_unit_s`` measured on the host the baseline
#: was taken on, in a quiet minute.  An end-to-end run takes the same
#: yardstick beside every time it measures and publishes the time scaled
#: by ``REFERENCE_UNIT_S / yardstick``: what this host, at that speed,
#: would have measured.  See README.md, "Host speed".
REFERENCE_UNIT_S = 0.0003
#: The run must end by then, hang or no hang ...
WATCHDOG_S = 120.0
#: ... and the supervisor ends whatever is left of it by then.
SUPERVISOR_S = WATCHDOG_S + 30.0
#: Set in the environment of the run proper by the supervisor.
INNER_ENV = "PERF_RUN_SUPERVISED"
#: Open-loop runs are flagged when the sender ran later than this (p99).
MAX_SEND_LAG_MS = 1.0

#: The traffic statistics that repeat from run to run and are therefore
#: published end to end: medians, which a slow phase of the host moves
#: little.  ``perf/layers.py`` publishes the tails and the rest per layer.
END_TO_END_TRAFFIC = (
    "ops_per_s",
    "steady_p50_ms",
    "replace_total_p50_ms",
    "stall_p50_ms",
)

SMOKE_SECONDS = 3.0
SMOKE_REPLACES = 8


def bootstrap() -> None:
    """Make the program under test importable here and in its children.

    The benchmark measures the ``src/`` tree of *this* checkout and must
    fail without it — never fall back to some installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no program to measure: {src}/repro is missing")
    for entry in (str(ROOT), str(src)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    # TCP daemons are started with ``python -m repro.bus.tcp``.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + inherited if inherited else "")
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        sys.exit(f"perf/run.py: imported repro from {repro.__file__}, not {src}")


def arm_watchdog(seconds: float) -> threading.Timer:
    def trip() -> None:
        sys.stderr.write(f"perf/run.py: watchdog tripped after {seconds:.0f}s\n")
        sys.stderr.flush()
        from perf import hygiene

        hygiene.kill_children()
        os._exit(3)

    timer = threading.Timer(seconds, trip)
    timer.daemon = True
    timer.start()
    return timer


# -- one measured run ----------------------------------------------------------


def set_up(cls, seed: int, build_id: int):
    """Build a workload up to its first completed operation.

    Returns ``(workload, seconds, host_unit, ok)``, the host unit taken
    just before and just after; the caller owns ``close()``.
    """
    from perf.loadgen import host_unit_s

    unit = host_unit_s()
    t0 = time.perf_counter()
    workload = cls(seed, build_id)
    try:
        workload.build()
        ok = workload.first_operation()
    except BaseException:
        workload.close()
        raise
    took = time.perf_counter() - t0
    return workload, took, (unit + host_unit_s()) / 2, ok


def measure(cls, seed: int, seconds: float, period: float, traced: bool) -> Dict:
    """Run one workload; returns the raw material for the metrics."""
    from repro.runtime import telemetry

    from perf import hygiene
    from perf.loadgen import (
        ClosedLoop,
        OpenLoop,
        host_unit_s,
        run_timetable,
        slot_times,
    )

    if telemetry.enabled():
        raise RuntimeError("telemetry must be off when a run starts")
    setups: List["tuple[float, float]"] = []  # (seconds, host unit beside it)
    setup_failed = 0
    # The traced run publishes no set-up time, so it sets up once.
    n_setups = 1 if traced else cls.setups
    for i in range(n_setups):
        workload, took, unit, ok = set_up(cls, seed, i)
        setups.append((took, unit))
        setup_failed += not ok
        if i < n_setups - 1:
            workload.close()
    raw: Dict = {
        "workload": workload,
        "setups": setups,
        "setup_failed": setup_failed,
        "host_units": [],
        "t_traced": None,
        "recorder": None,
    }
    try:
        workload.warm()
        if workload.loop == "closed":
            generator = ClosedLoop(workload.sessions)
        else:
            generator = OpenLoop(workload.sessions[0], workload.rate)
        generator.start()
        time.sleep(WARMUP_S)
        t0 = time.monotonic()
        slots = slot_times(t0, seconds, period, random.Random(seed))

        def on_slot(slot: float) -> None:
            raw["host_units"].append(host_unit_s())
            # Second half of a traced run: switch the program's recorder
            # on between two replaces, and the benchmark's own spans.
            if traced and raw["recorder"] is None and slot >= t0 + seconds / 2:
                raw["recorder"] = telemetry.enable(capacity=1 << 17, sample=1)
                raw["t_traced"] = time.monotonic()
                for session in workload.sessions:
                    session.spans = []

        records, skipped = run_timetable(workload.bus, workload.target, slots, on_slot)
        time.sleep(max(0.0, t0 + seconds - time.monotonic()))
        t1 = time.monotonic()
        generator.finish(timeout=30.0)
        raw.update(
            t0=t0,
            t1=t1,
            # Before the samples are unpacked into tuples: the peak should
            # be the program's, not this benchmark's bookkeeping.
            peak_rss_mb=hygiene.peak_rss_mb(),
            samples=generator.samples(),
            send_lags=generator.send_lags,
            crashes=[repr(c) for c in generator.crashes],
            records=records,
            skipped=skipped,
            failures=workload.verify(),
            attempted=workload.attempted(),
            # The two platform flaws the workloads retry through, see
            # README.md.  Statics travel with the state, so the target's
            # count spans every clone of the run.
            route_retries=sum(getattr(s, "route_retries", 0) for s in workload.sessions),
            write_retries=int(
                workload.bus.statics_of(workload.target).get("write_retries", 0)
            ),
        )
        if raw["recorder"] is not None:
            raw["program_spans"] = raw["recorder"].spans()
    finally:
        telemetry.disable()
        workload.close()
    return raw


def host_speed(raw: Dict) -> float:
    """This host's speed over the measured interval, reference host = 1.

    From the mean of the yardsticks, not their median: a slow second
    costs a run the operations it did not complete, however typical the
    other seconds were.
    """
    return REFERENCE_UNIT_S / fmean(raw["host_units"])


def end_to_end_metrics(raw: Dict, flags: List[str]) -> Dict[str, Dict]:
    """The end-to-end metrics, at the reference host's speed."""
    from perf.layers import traffic_metrics

    speed = host_speed(raw)
    out = {
        "setup_s": (
            median(took * REFERENCE_UNIT_S / unit for took, unit in raw["setups"]),
            "s",
        )
    }
    traffic = traffic_metrics(raw, raw["t0"], raw["t1"], END_TO_END_TRAFFIC, flags)
    for name, (value, unit) in traffic.items():
        if unit == "ms":
            value *= speed
        elif raw["workload"].loop == "closed":
            # Capacity moves with the host.  An open loop completes what
            # its schedule offers, whatever the host's speed: as measured.
            value /= speed
        out[name] = (value, unit)
    out["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def tally(raw: Dict) -> "tuple[int, int]":
    """(attempted, failed): operations plus replaces, set-ups included."""
    failed_replaces = sum(1 for r in raw["records"] if not r.committed)
    attempted = raw["attempted"] + len(raw["records"])
    failed = sum(raw["failures"].values()) + failed_replaces + raw["setup_failed"]
    return max(1, attempted), failed


def unpublishable(raw: Dict, metrics: Dict[str, Dict], traced: bool) -> List[str]:
    """Why this run's numbers must not be published; empty when they may."""
    reasons = [f"generator thread died: {crash}" for crash in raw["crashes"]]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in contract["per_layer" if traced else "end_to_end"]}
    if set(metrics) != declared:
        reasons.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}"
        )
    # NaN: nothing was measured (and NaN is not JSON).
    unmeasured = [name for name, m in metrics.items() if m["value"] != m["value"]]
    if unmeasured:
        reasons.append(f"no value for {unmeasured}")
    return reasons


def build_meta(args, seconds: float, period: float, affinity: str) -> Dict:
    from repro.bus.batch import batch_settings

    from perf import hygiene

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "seed": args.seed,
        "measured_seconds": seconds,
        "slot_period_s": period,
        "warmup_s": WARMUP_S,
        "git_sha": hygiene.git_sha(ROOT),
        "batch": batch_settings(),
        "telemetry": "second half of the run, sample=1" if args.trace else "off",
        "times": "as measured" if args.trace else "at the reference host speed",
        "reference_unit_ms": REFERENCE_UNIT_S * 1e3,
        "generator_threads": 2,
        "affinity": affinity,
        "smoke": bool(args.smoke),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"{SMOKE_SECONDS:g} s and {SMOKE_REPLACES} replaces, to check the "
        "wiring; the output is stamped and never compared",
    )
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument(
        "--trace-out", help="with --trace 1: write every span as JSON lines here"
    )
    args = parser.parse_args(argv)

    if not os.environ.get(INNER_ENV):
        sys.path.insert(0, str(ROOT))
        from perf.hygiene import supervise

        command = [sys.executable, str(Path(__file__).resolve())]
        command += sys.argv[1:] if argv is None else argv
        return supervise(command, dict(os.environ, **{INNER_ENV: "1"}), SUPERVISOR_S)
    bootstrap()
    watchdog = arm_watchdog(WATCHDOG_S)
    from perf import hygiene, layers
    from perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    affinity = hygiene.pin_to_one_cpu()
    seconds, period = args.seconds, SLOT_PERIOD_S
    if args.trace:
        seconds = max(SMOKE_SECONDS, seconds - PROBE_BUDGET_S)
    if args.smoke:
        seconds, period = SMOKE_SECONDS, SMOKE_SECONDS / SMOKE_REPLACES
    if seconds < period:
        parser.error(f"--seconds {args.seconds:g} leaves no replace slot ({period} s each)")
    flags: List[str] = []
    try:
        raw = measure(
            WORKLOADS[args.workload], args.seed, seconds, period, bool(args.trace)
        )
        attempted, failed = tally(raw)
        flags.extend(
            f"replace {r.index} failed: {r.error}" for r in raw["records"] if r.error
        )
        if args.trace:
            metrics = layers.per_layer_metrics(raw, flags, args.trace_out)
        else:
            metrics = end_to_end_metrics(raw, flags)
        lag = layers.send_lag_p99_ms(raw)
        if lag > MAX_SEND_LAG_MS:
            flags.append(
                f"gen.send_lag_p99_ms = {lag:.3f} > {MAX_SEND_LAG_MS}: "
                "the numbers measure the generator's scheduler"
            )
    finally:
        leftover = hygiene.reap_children(timeout=5.0)
        watchdog.cancel()
    broken = unpublishable(raw, metrics, bool(args.trace))
    if leftover:
        broken.append(f"child processes outlived the run and were killed: {leftover}")

    meta = build_meta(args, seconds, period, affinity)
    print("meta " + json.dumps(meta, sort_keys=True))
    counts = {
        "n": raw.get("n", {}),
        "failures": raw["failures"],
        "slots_skipped": raw["skipped"],
        "route_retries": raw["route_retries"],
        "write_retries": raw["write_retries"],
        "host_unit_ms": fmean(raw["host_units"]) * 1e3,
    }
    print(f"{args.workload} counts " + json.dumps(counts, sort_keys=True))
    for flag in flags:
        print(f"{args.workload} FLAG {flag}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    if broken:
        for reason in broken:
            print(f"{args.workload} BROKEN {reason}")
        return 1  # a broken run prints no result
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        full = dict(result, workload=args.workload, meta=meta, flags=flags, **counts)
        full["replaces"] = [layers.replace_row(r, raw["t0"]) for r in raw["records"]]
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
