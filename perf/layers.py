"""Per-layer metrics of one traced run, measured from outside the program.

Three sources, none of them an edit to ``src/``:

* the public ``ReconfigurationReport`` timestamps of every replace in
  the *untraced* first half of the run (``reconfig.*``, ``state.*``,
  ``bus.*_per_replace``);
* the program's own flight recorder, switched on for the second half
  (``trace.stage.*`` / ``trace.mh.*`` self times per ``recon_id``), next
  to this benchmark's own spans around ``replace()``, ``route`` /
  ``route_to`` and the reply ``get`` (``trace.gen.*``);
* the isolated probes of ``perf/probes.py``.

The two halves of one run also give the cost of tracing itself:
``runtime.telemetry.traced_overhead_pct``.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import fmean, median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perf import probes
from perf.metrics import (
    per_replace_stalls,
    percentile,
    pick_percentile,
    self_times,
    split_windows,
    steady_send_lags,
)

STAGES = (
    "clone_build",
    "signal",
    "wait_point",
    "rebind",
    "start_clone",
    "health_check",
    "commit",
)
MH_PHASES = ("capture", "encode", "decode", "restore")

#: Traffic statistics that do not repeat from run to run on a shared
#: host — tails, and whatever had an interquartile spread above 0.25 over
#: ten runs on some workload (see the calibration in README.md) — and
#: are therefore not end-to-end metrics.  They are published here, from
#: the untraced half of the traced run.  That half is too short for ten
#: samples beyond a p90 over replaces, so those carry a ``FLAG`` line.
UNSTEADY_TRAFFIC = (
    "steady_p99_ms",
    "during_p50_ms",
    "during_p90_ms",
    "replace_total_p90_ms",
    "replace_overhead_p50_ms",
    "stall_p90_ms",
)

Metric = Tuple[float, str]


def traffic_metrics(
    raw: Dict, t_from: float, t_to: float, names: Sequence[str], flags: List[str]
) -> Dict[str, Metric]:
    """What traffic saw in ``[t_from, t_to]``: the statistics in ``names``.

    Operations count when sent and completed inside the window, replaces
    when they returned inside it.  ``raw["n"]`` keeps the sample counts
    behind the percentiles.
    """
    measured = [s for s in raw["samples"] if t_from <= s[1] and s[2] <= t_to]
    records = [r for r in raw["records"] if t_from <= r.t_call and r.t_return <= t_to]
    committed = [r for r in records if r.committed]
    intervals = [(r.t_call, r.t_return) for r in records]
    steady, during = split_windows(measured, intervals)
    raw["n"] = {"steady": len(steady), "during": len(during), "replaces": len(committed)}
    series = {
        "steady": steady,
        "during": during,
        "stall": per_replace_stalls(measured, intervals, t_from),
        "replace_total": [r.report.total_time for r in committed],
        "replace_overhead": [
            r.report.total_time - r.report.delay_to_point for r in committed
        ],
    }
    out: Dict[str, Metric] = {}
    for name in names:
        if name == "ops_per_s":
            out[name] = (len(measured) / (t_to - t_from), "1/s")
            continue
        kind, _, tail = name.rpartition("_p")  # "<series>_p<percentile>_ms"
        values, p = series[kind], float(tail[: -len("_ms")])
        if not values:
            flags.append(f"{name}: no samples")
            out[name] = (float("nan"), "ms")
            continue
        supported = pick_percentile(len(values))  # not None: there are samples
        if supported < p:
            flags.append(
                f"{name}: n={len(values)} leaves <10 samples beyond p{p:g}, "
                f"enough for p{supported:g}"
            )
        out[name] = (percentile(values, p) * 1e3, "ms")
    return out


def send_lag_p99_ms(raw: Dict) -> float:
    """How late the open-loop sender ran (p99), outside replace intervals.

    A send that is late *during* a replace was held up by the program —
    the sender shares the interpreter and the bus lock with the
    coordinator — and that delay is already charged to the operation's
    latency.  Lateness while nothing is being replaced is the
    generator's own, and is what makes a run's numbers suspect.
    """
    intervals = [(r.t_call, r.t_return) for r in raw["records"]]
    steady = steady_send_lags(raw["send_lags"], intervals)
    return percentile(steady, 99) * 1000.0 if steady else 0.0


def replace_row(record, t0: float) -> Dict[str, object]:
    row: Dict[str, object] = {
        "index": record.index,
        "move": record.move,
        "offset_ms": (record.t_call - t0) * 1e3,
        "wall_ms": (record.t_return - record.t_call) * 1e3,
        "error": record.error,
    }
    report = record.report
    if report is not None:
        row.update(
            recon_id=report.recon_id,
            total_ms=report.total_time * 1e3,
            delay_to_point_ms=report.delay_to_point * 1e3,
            packet_bytes=report.packet_bytes,
            stack_depth=report.stack_depth,
            queued_copied=dict(report.queued_copied),
            retries=report.retries,
        )
    return row


def _p50_ms(values: Iterable[float]) -> float:
    values = list(values)
    return median(values) * 1e3 if values else float("nan")


def report_metrics(raw: Dict, records: List) -> Dict[str, Metric]:
    """``reconfig.*`` and friends from the public report timestamps."""
    reports = [(r, r.report) for r in records if r.committed]
    n = max(1, len(reports))
    stalls = per_replace_stalls(
        raw["samples"], [(r.t_call, r.t_return) for r in raw["records"]], raw["t0"]
    )
    committed_in_run = max(1, sum(1 for r in raw["records"] if r.committed))
    return {
        "reconfig.pre_signal_p50_ms": (
            _p50_ms(rep.t_signal - r.t_call for r, rep in reports),
            "ms",
        ),
        "reconfig.wait_point_p50_ms": (
            _p50_ms(rep.t_divulged - rep.t_signal for _, rep in reports),
            "ms",
        ),
        "reconfig.rebind_p50_ms": (
            _p50_ms(rep.t_rebound - rep.t_divulged for _, rep in reports),
            "ms",
        ),
        "reconfig.start_p50_ms": (
            _p50_ms(rep.t_started - rep.t_rebound for _, rep in reports),
            "ms",
        ),
        "reconfig.finish_p50_ms": (
            _p50_ms(rep.t_done - rep.t_started for _, rep in reports),
            "ms",
        ),
        "reconfig.post_commit_p50_ms": (
            _p50_ms(r.t_return - rep.t_done for r, rep in reports),
            "ms",
        ),
        "reconfig.retries_per_replace": (
            sum(rep.retries for _, rep in reports) / n,
            "count",
        ),
        "reconfig.slots_skipped": (float(raw["skipped"]), "count"),
        "reconfig.max_stall_ms": (max(stalls, default=0.0) * 1e3, "ms"),
        "state.packet_bytes": (
            median([rep.packet_bytes for _, rep in reports] or [0]),
            "B",
        ),
        # Both over the whole run: the counters are not split by half.
        "bus.rename_retries_per_replace": (
            raw["route_retries"] / committed_in_run,
            "count",
        ),
        "bus.rename_write_retries_per_replace": (
            raw["write_retries"] / committed_in_run,
            "count",
        ),
        "bus.blocked_msgs_per_replace": (
            sum(sum(rep.queued_copied.values()) for _, rep in reports) / n,
            "count",
        ),
    }


def trace_metrics(raw: Dict, traced: List, flags: List[str]) -> Dict[str, Metric]:
    """Self time per coordinator stage and MH phase, p50 over replaces."""
    by_recon: Dict[str, List[Dict]] = {}
    for span in raw.get("program_spans", ()):
        if span.get("recon"):
            by_recon.setdefault(span["recon"], []).append(span)
    per_name: Dict[str, List[float]] = {}
    stage_sums: List[float] = []
    totals: List[float] = []
    for record in traced:
        spans = by_recon.get(record.report.recon_id, [])
        own = self_times(spans)
        sums: Dict[str, float] = {}
        for span in spans:
            sums[span["name"]] = sums.get(span["name"], 0.0) + own[span["sid"]]
        if "reconfig.replace" not in sums:
            continue  # the replace straddled the switch-on: no complete tree
        for name, value in sums.items():
            per_name.setdefault(name, []).append(value)
        stage_sums.append(sum(sums.get(f"stage.{stage}", 0.0) for stage in STAGES))
        totals.append(record.report.total_time)
    out: Dict[str, Metric] = {}
    for stage in STAGES:
        out[f"trace.stage.{stage}_self_ms"] = (
            _p50_ms(per_name.get(f"stage.{stage}", [])),
            "ms",
        )
    for phase in MH_PHASES:
        out[f"trace.mh.{phase}_self_ms"] = (
            _p50_ms(per_name.get(f"mh.{phase}", [])),
            "ms",
        )
    # The root span's own self time: what no stage span covers.
    out["trace.replace.unattributed_self_ms"] = (
        _p50_ms(per_name.get("reconfig.replace", [])),
        "ms",
    )
    out["trace.stage_sum_p50_ms"] = (_p50_ms(stage_sums), "ms")
    out["trace.replace_total_p50_ms"] = (_p50_ms(totals), "ms")
    out["trace.replaces_traced"] = (float(len(totals)), "count")
    stage_sum = out["trace.stage_sum_p50_ms"][0]
    total = out["trace.replace_total_p50_ms"][0]
    if not abs(stage_sum - total) <= 0.1 * total:
        flags.append(
            f"stage self times sum to {stage_sum:.3f} ms (p50 over replaces) but "
            f"replace total p50 is {total:.3f} ms: more than 10% is in no stage span"
        )
    return out


def generator_spans(raw: Dict) -> List[Dict[str, object]]:
    """This benchmark's own spans of the traced half, as span records."""
    spans: List[Dict[str, object]] = [
        {"name": f"gen.{name}", "t0": t0, "t1": t1}
        for session in raw["workload"].sessions
        for name, t0, t1 in session.spans or ()
    ]
    for record in raw["records"]:
        spans.append(
            {
                "name": "gen.replace",
                "t0": record.t_call,
                "t1": record.t_return,
                "recon": record.report.recon_id if record.report else None,
            }
        )
    return spans


def overhead_pct(raw: Dict, t_traced_from: float) -> float:
    """Traced half against untraced half of the same run, in percent.

    Closed loops compare capacity (``ops_per_s``), open loops the steady
    median latency; positive means tracing cost something.
    """
    t0, t1, t_off = raw["t0"], raw["t1"], raw["t_traced"]
    intervals = [(r.t_call, r.t_return) for r in raw["records"]]
    before = [s for s in raw["samples"] if t0 <= s[1] and s[2] <= t_off]
    after = [s for s in raw["samples"] if t_traced_from <= s[1] and s[2] <= t1]
    if not before or not after:
        return float("nan")
    if raw["workload"].loop == "closed":
        rate_off = len(before) / (t_off - t0)
        rate_on = len(after) / (t1 - t_traced_from)
        return (1.0 - rate_on / rate_off) * 100.0
    steady_off = median(split_windows(before, intervals)[0])
    steady_on = median(split_windows(after, intervals)[0])
    return (steady_on / steady_off - 1.0) * 100.0


def per_layer_metrics(
    raw: Dict, flags: List[str], trace_out: Optional[str]
) -> Dict[str, Dict[str, object]]:
    t_off = raw["t_traced"]
    untraced = [r for r in raw["records"] if r.t_return <= t_off]
    traced = [r for r in raw["records"] if r.committed and r.t_call >= t_off]
    # The routing table is instrumented at its first rebuild after the
    # switch-on, which the first traced replace forces.
    traced_from = traced[0].t_return if traced else raw["t1"]

    out: Dict[str, Metric] = {}
    out.update(traffic_metrics(raw, raw["t0"], t_off, UNSTEADY_TRAFFIC, flags))
    out.update(report_metrics(raw, untraced))
    out["gen.send_lag_p99_ms"] = (send_lag_p99_ms(raw), "ms")
    out["gen.host_unit_ms"] = (fmean(raw["host_units"]) * 1e3, "ms")
    out["bus.launch_ms"] = (raw["workload"].launch_s * 1e3, "ms")
    out.update(trace_metrics(raw, traced, flags))
    mine = generator_spans(raw)
    for name in ("route", "reply_get"):
        durations = [s["t1"] - s["t0"] for s in mine if s["name"] == f"gen.{name}"]
        out[f"trace.gen.{name}_p50_us"] = (_p50_ms(durations) * 1e3, "us")
    out["runtime.telemetry.traced_overhead_pct"] = (
        overhead_pct(raw, traced_from),
        "%",
    )
    out.update(probes.run_all(flags))
    if trace_out:
        with Path(trace_out).open("w", encoding="utf-8") as handle:
            for span in list(raw.get("program_spans", ())) + mine:
                handle.write(json.dumps(span, default=repr) + "\n")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
