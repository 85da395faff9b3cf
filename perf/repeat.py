"""Run the benchmark several times per workload and summarise the spread.

    python3 perf/repeat.py --runs 10 --out A.json

Each run is a fresh ``perf/run.py`` process with its own ``--seed``
(``--seed0``, ``--seed0 + 1``, ...), workloads interleaved so slow drift
of the machine lands on all of them alike.  For every (workload, metric)
the output holds the values, their median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the *spread* —
interquartile distance as a share of the median — which is what
``perf/compare.py`` holds against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Summed over a workload's runs; ``perf/compare.py`` shows them per set.
TALLIED = (
    "attempted",
    "failed",
    "incorrect_runs",
    "route_retries",
    "write_retries",
    "slots_skipped",
)


def summarise(values: List[float]) -> Dict[str, object]:
    median = statistics.median(values)
    summary: Dict[str, object] = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return summary


def run_once(spec: Dict, workload: str, seed: int, seconds: int, trace: int) -> Dict:
    command = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["meta"] = next(
        json.loads(line[5:]) for line in lines if line.startswith("meta ")
    )
    # Sample counts, failures by kind, retries and skipped slots.
    result["counts"] = next(
        json.loads(line.split(" counts ", 1)[1])
        for line in lines
        if line.startswith(f"{workload} counts ")
    )
    result["flags"] = [line for line in lines if " FLAG " in line]
    return result


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1993)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    seconds = spec["run_seconds"]

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    tallies = {w: dict.fromkeys(TALLIED, 0) for w in workloads}
    # Per run, what explains an outlier: its counts and its FLAG lines.
    notes: Dict[str, List[Dict]] = {w: [] for w in workloads}
    meta: Dict[str, object] = {}
    started = time.monotonic()
    for i in range(args.runs):
        for workload in workloads:
            result = run_once(spec, workload, args.seed0 + i, seconds, args.trace)
            meta = result["meta"]
            counts = result["counts"]
            tally = tallies[workload]
            tally["attempted"] += result["attempted"]
            tally["failed"] += result["failed"]
            tally["incorrect_runs"] += not result["correct"]
            for name in ("route_retries", "write_retries", "slots_skipped"):
                tally[name] += counts[name]
            notes[workload].append({"counts": counts, "flags": result["flags"]})
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(
                f"run {i + 1}/{args.runs} {workload}: correct={result['correct']} "
                f"failed={result['failed']} ({time.monotonic() - started:.0f}s)",
                flush=True,
            )
    meta.pop("seed", None)
    meta.update(seeds=[args.seed0 + i for i in range(args.runs)], trace=args.trace)
    out = {
        "meta": meta,
        "workloads": {
            w: {
                "tally": tallies[w],
                "notes": notes[w],
                "metrics": {name: summarise(v) for name, v in values[w].items()},
            }
            for w in workloads
        },
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for w in workloads:
        for name, summary in out["workloads"][w]["metrics"].items():
            print(
                f"{w} {name} median={summary['median']:.6g} "
                f"spread={summary.get('spread', float('nan')):.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
