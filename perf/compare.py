"""Hold two sets of runs (``perf/repeat.py`` outputs) against the bounds.

    python3 perf/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, how much worse
B is than A as a share of A's median (negative = better), the wider of
the two sets' own spreads, the bound from ``BENCHMARK.json`` and a
verdict, by one rule for every metric:

``unresolved``  either set's own run-to-run spread (interquartile
                distance / median) is wider than the bound, so the two
                medians cannot be told apart at that resolution;
``worse``       B's median is worse than A's by more than the bound;
``ok``          neither;
``missing``     one of the sets has no value for the pair.

Below them, per workload, the share of failed operations and the counts
of the platform flaws the workloads retry through (see README.md,
"Platform flaws"), which no bound applies to.

Exits non-zero on any ``worse`` or ``missing`` row and on any increase
of the failed share.  Refuses smoke outputs, sets that ran different
workloads and sets whose ``meta`` (cpus, python, seeds, measured
seconds, slot period) differ: such numbers were never comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

META_KEYS = ("cpus", "python", "seeds", "measured_seconds", "slot_period_s", "trace")

#: Tallies shown beside the failed share, summed over a set's runs.
COUNTS = ("route_retries", "write_retries", "slots_skipped")


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    if worsening(a["median"], b["median"], better) > bound:
        return "worse"
    return "ok"


def refuse(a: Dict, b: Dict) -> Optional[str]:
    for name, doc in (("A", a), ("B", b)):
        if "workloads" not in doc or "meta" not in doc:
            return f"{name} is not a perf/repeat.py output"
        if doc["meta"].get("smoke"):
            return f"{name} is a --smoke output; smoke numbers are never compared"
    for key in META_KEYS:
        if a["meta"].get(key) != b["meta"].get(key):
            return (
                f"meta.{key} differs: {a['meta'].get(key)!r} vs {b['meta'].get(key)!r}"
            )
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        return (
            f"the sets ran different workloads: {sorted(a['workloads'])} "
            f"vs {sorted(b['workloads'])}"
        )
    return None


def compare(a: Dict, b: Dict, spec: Dict) -> "tuple[List[List[str]], bool]":
    rows: List[List[str]] = []
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"]:
            continue  # neither set ran it: ``refuse`` saw to that
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma, mb = wa["metrics"].get(name), wb["metrics"].get(name)
            if ma is None or mb is None or "spread" not in ma or "spread" not in mb:
                failed = True
                rows.append([workload, name, "", "", "", "", f"{bound:.0%}", "missing"])
                continue
            result = verdict(ma, mb, metric["better"], bound)
            failed |= result == "worse"
            rows.append(
                [
                    workload,
                    name,
                    f"{ma['median']:.6g}",
                    f"{mb['median']:.6g}",
                    f"{worsening(ma['median'], mb['median'], metric['better']):+.1%}",
                    f"{max(ma['spread'], mb['spread']):.1%}",
                    f"{bound:.0%}",
                    result,
                ]
            )
        ta, tb = wa["tally"], wb["tally"]
        share_a = ta["failed"] / max(1, ta["attempted"])
        share_b = tb["failed"] / max(1, tb["attempted"])
        grew = share_b > share_a
        failed |= grew
        rows.append(
            [workload, "op_fail_frac", f"{share_a:.3g}", f"{share_b:.3g}", "", "", "0"]
            + ["worse" if grew else "ok"]
        )
        for count in COUNTS:
            rows.append([workload, count, str(ta[count]), str(tb[count]), "", "", "", "-"])
    return rows, failed


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write("usage: python3 perf/compare.py A.json B.json\n")
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
    reason = refuse(a, b)
    if reason:
        sys.stderr.write(f"perf/compare.py: refusing to compare: {reason}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, failed = compare(a, b, spec)
    header = ["workload", "metric", "A", "B", "B worse by", "spread", "bound", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
