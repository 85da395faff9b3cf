"""Render a telemetry event-log dump (``telemetry.export_jsonl``).

::

    python -m repro.tools.stats trace.jsonl            # table + counters
    python -m repro.tools.stats trace.jsonl --tree     # + span trees
    python -m repro.tools.stats trace.jsonl --recon rc-0001

Prints a per-stage latency breakdown (aggregated over span names), the
point events, and a Prometheus-style text exposition of the counter and
gauge snapshot the dump ends with.  ``--tree`` additionally renders each
reconfiguration's span tree with indentation, which is the fastest way
to see where the milliseconds of a ``replace()`` went.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import re
import sys
from typing import Any, Dict, List, Optional, Tuple

_METRIC_RE = re.compile(r"[^a-zA-Z0-9_]")


def load_records(path: str) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
    return records


def split_records(
    records: List[Dict[str, Any]], recon: Optional[str] = None
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], Dict[str, Any]]:
    """-> (spans, events, last counters record)."""
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    counters: Dict[str, Any] = {}
    for record in records:
        kind = record.get("type")
        if kind == "counters":
            counters = record
            continue
        if recon is not None and record.get("recon") != recon:
            continue
        if kind == "span":
            spans.append(record)
        elif kind == "event":
            events.append(record)
    return spans, events, counters


def latency_table(spans: List[Dict[str, Any]]) -> str:
    """Per-span-name latency breakdown, widest total first."""
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(float(span["ms"]))
    if not by_name:
        return "(no spans)"
    rows = sorted(
        ((name, ms) for name, ms in by_name.items()),
        key=lambda item: -sum(item[1]),
    )
    width = max(len("span"), max(len(name) for name in by_name))
    lines = [
        f"{'span':<{width}}  {'count':>5}  {'total_ms':>9}  "
        f"{'mean_ms':>8}  {'max_ms':>8}"
    ]
    for name, samples in rows:
        total = sum(samples)
        lines.append(
            f"{name:<{width}}  {len(samples):>5}  {total:>9.3f}  "
            f"{total / len(samples):>8.3f}  {max(samples):>8.3f}"
        )
    return "\n".join(lines)


def _span_order(span: Dict[str, Any]):
    """Sibling sort key: Lamport tick when stamped, else start time.

    Wall clocks across processes are not comparable, so a merged tree
    orders by the logical clock (``l0``, stamped at span open); spans
    from pre-Lamport dumps fall back to ``t0`` — within one dump the
    spans are uniformly one or the other, so the key stays consistent.
    """
    l0 = span.get("l0")
    return (0, l0, span.get("t0", 0.0)) if l0 is not None else (1, span.get("t0", 0.0), 0.0)


def render_tree(spans: List[Dict[str, Any]]) -> str:
    """Indented span trees (one per root), children in Lamport order.

    Cross-process spans (merged back from worker/daemon recorders) carry
    a ``host`` tag rendered as ``@host`` — the per-hop process
    annotation that shows where each piece of a replace actually ran.
    """
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    sids = {span["sid"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent not in sids:
            parent = None  # parent fell off the ring; promote to root
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=_span_order)

    lines: List[str] = []

    def walk(span: Dict[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        recon = span.get("recon")
        tag = f" [{recon}]" if depth == 0 and recon else ""
        host = span.get("host")
        where = f"{span['thread']}@{host}" if host else str(span["thread"])
        lines.append(
            f"{'  ' * depth}{span['name']}{tag}  {span['ms']:.3f}ms"
            f"  ({where}){('  ' + detail) if detail else ''}"
        )
        for child in children.get(span["sid"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines) if lines else "(no spans)"


def render_events(events: List[Dict[str, Any]]) -> str:
    lines: List[str] = []
    for record in events:
        attrs = record.get("attrs") or {}
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        recon = record.get("recon")
        lines.append(
            f"{record['kind']:<24} {recon or '-':<8} "
            f"({record['thread']}){('  ' + detail) if detail else ''}"
        )
    return "\n".join(lines) if lines else "(no events)"


def telemetry_meta_line(counters: Dict[str, Any]) -> str:
    """One comment line describing how the snapshot was recorded.

    Snapshots carry a ``telemetry`` block (ring capacity, live shard and
    source counts), so a dump says how big a window of records it kept.
    Returns "" for dumps from before the block existed.
    """
    meta = counters.get("telemetry")
    if not isinstance(meta, dict):
        return ""
    parts = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return f"# recorded with {parts}"


def render_health(health: Dict[str, Any]) -> str:
    """Host/module health tables from ``snapshot()["health"]``."""
    hosts = health.get("hosts") or {}
    modules = health.get("modules") or {}
    if not hosts:
        return "(no hosts under health monitoring)"
    width = max(len("host"), max(len(name) for name in hosts))
    lines = [
        f"{'host':<{width}}  {'status':<9}  {'beats':>6}  "
        f"{'age_s':>7}  {'interval_s':>10}"
    ]
    for name in sorted(hosts):
        info = hosts[name]
        age = info.get("age_s")
        mean = info.get("mean_interval_s")
        lines.append(
            f"{name:<{width}}  {info.get('status', '?'):<9}  "
            f"{info.get('beats', 0):>6}  "
            f"{(f'{age:.3f}' if age is not None else '-'):>7}  "
            f"{(f'{mean:.3f}' if mean is not None else '-'):>10}"
        )
    if modules:
        mwidth = max(len("module"), max(len(name) for name in modules))
        lines.append("")
        lines.append(
            f"{'module':<{mwidth}}  {'host':<{width}}  {'state':<10}  "
            f"{'queued':>6}  {'hwm':>5}  {'divulging':<9}"
        )
        for name in sorted(modules):
            info = modules[name]
            lines.append(
                f"{name:<{mwidth}}  {info.get('host', '?'):<{width}}  "
                f"{info.get('state', '?'):<10}  {info.get('queued', 0):>6}  "
                f"{info.get('queue_hwm', 0):>5}  "
                f"{str(bool(info.get('divulging'))).lower():<9}"
            )
    return "\n".join(lines)


def exposition_meta() -> Dict[str, Any]:
    """The ``benchmarks/_meta.py``-shaped environment block for exposition.

    Mirrors ``bench_meta()`` (schema/cpus/python/platform) without
    importing the benchmarks package — ``tools/stats`` ships inside the
    library, the benchmarks live at the repo root.
    """
    return {
        "schema": "repro-bench-meta/2",
        "cpus": os.cpu_count(),
        "python": _platform.python_version(),
        "platform": sys.platform,
    }


def stats_json(
    spans: List[Dict[str, Any]],
    events: List[Dict[str, Any]],
    counters: Dict[str, Any],
) -> Dict[str, Any]:
    """Machine-readable summary for CI artifact diffing (``--json``)."""
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(float(span["ms"]))
    latency = {
        name: {
            "count": len(samples),
            "total_ms": round(sum(samples), 6),
            "mean_ms": round(sum(samples) / len(samples), 6),
            "max_ms": round(max(samples), 6),
        }
        for name, samples in by_name.items()
    }
    recons = sorted(
        {r["recon"] for r in spans + events if r.get("recon")}
    )
    out: Dict[str, Any] = {
        "meta": exposition_meta(),
        "recons": recons,
        "span_count": len(spans),
        "event_count": len(events),
        "latency": latency,
        "counters": counters.get("counters", {}),
        "gauges": counters.get("gauges", {}),
    }
    if isinstance(counters.get("health"), dict):
        out["health"] = counters["health"]
    return out


def _metric_name(flat_key: str, suffix: str) -> str:
    """``bus.delivered{compute.inp}`` -> ``repro_bus_delivered_total{key="compute.inp"}``.

    ``bus.delivered`` keys are *receiving queue* names (the queues count
    their own puts); ``bus.routed`` keys are sending endpoints."""
    if "{" in flat_key:
        name, _, label = flat_key.partition("{")
        label = label.rstrip("}")
        return f"repro_{_METRIC_RE.sub('_', name)}{suffix}{{key=\"{label}\"}}"
    return f"repro_{_METRIC_RE.sub('_', flat_key)}{suffix}"


#: Status -> numeric value for the ``repro_health_host_status`` gauge.
_HEALTH_LEVELS = {"healthy": 0, "unknown": 1, "degraded": 2, "suspect": 3, "dead": 4}


def prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Prometheus text exposition of a ``FlightRecorder.snapshot()``.

    Leads with a ``repro_meta_info`` info-style metric (the
    ``benchmarks/_meta.py`` block as labels) so scraped numbers stay
    comparable across containers; health, when present in the snapshot,
    becomes per-host up/status gauges.
    """
    lines: List[str] = []
    meta = exposition_meta()
    labels = ",".join(
        f'{key}="{meta[key]}"' for key in sorted(meta) if meta[key] is not None
    )
    lines.append("# HELP repro_meta_info Recording environment (info-style; value is always 1).")
    lines.append("# TYPE repro_meta_info gauge")
    lines.append(f"repro_meta_info{{{labels}}} 1")
    for flat_key, value in snapshot.get("counters", {}).items():
        lines.append(f"{_metric_name(flat_key, '_total')} {value}")
    for flat_key, value in snapshot.get("gauges", {}).items():
        lines.append(f"{_metric_name(flat_key, '')} {value}")
    health = snapshot.get("health")
    if isinstance(health, dict) and health.get("hosts"):
        lines.append("# HELP repro_health_host_up 1 when the host's status is healthy.")
        lines.append("# TYPE repro_health_host_up gauge")
        hosts = health["hosts"]
        for name in sorted(hosts):
            status = str(hosts[name].get("status", "unknown"))
            up = 1 if status == "healthy" else 0
            lines.append(f'repro_health_host_up{{host="{name}"}} {up}')
        lines.append(
            "# HELP repro_health_host_status 0=healthy 1=unknown 2=degraded 3=suspect 4=dead."
        )
        lines.append("# TYPE repro_health_host_status gauge")
        for name in sorted(hosts):
            status = str(hosts[name].get("status", "unknown"))
            level = _HEALTH_LEVELS.get(status, 1)
            lines.append(f'repro_health_host_status{{host="{name}"}} {level}')
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.stats",
        description="Per-stage latency table + Prometheus-style counters "
        "from a telemetry JSON-lines dump.",
    )
    parser.add_argument("trace", help="path to a telemetry .jsonl dump")
    parser.add_argument(
        "--recon", help="only spans/events of this reconfiguration id"
    )
    parser.add_argument(
        "--tree", action="store_true", help="also render the span tree(s)"
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="also render host/module health tables from the snapshot",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of tables",
    )
    args = parser.parse_args(argv)

    try:
        records = load_records(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spans, events, counters = split_records(records, recon=args.recon)
    if args.json:
        print(json.dumps(stats_json(spans, events, counters), sort_keys=True))
        return 0
    print(f"# span latency breakdown ({args.trace})")
    print(latency_table(spans))
    if args.tree:
        print()
        print("# span tree")
        print(render_tree(spans))
    if args.health:
        print()
        print("# health")
        health = counters.get("health")
        if isinstance(health, dict):
            print(render_health(health))
        else:
            print("(dump carries no health snapshot; was bus.enable_health() on?)")
    print()
    print("# events")
    print(render_events(events))
    print()
    print("# counters")
    meta = telemetry_meta_line(counters)
    if meta:
        print(meta)
    print(prometheus_text(counters))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
