"""Shared metadata block for ``BENCH_*.json`` writers.

Every benchmark payload carries the same ``meta`` block so numbers from
different containers and different PRs stay comparable — a throughput
figure without its cpu count, or a load run without its seed, cannot be
trended.  The schema tag versions the block itself so downstream tooling
(``tools/stats``-style consumers, CI artifact diffing) can detect shape
changes instead of guessing.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from typing import Dict, List, Optional

#: Bump when the meta block's shape changes.
META_SCHEMA = "repro-bench-meta/2"


def bench_meta(
    seed: Optional[int] = None,
    batch: Optional[Dict[str, object]] = None,
    **extra: object,
) -> Dict[str, object]:
    """The consistent ``{schema, cpus, seed, batch, ...}`` block.

    ``seed`` is the workload RNG seed (None for benchmarks without
    randomness); ``batch`` is the link-coalescing settings in effect
    (pass ``repro.bus.batch.batch_settings()`` for benchmarks that cross a
    transport — flush caps and the backpressure watermark change those
    numbers as much as cpu count does).  Extra keyword pairs pass
    straight through for benchmark-specific context.
    """
    meta: Dict[str, object] = {
        "schema": META_SCHEMA,
        "cpus": os.cpu_count(),
        "seed": seed,
        "python": platform.python_version(),
        "platform": sys.platform,
    }
    if batch is not None:
        meta["batch"] = batch
    meta.update(extra)
    return meta


def bench_args(argv: List[str], doc: Optional[str], out: str) -> argparse.Namespace:
    """Read a benchmark script's command line: ``--quick`` and ``--out``.

    ``doc`` is the script's docstring (its first line is the help text)
    and ``out`` the committed file it writes by default.  ``--help``
    exits 0 and an unknown flag exits 2, both before any work, so
    neither runs the benchmark nor overwrites that file.
    """
    parser = argparse.ArgumentParser(description=(doc or "").partition("\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help="shorter windows (what CI runs)"
    )
    parser.add_argument(
        "--out", default=out, help=f"where the JSON payload goes (default {out})"
    )
    return parser.parse_args(argv)
