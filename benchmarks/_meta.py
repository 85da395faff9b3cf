"""Shared metadata block for ``BENCH_*.json`` writers.

Every benchmark payload carries the same ``meta`` block so numbers from
different containers and different PRs stay comparable — a throughput
figure without its cpu count, or a load run without its seed, cannot be
trended.  The schema tag versions the block itself so downstream tooling
(``tools/stats``-style consumers, CI artifact diffing) can detect shape
changes instead of guessing.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional

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
