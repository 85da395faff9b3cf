"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure or evaluation claim of the paper
(see DESIGN.md section 4 and EXPERIMENTS.md).  Run with::

    pytest benchmarks/ --benchmark-only

Benchmarks print a short "paper vs measured" line so EXPERIMENTS.md can
be cross-checked against a live run.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import pytest

sys.path.insert(0, ".")  # allow `from tests... import` helpers when run from repo root


def report(experiment: str, claim: str, measured: str) -> None:
    """Emit a paper-vs-measured line into the captured output."""
    print(f"\n[{experiment}] paper: {claim}")
    print(f"[{experiment}] measured: {measured}")


def median_ratio(slow, fast, rounds: int = 15, best_of: int = 5) -> float:
    """``slow``'s time over ``fast``'s: the median over ``rounds`` rounds,
    each the best of ``best_of`` runs of both, interleaved so that a
    change in the machine's speed hits both sides of a round."""
    ratios = []
    for _ in range(rounds):
        best = [float("inf"), float("inf")]
        for _ in range(best_of):
            for side, fn in enumerate((slow, fast)):
                start = time.perf_counter()
                fn()
                best[side] = min(best[side], time.perf_counter() - start)
        ratios.append(best[0] / best[1])
    return statistics.median(ratios)


class DirectPort:
    """Minimal port for driving transformed modules without a bus."""

    def __init__(self, mh, queues: Dict[str, List[object]]):
        self.mh = mh
        self.queues = {k: list(v) for k, v in queues.items()}
        self.out: List[Tuple[str, List[object]]] = []
        self.reads = 0
        self.reconfig_after_reads: Optional[int] = None
        self.stop_after_writes: Optional[int] = None

    def read(self, interface, timeout, stop_event):
        value = self.queues[interface].pop(0)
        self.reads += 1
        if self.reconfig_after_reads is not None and self.reads == self.reconfig_after_reads:
            self.mh.request_reconfig()
        return [value]

    def write(self, interface, fmt, values):
        self.out.append((interface, list(values)))
        if self.stop_after_writes is not None and len(self.out) >= self.stop_after_writes:
            self.mh.stop()

    def query_ifmsgs(self, interface):
        return bool(self.queues.get(interface))


@pytest.fixture
def direct_port_factory():
    return DirectPort
