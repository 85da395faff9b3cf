"""A4 (bus fast path) — message throughput of the software bus.

POLYLITH's bus is the substrate every experiment rides on: it provides
"basic operations for sending and receiving messages", and every
application, example, and reconfiguration script goes through
``SoftwareBus.route``.  The paper's design principle is that
reconfiguration support should cost only "a flag test" at run time —
so the *message* hot path must not pay for reconfigurability either.
This benchmark measures delivered messages/second through ``route`` for
the configurations that stress the routing table:

- ``1to1``          one binding, same host (the latency floor);
- ``fanout32``      one sender endpoint bound to 32 receivers;
- ``bindings128``   the measured pair plus 128 unrelated bindings
                    (an O(bindings) route scan collapses here);
- ``xhost_fanout8`` one sender fanning out to 8 receivers on a
                    different architecture (stresses encode-once
                    cross-host delivery: one wire encode per send, one
                    decode per distinct receiver profile).

A second tier measures the *cross-process link path* through the
worker-pool transport.  Its headline ``aggregate`` is an in-process
sender fanning out over links to 8 receivers in each of 2 worker
processes — every delivery crosses a link, so the number is dominated
by frame cost, which is exactly what send-side coalescing (see
:mod:`repro.bus.batch`) amortizes.  The tier also keeps the pinned
credit-loop pairs
(``pinned_pairs_aggregate``) where pushed host-local routes bypass the
links entirely — the multi-core scale-out story — plus the in-process
pair baseline, and ``spawn_ms``, the cold start of one worker (fresh
one-slot pool: construct, which starts the worker, one placement,
close).  Over the ``aggregate`` window it also counts the delivery
frames the bus ships, and the wires and entries they carry
(``frames``/``wires``/``entries``): CI gates their ratios, which come
from one run and so do not depend on the runner's speed — many entries
per frame (coalescing) and one wire per host for the whole fan-out
(shared wires).  The tier publishes
honest numbers: ``cpus`` records
``os.cpu_count()``; on a single-core container the workers timeshare
one core, so the win comes from fewer frames, not more cores.

Run standalone to (re)generate ``BENCH_bus.json``::

    PYTHONPATH=src python benchmarks/bench_a4_bus_throughput.py [--quick]
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.bus import batch
from repro.bus.batch import batch_settings
from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.state.machine import MACHINES

from benchmarks._meta import bench_args, bench_meta
from benchmarks.conftest import report

IDLE = "def main():\n    pass\n"

#: Producer half of the credit-loop pair: keeps a fixed window of
#: messages in flight, replenishing 64 per credit received.
PRODUCER = '''
def main():
    sent = 0
    mh.statics["sent"] = 0
    mh.init()
    for _ in range(256):
        mh.write("out", "l", 1)
    sent = 256
    while mh.running:
        mh.read1("credit")
        for _ in range(64):
            mh.write("out", "l", 1)
        sent = sent + 64
        mh.statics["sent"] = sent
'''

#: Consumer half: counts deliveries, returns one credit per 64.
CONSUMER = '''
def main():
    got = 0
    mh.statics["got"] = 0
    mh.init()
    while mh.running:
        mh.read1("inp")
        got = got + 1
        if got % 64 == 0:
            mh.write("credit_out", "l", 1)
            mh.statics["got"] = got
'''

#: Delivered msgs/sec measured on the pre-fast-path bus (the seed's
#: O(bindings) route scan + 50 ms queue polling), same container, 1.0 s
#: measurement windows.  Kept so regenerated BENCH_bus.json always
#: records the before/after comparison.
PRE_FAST_PATH_BASELINE = {
    "1to1": 344650.0,
    "fanout32": 493423.9,
    "bindings128": 30102.2,
    "xhost_fanout8": 40624.8,
}


def sender_spec(name: str = "sender") -> ModuleSpec:
    return ModuleSpec(
        name=name,
        inline_source=IDLE,
        interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="l")],
    )


def receiver_spec(name: str = "receiver") -> ModuleSpec:
    return ModuleSpec(
        name=name,
        inline_source=IDLE,
        interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
    )


def build(
    receivers: int,
    extra_pairs: int = 0,
    receiver_host: str = "local",
) -> Tuple[SoftwareBus, List[str]]:
    """A bus with one sender endpoint bound to ``receivers`` receivers.

    ``extra_pairs`` unrelated sender/receiver pairs are bound besides the
    measured endpoint; modules are never started — ``route`` is driven
    directly, which is exactly the per-message hot path.
    """
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("local", MACHINES["modern-64"])
    if receiver_host != "local":
        bus.add_host(receiver_host, MACHINES["sparc-like"])
    bus.add_module(sender_spec(), machine="local")
    names = []
    for i in range(receivers):
        name = f"r{i}"
        bus.add_module(receiver_spec(), instance=name, machine=receiver_host)
        bus.add_binding(BindingSpec("sender", "out", name, "inp"))
        names.append(name)
    for i in range(extra_pairs):
        src, dst = f"xs{i}", f"xr{i}"
        bus.add_module(sender_spec(name="sender"), instance=src, machine="local")
        bus.add_module(receiver_spec(), instance=dst, machine="local")
        bus.add_binding(BindingSpec(src, "out", dst, "inp"))
    return bus, names


def measure(bus: SoftwareBus, names: List[str], seconds: float) -> float:
    """Delivered messages per second through ``route``."""
    message = Message(
        values=[7], fmt="l", source_instance="sender", source_interface="out"
    )
    queues = [bus.get_module(name).queue("inp") for name in names]
    batch = 200

    def spin(duration: float) -> Tuple[int, float]:
        sent = 0
        start = time.perf_counter()
        deadline = start + duration
        while time.perf_counter() < deadline:
            for _ in range(batch):
                bus.route("sender", "out", message)
            sent += batch
            for queue in queues:  # keep memory bounded
                queue.drain()
        return sent, time.perf_counter() - start

    spin(seconds / 4)  # warmup
    sent, elapsed = spin(seconds)
    return sent * len(names) / elapsed


def run_all(seconds: float) -> Dict[str, float]:
    results: Dict[str, float] = {}
    scenarios = {
        "1to1": dict(receivers=1),
        "fanout32": dict(receivers=32),
        "bindings128": dict(receivers=1, extra_pairs=128),
        "xhost_fanout8": dict(receivers=8, receiver_host="sparc"),
    }
    for key, kwargs in scenarios.items():
        bus, names = build(**kwargs)
        try:
            results[key] = round(measure(bus, names, seconds), 1)
        finally:
            bus.shutdown()
    return results


def producer_spec() -> ModuleSpec:
    return ModuleSpec(
        name="producer",
        inline_source=PRODUCER,
        interfaces=[
            InterfaceDecl("out", Role.DEFINE, pattern="l"),
            InterfaceDecl("credit", Role.USE, pattern="l"),
        ],
    )


def consumer_spec() -> ModuleSpec:
    return ModuleSpec(
        name="consumer",
        inline_source=CONSUMER,
        interfaces=[
            InterfaceDecl("inp", Role.USE, pattern="l"),
            InterfaceDecl("credit_out", Role.DEFINE, pattern="l"),
        ],
    )


def measure_pairs(workers: int, pairs: int, seconds: float) -> float:
    """Aggregate consumed msgs/s over ``pairs`` running credit-loop pairs.

    ``workers > 0`` pins pair *i* to worker slot ``i % workers`` (both
    halves on the same slot, so pushed host-local routes apply);
    ``workers == 0`` runs the same pairs as in-process module threads —
    the single-core baseline the scale-up is measured against.
    """
    bus = (
        SoftwareBus(sleep_scale=0.0, workers=workers)
        if workers
        else SoftwareBus(sleep_scale=0.0)
    )
    try:
        for i in range(pairs):
            placement = f"worker:{i % workers}" if workers else None
            bus.add_module(producer_spec(), instance=f"p{i}", placement=placement)
            bus.add_module(consumer_spec(), instance=f"c{i}", placement=placement)
            bus.add_binding(BindingSpec(f"p{i}", "out", f"c{i}", "inp"))
            bus.add_binding(BindingSpec(f"c{i}", "credit_out", f"p{i}", "credit"))
        for i in range(pairs):
            bus.start_module(f"c{i}")
            bus.start_module(f"p{i}")

        def totals() -> List[int]:
            return [
                int(bus.statics_of(f"c{i}").get("got", 0)) for i in range(pairs)
            ]

        time.sleep(seconds / 2)  # warmup: spawn costs must not pollute the rate
        before = totals()
        start = time.perf_counter()
        time.sleep(seconds)
        after = totals()
        elapsed = time.perf_counter() - start
        return sum(a - b for a, b in zip(after, before)) / elapsed
    finally:
        bus.shutdown()


def build_xlink(workers: int, fanout: int) -> Tuple[SoftwareBus, List[str]]:
    """An in-process sender fanning out over links to worker receivers.

    ``fanout`` receivers land in each of ``workers`` worker processes,
    all bound to the one in-process sender endpoint — so every routed
    message produces ``workers * fanout`` cross-link deliveries.  As in
    :func:`build`, modules are never started; ``route`` is driven
    directly.
    """
    bus = SoftwareBus(sleep_scale=0.0, workers=workers)
    bus.add_module(sender_spec())
    names = []
    for w in range(workers):
        for j in range(fanout):
            name = f"w{w}r{j}"
            bus.add_module(
                receiver_spec(), instance=name, placement=f"worker:{w}"
            )
            bus.add_binding(BindingSpec("sender", "out", name, "inp"))
            names.append(name)
    return bus, names


class FrameCount:
    """The delivery frames this process ships while in the ``with``
    block, and the wires and entries they carry.

    Every coalescer packs a frame with :func:`repro.bus.batch.pack_batch`
    (one group per wire, one entry per delivery), so wrapping it counts
    them all; a frame costs one extra call.
    """

    def __init__(self) -> None:
        self.frames = self.wires = self.entries = 0
        self._lock = threading.Lock()
        self._pack = batch.pack_batch

    def _counting(self, groups):
        entries = sum(len(pairs) for _wire, pairs in groups)
        with self._lock:
            self.frames += 1
            self.wires += len(groups)
            self.entries += entries
        return self._pack(groups)

    def __enter__(self) -> "FrameCount":
        batch.pack_batch = self._counting
        return self

    def __exit__(self, *exc) -> None:
        batch.pack_batch = self._pack


def measure_xlink(
    bus: SoftwareBus, names: List[str], seconds: float
) -> Tuple[float, FrameCount]:
    """Delivered msgs/s across links, counted by remote queue discards,
    and the frames that carried them.

    ``discard()`` drains each proxy queue in the worker and returns only
    the count — the periodic drain bounds worker memory, and because a
    link's requests are FIFO behind its coalesced delivery frames, the
    final discard observes every message shipped before it.
    """
    message = Message(
        values=[7], fmt="l", source_instance="sender", source_interface="out"
    )
    queues = [bus.get_module(name).queue("inp") for name in names]
    batch = 200

    def spin(duration: float) -> Tuple[int, float]:
        delivered = 0
        rounds = 0
        start = time.perf_counter()
        deadline = start + duration
        while time.perf_counter() < deadline:
            for _ in range(batch):
                bus.route("sender", "out", message)
            rounds += 1
            if rounds % 10 == 0:  # keep worker memory bounded
                delivered += sum(queue.discard() for queue in queues)
        delivered += sum(queue.discard() for queue in queues)
        return delivered, time.perf_counter() - start

    spin(seconds / 4)  # warmup
    with FrameCount() as frames:
        delivered, elapsed = spin(seconds)
    return delivered / elapsed, frames


def measure_spawn_ms(rounds: int = 3) -> float:
    """Median wall time of a worker's cold start, in milliseconds.

    One round is a fresh one-slot pool from construction (which starts
    the worker with the pool: interpreter start, the host's imports,
    the hello handshake) through one placement (one ``add``) to
    ``close()``.
    Recorded, not gated: it scales with the runner and with bytecode
    caching — the exact gate on what a host imports is
    ``tests/test_import_closure.py``.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        bus = SoftwareBus(sleep_scale=0.0, workers=1)
        try:
            bus.add_module(receiver_spec(), instance="r", placement="worker:0")
        finally:
            bus.shutdown()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def run_xproc_tier(seconds: float) -> Dict[str, object]:
    cpus = os.cpu_count() or 1
    workers = max(2, min(4, cpus))
    fanout = 8
    inproc = measure_pairs(workers=0, pairs=1, seconds=seconds)
    pinned = measure_pairs(workers=workers, pairs=workers, seconds=seconds)

    bus, names = build_xlink(workers=workers, fanout=fanout)
    try:
        aggregate, frames = measure_xlink(bus, names, seconds)
    finally:
        bus.shutdown()
    return {
        "cpus": cpus,
        "workers": workers,
        "pairs": workers,
        "fanout_per_worker": fanout,
        "shape": (
            "aggregate: inproc sender -> "
            f"{fanout} receivers in each of {workers} workers (all "
            "deliveries cross a link)"
        ),
        "inproc_pair_baseline": round(inproc, 1),
        "pinned_pairs_aggregate": round(pinned, 1),
        "aggregate": round(aggregate, 1),
        "frames": frames.frames,
        "wires": frames.wires,
        "entries": frames.entries,
        "spawn_ms": round(measure_spawn_ms(), 1),
        "scaleup_vs_inproc_pair": round(aggregate / inproc, 2) if inproc else 0.0,
    }


def test_a4_throughput():
    results = run_all(seconds=0.5)
    report(
        "A4",
        "reconfiguration support should cost only a flag test at run "
        "time; the per-message route path must likewise be O(1) — no "
        "binding-list scan, no lock held across delivery",
        ", ".join(f"{k}: {v:,.0f} msg/s" for k, v in results.items()),
    )
    # Shape, not absolute speed: unrelated bindings must not tax the
    # measured pair (an O(bindings) scan fails this by ~10x), and the
    # per-delivery cost of a 32-way fan-out must stay in the same
    # ballpark as a single delivery.
    assert results["bindings128"] > results["1to1"] / 3
    assert results["fanout32"] > results["1to1"] / 3
    assert results["xhost_fanout8"] > 0


def main(argv: List[str]) -> None:
    args = bench_args(argv, __doc__, "BENCH_bus.json")
    quick, out = args.quick, args.out
    route_s, xproc_s = (0.3, 1.0) if quick else (1.0, 3.0)
    results = run_all(seconds=route_s)
    xproc = run_xproc_tier(seconds=xproc_s)
    payload = {
        "benchmark": "bench_a4_bus_throughput",
        "unit": "delivered messages/second",
        "quick": quick,
        "meta": bench_meta(
            batch=batch_settings(), route_window_s=route_s, xproc_window_s=xproc_s
        ),
        "results": results,
        "pre_fast_path_baseline": PRE_FAST_PATH_BASELINE,
        "speedup_vs_pre_fast_path": {
            key: round(value / PRE_FAST_PATH_BASELINE[key], 2)
            for key, value in results.items()
        },
        "xproc": xproc,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
