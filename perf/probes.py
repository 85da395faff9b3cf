"""Isolated layer probes: timed calls into public functions.

Each probe builds the smallest thing that exercises one layer — modules
are added but never started where the per-message path is what is being
timed, as ``benchmarks/bench_a4``/``bench_a5`` do — and reports a median
over a few rounds.  They take about ten seconds together and run after
the traced workload, so they disturb no end-to-end number.

The remote-move probe is the odd one out: a live three-stage relay whose
*replaced* stage is hosted remotely and migrates between the pipe worker
and the TCP daemon.  It loses a few messages per run on the current tree
(see ``perf/README.md``); the loss is recorded here, not worked around,
and is why no workload replaces a remote module.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import median
from typing import Callable, Dict, List, Tuple

from repro.bus.batch import pack_batch, unpack_batch
from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.mil import parse_mil
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import TcpTransport
from repro.core import prepare_module
from repro.reconfig.coordinator import prepare_rebind_batch
from repro.reconfig.primitives import obj_cap
from repro.runtime.mh import MH
from repro.state.machine import MACHINES

from perf import hygiene
from perf.loadgen import OpenLoop, run_timetable, slot_times
from perf.metrics import sequence_failures
from perf.workloads import (
    DEEP_FRAMES,
    DEEP_SHARD_SOURCE,
    FanoutWide,
    PipeXproc,
    fanout_mil,
)

Metric = Tuple[float, str]

IDLE_SOURCE = "def main():\n    pass\n"

REMOTE_MOVE_REPLACES = 40
REMOTE_MOVE_PERIOD_S = 0.1


def _median_of(rounds: int, once: Callable[[], float]) -> float:
    gc.collect()
    return median(once() for _ in range(rounds))


def _per_call_ns(fn: Callable[[], object], calls: int, rounds: int = 5) -> float:
    def once() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls * 1e9

    once()  # warm caches and lazy tables
    return _median_of(rounds, once)


def _timed_ms(fn: Callable[[], object], rounds: int = 5) -> float:
    def once() -> float:
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) * 1e3

    return _median_of(rounds, once)


# -- core, MIL ---------------------------------------------------------------------


def core_and_mil() -> Dict[str, Metric]:
    stamp = iter(range(1_000_000))
    mil = fanout_mil(64)
    return {
        # A fresh trailing comment per call: the bus memoizes by source
        # text, and calling the transformer directly must not depend on
        # whether someone adds a cache to it later.
        "core.prepare_ms": (
            _timed_ms(
                lambda: prepare_module(
                    f"{DEEP_SHARD_SOURCE}# probe {next(stamp)}\n",
                    module_name="shard_0",
                    declared_points=["Q"],
                )
            ),
            "ms",
        ),
        "bus.mil.parse_ms": (_timed_ms(lambda: parse_mil(mil)), "ms"),
    }


# -- state + runtime.mh ---------------------------------------------------------------


def _state_roundtrip(depth: int, heap_entries: int) -> Dict[str, float]:
    """One capture -> encode -> decode -> restore, each phase timed (ms).

    Driven through ``MH`` exactly as prepared module code drives it,
    sparc-like -> vax-like.
    """
    old = MH("shard_0", MACHINES["sparc-like"])
    if heap_entries:
        old.heap["store"] = {f"k0.{i:04d}": f"v{i}" for i in range(heap_entries)}
    t0 = time.perf_counter()
    old.begin_reconfig_capture("Q")
    for level in range(depth):
        old.capture("descend", "lllF", 3, depth, level, float(level))
    old.capture("main", "llF", 1, depth, 0.0)
    t1 = time.perf_counter()
    packet = old.encode()
    t2 = time.perf_counter()
    clone = MH("shard_0", MACHINES["vax-like"], status="clone")
    clone.incoming_packet = packet
    t3 = time.perf_counter()
    clone.decode()
    t4 = time.perf_counter()
    clone.restore("main")
    for _ in range(depth):
        clone.restore("descend")
    clone.end_restore()
    t5 = time.perf_counter()
    return {
        "capture": (t1 - t0) * 1e3,
        "encode": (t2 - t1) * 1e3,
        "decode": (t4 - t3) * 1e3,
        "restore": (t5 - t4) * 1e3,
    }


def state() -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    for label, depth, heap_entries, rounds in (
        ("small", 1, 0, 41),
        ("deep", DEEP_FRAMES, 4096, 7),
    ):
        gc.collect()
        runs = [_state_roundtrip(depth, heap_entries) for _ in range(rounds)]
        for phase in ("capture", "encode", "decode", "restore"):
            out[f"state.{phase}_ms.{label}"] = (median(r[phase] for r in runs), "ms")
    return out


# -- bus: routing, queues, message ------------------------------------------------------


def _spec(name: str, interface: str, role: Role) -> ModuleSpec:
    return ModuleSpec(
        name=name,
        inline_source=IDLE_SOURCE,
        interfaces=[InterfaceDecl(interface, role, pattern="l")],
    )


def _fan(bus: SoftwareBus, receivers: int, machine: str = "local", placement=None):
    """``sender.out`` bound to ``receivers`` unstarted modules; their queues."""
    if not bus.has_module("sender"):
        bus.add_module(_spec("sender", "out", Role.DEFINE), machine="local")
    queues = []
    for i in range(receivers):
        name = f"{placement or machine}-r{i}".replace(":", "-")
        module = bus.add_module(
            _spec("receiver", "inp", Role.USE),
            instance=name,
            machine=machine,
            placement=placement,
        )
        bus.add_binding(BindingSpec("sender", "out", name, "inp"))
        queues.append(module.queue("inp"))
    return queues


def _message() -> Message:
    return Message(
        values=[7], fmt="l", source_instance="sender", source_interface="out"
    )


def _route_ns_per_delivery(receivers: int, machine: str = "local") -> float:
    bus = SoftwareBus(sleep_scale=0.0)
    try:
        bus.add_host("local", MACHINES["modern-64"])
        bus.add_host("sparc", MACHINES["sparc-like"])
        queues = _fan(bus, receivers, machine)
        message = _message()

        def burst() -> None:
            for _ in range(200):
                bus.route("sender", "out", message)
            for queue in queues:  # keep memory bounded
                queue.drain()

        return _per_call_ns(burst, calls=10) / (200 * receivers)
    finally:
        bus.shutdown()


def bus_layer() -> Dict[str, Metric]:
    out: Dict[str, Metric] = {
        "bus.route_ns.1to1": (_route_ns_per_delivery(1), "ns"),
        "bus.route_ns_per_delivery.fanout64": (_route_ns_per_delivery(64), "ns"),
        "bus.route_ns_per_delivery.xarch8": (_route_ns_per_delivery(8, "sparc"), "ns"),
    }
    bus = SoftwareBus(sleep_scale=0.0)
    try:
        bus.add_host("local", MACHINES["modern-64"])
        (queue,) = _fan(bus, 1)
        message = _message()
        target = "local-r0"

        def directed() -> None:
            bus.route_to("sender", "out", target, message)
            queue.get(1.0, None)

        def roundtrip() -> None:
            queue.put(message)
            queue.get(1.0, None)

        roundtrip_ns = _per_call_ns(roundtrip, calls=2000)
        # The directed send is timed with the get that empties the queue
        # again; the get's share is the round trip measured just above.
        out["bus.queue_roundtrip_ns"] = (roundtrip_ns, "ns")
        out["bus.route_to_ns"] = (_per_call_ns(directed, calls=2000), "ns")
    finally:
        bus.shutdown()
    out["bus.message_validate_ns"] = (
        _per_call_ns(lambda: _message().validated(), calls=2000),
        "ns",
    )
    return out


# -- reconfig ---------------------------------------------------------------------------


def rebind_batch() -> Dict[str, Metric]:
    """``prepare_rebind_batch`` for a hub with 64 monitors (66 bindings)."""
    config = FanoutWide(seed=0).configuration()
    bus = SoftwareBus(sleep_scale=0.0)
    try:
        for name, spec in config.modules.items():
            bus.add_module(spec, instance=name)
        for binding in config.application.bindings:
            bus.add_binding(binding)
        old = obj_cap(bus, "hub")
        return {
            "reconfig.rebind_batch_ms.b64": (
                _timed_ms(lambda: prepare_rebind_batch(bus, old, "hub.new"), rounds=21),
                "ms",
            )
        }
    finally:
        bus.shutdown()


# -- transports ---------------------------------------------------------------------------


def batch_codec() -> Dict[str, Metric]:
    """Pack/unpack one full frame: 16 wires, each to 8 targets."""
    wire = _message().to_wire(MACHINES["modern-64"])
    groups = [
        (wire, [(f"w{g}r{j}", "inp", "") for j in range(8)]) for g in range(16)
    ]
    entries = 16 * 8
    blob = pack_batch(groups)
    return {
        "batch.pack_ns_per_entry": (
            _per_call_ns(lambda: pack_batch(groups), calls=200) / entries,
            "ns",
        ),
        "batch.unpack_ns_per_entry": (
            _per_call_ns(lambda: unpack_batch(blob), calls=200) / entries,
            "ns",
        ),
    }


def links() -> Dict[str, Metric]:
    """One worker and one daemon: spawn, request round trip, delivery."""
    out: Dict[str, Metric] = {}
    start = time.perf_counter()
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.attach_transport(TcpTransport(machines=1, sleep_scale=0.0), owned=True)
        bus.add_host("local", MACHINES["modern-64"])
        # The pool spawns its worker at the first placement on it.
        bus.add_module(
            _spec("probe", "inp", Role.USE), instance="w-probe", placement="worker:0"
        )
        out["transport.spawn_ms"] = ((time.perf_counter() - start) * 1e3, "ms")
        hygiene.move_children_off_my_cpu()
        bus.add_module(
            _spec("probe", "inp", Role.USE), instance="t-probe", placement="tcp:0"
        )
        message = _message()
        for kind, probe, placement in (
            ("worker", "w-probe", "worker:0"),
            ("tcp", "t-probe", "tcp:0"),
        ):
            out[f"transport.statics_rtt_us.{kind}"] = (
                _per_call_ns(lambda: bus.statics_of(probe), calls=200) / 1e3,
                "us",
            )
            queues = _fan(bus, 8, placement=placement)

            def burst() -> None:
                for _ in range(200):
                    bus.route("sender", "out", message)
                # A link's requests are FIFO behind its delivery frames,
                # so the discards return once every message has landed.
                for queue in queues:
                    queue.discard()

            out[f"link.deliver_ns_per_msg.{kind}"] = (
                _per_call_ns(burst, calls=5) / (200 * 8),
                "ns",
            )
            for binding in bus.bindings_of("sender"):
                bus.remove_binding(binding)
    finally:
        bus.shutdown()
    return out


class RemoteMove(PipeXproc):
    """The relay with its *replaced* stage hosted remotely."""

    name = "remote_move"
    placements = ["inproc", "worker:0", "inproc"]
    moves = ({"placement": "tcp:0"}, {"placement": "worker:0"})


def remote_move(flags: List[str]) -> Dict[str, Metric]:
    workload = RemoteMove(seed=0)
    try:
        workload.build()
        workload.first_operation()
        session = workload.sessions[0]
        # Echoes that have not come back after a second of silence are lost.
        generator = OpenLoop(session, workload.rate, drain_timeout=1.0)
        generator.start()
        time.sleep(0.5)
        slots = slot_times(
            time.monotonic(),
            REMOTE_MOVE_REPLACES * REMOTE_MOVE_PERIOD_S,
            REMOTE_MOVE_PERIOD_S,
            random.Random(0),
        )
        records, skipped = run_timetable(
            workload.bus, workload.target, slots, moves=RemoteMove.moves
        )
        generator.finish(timeout=15.0)
        lost = sequence_failures(session.received, len(session.scheduled))["lost"]
    finally:
        workload.close()
    committed = [r for r in records if r.committed]
    if len(committed) < len(records) or skipped:
        flags.append(
            f"remote_move: {len(records) - len(committed)} replaces failed, "
            f"{skipped} slots skipped"
        )
    totals = [r.report.total_time * 1e3 for r in committed]
    return {
        "transport.remote_move_total_p50_ms": (
            median(totals) if totals else float("nan"),
            "ms",
        ),
        "transport.remote_move_lost_per_100": (
            lost * 100.0 / max(1, len(committed)),
            "count",
        ),
    }


def run_all(flags: List[str]) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    for probe in (core_and_mil, state, bus_layer, rebind_batch, batch_codec, links):
        out.update(probe())
    out.update(remote_move(flags))
    return out
