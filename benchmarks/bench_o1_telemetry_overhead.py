"""O1 (observability) — overhead of the telemetry flight recorder.

The paper's economic claim is that reconfiguration support costs "merely
that of periodically testing the flags" at steady state.  Observability
must not quietly take that property back, so this benchmark pins down
what the flight recorder costs on the bus message hot path
(``bench_a4``'s 1-to-1 scenario) in four ways:

- ``disabled`` — throughput after an enable/disable cycle (the routing
  table rebuilt with no recorder installed) versus the never-enabled
  ``baseline``.  Disabled-mode instrumentation is compiled *out* of the
  routing table at rebuild time, so this must be pure measurement noise;
  the benchmark asserts < 3% and additionally verifies structurally that
  the disabled fast path holds raw ``MessageQueue.put`` bound methods —
  zero wrappers, zero flag tests.
- ``enabled`` — throughput with the recorder installed.  Every queue
  counts its puts in-lock whether or not a recorder is installed, so
  that increment is part of the baseline too; what this tier measures
  is the rest of what recording adds: ``bus.routed`` derived lazily
  from the queue cells (no wrapper on a 1-to-1 route), and ``route()``
  opens no span.  Asserted < 10% (down from ~80% with per-delivery
  counting closures).
- ``tracing_health`` — enabled mode with the whole observability plane
  live: a worker heartbeating over its link at the production cadence.
  Gated < 10% on total throughput, over enough rounds that its spread
  from run to run fits inside the gap to the gate, beside an ungated
  row for the heartbeat's own cost (``heartbeat``: µs of CPU per beat,
  the worker's send plus the pump's decode and record, times beats per
  second).
- ``guard_ns`` — the cost of the ``telemetry.recorder is None`` guard
  used by the sites that cannot compile themselves out (faults-style
  one-attribute-load-plus-branch idiom), measured directly.

Recording must observe the bus, not re-route it: the recorded
cross-architecture 8-way entry is asserted to keep the plain entry's
compiled groups, and two cross-process shapes are recorded (not gated)
plain vs recording — ``xlink_fanout8`` (``route()`` µs, an in-process
sender fanning out to 8 receivers in one worker) and
``pinned_pair`` (msgs/s of a credit-loop pair pinned to ``worker:0``,
running on its host-local route).

Methodology: one persistent bus, modes switched in place, and every
enabled/disabled segment *straddled* between two baseline segments
whose mean it is compared against (``b1 e b2 d b3`` per round, medians
across rounds) — a sequential all-baseline-then-all-enabled layout let
slow container drift show "disabled" beating "baseline" by double
digits.  The rounds are many and short, and a segment is rated by its
median batch (see ``measure_modes``).  ``cpus`` is recorded so
trajectories across containers stay comparable.

It also times the Figure-1 monitor move (feed-driven, same harness as
the chaos suite) with telemetry on and off, since the replace path is
where spans actually get recorded.

Run standalone to (re)generate ``BENCH_telemetry.json``::

    PYTHONPATH=src:. python benchmarks/bench_o1_telemetry_overhead.py [--quick]
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.bus.queues import MessageQueue
from repro.runtime import telemetry

from benchmarks._meta import bench_args, bench_meta
from benchmarks.bench_a4_bus_throughput import build
from benchmarks.conftest import report

#: Disabled-mode telemetry must cost less than this on bus throughput.
DISABLED_OVERHEAD_LIMIT_PCT = 3.0
#: Enabled-mode telemetry must cost less than this on bus throughput.
ENABLED_OVERHEAD_LIMIT_PCT = 10.0
#: Heartbeat cadence for the tracing+health tier — the production
#: default, measured explicitly here and off everywhere else.
HEARTBEAT_INTERVAL_S = 0.2
#: The enabled/disabled mode sweep: many short straddled rounds (see
#: ``measure_modes``), 11.25 s of timed segments in all.
MODE_SEGMENT_S = 0.05
MODE_ROUNDS = 45
#: Straddled rounds of the tracing+heartbeats tier, each three 0.25 s
#: segments.  One round's reading is wide (quartiles from -17 % to
#: +22 % on a 2-cpu host); the median of 24 held ten runs within
#: 0-2.8 %, well inside the gate.
TRACING_ROUNDS = 24
#: Beats timed for the tier's ungated heartbeat-cost row.
HEARTBEAT_COST_BEATS = 2000


def assert_disabled_path_uninstrumented() -> None:
    """The disabled fast path must hold raw queue ``put`` bound methods.

    This is the structural half of the < 3% claim: with no recorder
    installed, ``_rebuild_routing`` compiles the exact same delivery
    closures as before telemetry existed, so there is nothing on the
    per-message path to measure.
    """
    assert telemetry.recorder is None
    bus, _ = build(receivers=1)
    try:
        table = bus._rebuild_routing()
        entry = table["sender"]["out"]
        assert entry.puts and entry.groups is None, (
            "1to1 scenario must be one identity put"
        )
        for put in entry.puts:
            assert getattr(put, "__func__", None) is MessageQueue.put, (
                f"disabled routing table holds a wrapper {put!r}; "
                f"the disabled hot path is no longer free"
            )
    finally:
        bus.shutdown()


def group_shape(entry) -> object:
    """A route entry's compiled ``groups`` with bound puts reduced to
    their queues (each rebuild binds its methods anew; who receives
    what, grouped how, must not change)."""
    if entry.groups is None:
        return None
    xfers, links = entry.groups
    return (
        [(profile.name, [put.__self__ for put in puts]) for profile, puts in xfers],
        [(link, list(pairs)) for link, pairs in links],
    )


def assert_recording_keeps_the_plan() -> None:
    """Recording adds counting, it does not re-route.

    The cross-architecture 8-way fan-out (encode once, decode once for
    the receivers' profile) compiles to the same groups with a recorder
    installed, and gains at most one counting callable in front.
    """
    assert telemetry.recorder is None
    bus, _ = build(receivers=8, receiver_host="sparc")
    try:
        plain = bus._rebuild_routing()["sender"]["out"]
        telemetry.enable(capacity=1024)
        try:
            recorded = bus._rebuild_routing()["sender"]["out"]
        finally:
            telemetry.disable()
        assert plain.groups is not None, "xarch8 must compile transfer groups"
        assert group_shape(recorded) == group_shape(plain), (
            "recording replaced the compiled cross-profile fan-out"
        )
        assert len(recorded.puts) <= len(plain.puts) + 1
    finally:
        bus.shutdown()


def measure_xlink_fanout(rounds: int, calls: int) -> Dict[str, object]:
    """``route()`` µs on an 8-way link fan-out, plain vs recording.

    One in-process sender bound to 8 receivers in one worker, so a
    ``route()`` is one encode plus one coalescer append.  Plain and
    recorded segments alternate on one bus, each opened by one untimed
    ``route()`` (the table recompiles after the switch); every segment
    checks that the worker received all 8 copies of every message and
    every recorded one that ``bus.routed``/``bus.delivered`` are exact.
    Recorded, not gated.
    """
    from repro.bus.message import Message

    from benchmarks.bench_a4_bus_throughput import build_xlink

    chunks = 5
    assert telemetry.recorder is None
    bus, names = build_xlink(workers=1, fanout=8)
    exact = True
    times: Dict[str, List[float]] = {"plain": [], "recording": []}
    try:
        queues = [bus.get_module(name).queue("inp") for name in names]
        message = Message(
            values=[7], fmt="l", source_instance="sender", source_interface="out"
        )

        def segment(rec) -> None:
            nonlocal exact
            bus.route("sender", "out", message)
            delivered = 0
            elapsed = 0.0
            # Timed in chunks, the worker's queues emptied between them
            # (untimed): short segments are dominated by scheduling noise
            # between the flusher thread and the worker, one long one
            # would pile every message up in the worker.
            for _ in range(chunks):
                start = time.perf_counter()
                for _ in range(calls):
                    bus.route("sender", "out", message)
                elapsed += time.perf_counter() - start
                delivered += sum(queue.discard() for queue in queues)
            sent = chunks * calls + 1
            times["plain" if rec is None else "recording"].append(
                elapsed / (sent - 1) * 1e6
            )
            exact &= delivered == sent * len(names)
            if rec is not None:
                exact &= rec.counter("bus.routed", key="sender.out") == sent
                exact &= rec.counter_total("bus.delivered") == sent * len(names)

        segment(None)  # warm-up
        del times["plain"][:]
        for _ in range(rounds):
            segment(None)
            rec = telemetry.enable(capacity=1024)
            try:
                segment(rec)
            finally:
                telemetry.disable()
    finally:
        if telemetry.recorder is not None:
            telemetry.disable()
        bus.shutdown()
    plain = statistics.median(times["plain"])
    recording = statistics.median(times["recording"])
    return {
        "plain_route_us": round(plain, 2),
        "recording_route_us": round(recording, 2),
        "ratio": round(recording / plain, 3),
        "counts_exact": exact,
        "rounds": rounds,
        "calls": chunks * calls,
    }


def measure_pinned_pair(rounds: int, seconds: float) -> Dict[str, object]:
    """Consumed msgs/s of a credit-loop pair pinned to ``worker:0``.

    bench_a4's producer/consumer pair, both halves on one worker, so its
    whole loop runs on pushed host-local routes.  Plain and recorded
    segments alternate on the running pair; each starts 0.1 s after the
    switch, once the routes have been cleared and pushed again.
    Recorded, not gated.
    """
    from repro.bus.bus import SoftwareBus
    from repro.bus.spec import BindingSpec

    from benchmarks.bench_a4_bus_throughput import consumer_spec, producer_spec

    assert telemetry.recorder is None
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    rates: Dict[str, List[float]] = {"plain": [], "recording": []}
    try:
        bus.add_module(producer_spec(), instance="p", placement="worker:0")
        bus.add_module(consumer_spec(), instance="c", placement="worker:0")
        bus.add_binding(BindingSpec("p", "out", "c", "inp"))
        bus.add_binding(BindingSpec("c", "credit_out", "p", "credit"))
        bus.start_module("c")
        bus.start_module("p")

        def segment(mode: str) -> None:
            time.sleep(0.1)
            before = int(bus.statics_of("c").get("got", 0))
            start = time.perf_counter()
            time.sleep(seconds)
            after = int(bus.statics_of("c").get("got", 0))
            rates[mode].append((after - before) / (time.perf_counter() - start))

        time.sleep(0.3)  # warm-up
        for _ in range(rounds):
            segment("plain")
            telemetry.enable(capacity=1024)
            try:
                segment("recording")
            finally:
                telemetry.disable()
    finally:
        if telemetry.recorder is not None:
            telemetry.disable()
        bus.shutdown()
    plain = statistics.median(rates["plain"])
    recording = statistics.median(rates["recording"])
    return {
        "plain_msgs_per_sec": round(plain, 1),
        "recording_msgs_per_sec": round(recording, 1),
        "ratio": round(recording / plain, 3) if plain else 0.0,
        "rounds": rounds,
        "seconds": seconds,
    }


def guard_cost_ns(iterations: int = 1_000_000) -> float:
    """Per-call cost of the disabled-mode guard (attribute load + branch)."""
    items = [None] * iterations
    start = time.perf_counter()
    for _ in items:
        rec = telemetry.recorder
        if rec is not None:  # pragma: no cover - disabled in this bench
            raise AssertionError("recorder unexpectedly installed")
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in items:
        pass
    empty = time.perf_counter() - start
    return max(0.0, (guarded - empty) / iterations * 1e9)


def measure_modes(segment: float, rounds: int) -> Dict[str, object]:
    """Straddled baseline / enabled / disabled trials, median summary.

    One persistent 1-to-1 bus serves every trial; modes are switched
    *in place* with ``telemetry.enable()``/``disable()`` alone — a
    recorder change makes the bus recompile its delivery path, exactly
    what a user toggling telemetry on a running application gets.
    Each round runs five straddled segments::

        b1   enabled   b2   disabled   b3

    and each mode's overhead is computed against the *mean of its two
    neighbouring baseline segments*.  Container speed on shared 1-core
    runners drifts by double-digit percentages over a few seconds;
    straddling cancels linear drift within a round, and medians across
    rounds kill the remaining outliers.  (A sequential layout — all
    baseline trials, then all enabled — reported "disabled" beating
    "baseline" by double digits, which is structurally impossible.)

    Rounds are many and short (``segment`` seconds each; 45 rounds of
    50 ms by default), and a segment's rate is that of its *median*
    200-message batch.  Nine rounds of 250 ms segments, rated by total
    throughput, read the disabled mode anywhere from -4 % to +6 % on a
    2-cpu host (EXPERIMENTS.md "One record path"): short rounds keep
    each mode next to its baselines in time, and the median batch
    ignores a segment's preempted batches and its first,
    routing-table-compiling one.

    Note ``b2``/``b3`` run after an enable/disable cycle.  By the
    structural guarantee checked in ``assert_disabled_path_uninstrumented``
    that configuration is byte-identical to never-enabled, so they are
    valid baseline segments — and the ``disabled`` metric is precisely
    the claim that this guarantee holds dynamically too.
    """
    import gc

    from repro.bus.message import Message

    assert telemetry.recorder is None
    bus, names = build(receivers=1)
    try:
        message = Message(
            values=[7], fmt="l", source_instance="sender", source_interface="out"
        )
        queue = bus.get_module(names[0]).queue("inp")

        def spin(duration: float) -> float:
            """Messages/s of the segment's median 200-message batch."""
            batches: List[float] = []
            now = time.perf_counter()
            deadline = now + duration
            while now < deadline:
                for _ in range(200):
                    bus.route("sender", "out", message)
                queue.drain()
                end = time.perf_counter()
                batches.append(end - now)
                now = end
            return 200 / statistics.median(batches)

        def set_enabled(on: bool) -> None:
            # The bus recompiles its delivery path on its own: a recorder
            # change drops every live routing table.
            if on:
                telemetry.enable(capacity=1024)
            else:
                telemetry.disable()

        spin(0.3)  # interpreter/branch-predictor warm-up
        rates: Dict[str, List[float]] = {
            "baseline": [],
            "enabled": [],
            "disabled": [],
        }
        enabled_pcts: List[float] = []
        disabled_pcts: List[float] = []
        for _ in range(rounds):
            gc.collect()
            b1 = spin(segment)
            set_enabled(True)
            enabled = spin(segment)
            set_enabled(False)
            b2 = spin(segment)
            set_enabled(True)
            set_enabled(False)
            disabled = spin(segment)
            b3 = spin(segment)
            rates["baseline"].extend((b1, b2, b3))
            rates["enabled"].append(enabled)
            rates["disabled"].append(disabled)
            enabled_pcts.append((1.0 - enabled / ((b1 + b2) / 2.0)) * 100.0)
            disabled_pcts.append((1.0 - disabled / ((b2 + b3) / 2.0)) * 100.0)
    finally:
        if telemetry.recorder is not None:
            telemetry.disable()
        bus.shutdown()
    return {
        "rates": {k: round(statistics.median(v), 1) for k, v in rates.items()},
        "enabled_overhead_pct": max(0.0, round(statistics.median(enabled_pcts), 2)),
        "disabled_overhead_pct": max(0.0, round(statistics.median(disabled_pcts), 2)),
        "rounds": rounds,
        "segment_s": segment,
    }


def idle_spec():
    """The never-started module a heartbeat reports on."""
    from repro.bus.interfaces import InterfaceDecl, Role
    from repro.bus.spec import ModuleSpec

    return ModuleSpec(
        name="idle",
        inline_source="def main():\n    mh.sleep(0.01)\n",
        interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
    )


def measure_heartbeat_cost(beats: int) -> Dict[str, float]:
    """One heartbeat's own CPU cost, times beats per second (ungated).

    A beat is the worker's payload and ``send_frame``, and the bus-side
    pump's ``recv_frame`` and ``record_heartbeat``: what the
    tracing+heartbeats tier pays per beat, here timed in one process
    over a socket pair, with a recorder installed (both frames record
    their span, as they do there) and a host holding the tier's one idle
    module.  Medians of ``beats`` beats; the thread wake-ups a real
    beat also costs are not in it.
    """
    import socket

    from repro.bus.host import ModuleHost
    from repro.bus.module import prepared_source_for
    from repro.bus.tcp import recv_frame, send_frame
    from repro.runtime.health import HealthMonitor
    from repro.runtime.mh import SleepPolicy
    from repro.state.machine import MACHINES, renamed

    assert telemetry.recorder is None
    spec = idle_spec()
    host = ModuleHost(
        renamed(MACHINES["modern-64"], "worker-0"),
        SleepPolicy(scale=0.0),
        lambda command: None,
    )
    host.handle(
        "add",
        ["idle#1", "idle", spec.to_abstract(prepared_source_for(spec)), "original"],
    )
    monitor = HealthMonitor(interval_hint=HEARTBEAT_INTERVAL_S)
    worker_end, pump_end = socket.socketpair()
    send_us: List[float] = []
    pump_us: List[float] = []
    telemetry.enable(capacity=1024)
    try:
        for seq in range(beats):
            start = time.perf_counter()
            send_frame(
                worker_end, ["heartbeat", "worker-0", seq, host._health_payload()]
            )
            sent = time.perf_counter()
            _, name, number, payload = recv_frame(pump_end)  # type: ignore[misc]
            monitor.record_heartbeat(str(name), int(number), dict(payload))
            pump_us.append((time.perf_counter() - sent) * 1e6)
            send_us.append((sent - start) * 1e6)
    finally:
        telemetry.disable()
        worker_end.close()
        pump_end.close()
        host.stop_all()
    per_beat = statistics.median(send_us) + statistics.median(pump_us)
    rate = 1.0 / HEARTBEAT_INTERVAL_S
    return {
        "send_us": round(statistics.median(send_us), 2),
        "pump_us": round(statistics.median(pump_us), 2),
        "us_per_beat": round(per_beat, 2),
        "beats_per_s": rate,
        # µs of CPU per second of run time, as a share of one CPU.
        "cpu_share_pct": round(per_beat * rate / 1e4, 4),
    }


def measure_tracing_health(seconds: float, rounds: int) -> Dict[str, object]:
    """Enabled-mode overhead with the full observability plane live.

    PR 9 added two always-on costs to enabled mode: trace-context
    propagation (a trailer on link requests, Lamport ticks on recorded
    spans) and the health plane (a worker heartbeating over its link,
    the bus-side monitor recording arrivals on the link's pump thread).
    Neither touches the inproc delivery hot path directly, and this tier
    is the proof: same straddled ``b1 e b2`` layout as
    :func:`measure_modes`, but the bus owns a spawned worker beating at
    the default 200 ms cadence while the enabled segment runs.  On the
    1-core CI containers every beat is a genuine preemption of the
    measured loop (worker wakes, encodes, sends; the link's pump decodes),
    so the default cadence — what production pays — is what the gate
    bounds, on the segments' total throughput.  Heartbeats stay off in
    every other tier — and off by default everywhere — precisely so this
    one measures their cost explicitly.

    A segment catches one or two beats, so the per-beat cost is far
    below what one round can resolve (its rounds spread over about 20
    points); the tier takes the median of ``rounds`` rounds, and
    reports their quartiles and the beat's own cost measured directly
    (:func:`measure_heartbeat_cost`) beside it.
    """
    import gc

    from repro.bus.message import Message
    from repro.bus.spec import BindingSpec
    from repro.bus.bus import SoftwareBus
    from repro.state.machine import MACHINES

    from benchmarks.bench_a4_bus_throughput import receiver_spec, sender_spec

    assert telemetry.recorder is None
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.add_host("local", MACHINES["modern-64"])
        bus.add_module(sender_spec(), machine="local")
        bus.add_module(receiver_spec(), instance="r0", machine="local")
        bus.add_binding(BindingSpec("sender", "out", "r0", "inp"))
        # Never started; it gives the worker (up since the bus was
        # built) a module to report on in the heartbeats it sends
        # during the enabled segments.
        bus.add_module(idle_spec(), instance="idle", placement="worker:0")
        message = Message(
            values=[7], fmt="l", source_instance="sender", source_interface="out"
        )
        queue = bus.get_module("r0").queue("inp")

        def spin(duration: float) -> float:
            sent = 0
            start = time.perf_counter()
            deadline = start + duration
            while time.perf_counter() < deadline:
                for _ in range(200):
                    bus.route("sender", "out", message)
                sent += 200
                queue.drain()
            return sent / (time.perf_counter() - start)

        def set_plane(on: bool) -> None:
            if on:
                telemetry.enable(capacity=1024)
                bus.enable_health(interval=HEARTBEAT_INTERVAL_S)
            else:
                bus.disable_health()
                telemetry.disable()

        segment = max(0.05, seconds / 2.0)
        spin(0.3)
        pcts: List[float] = []
        rates: List[float] = []
        baselines: List[float] = []
        for _ in range(rounds):
            gc.collect()
            b1 = spin(segment)
            set_plane(True)
            on_rate = spin(segment)
            set_plane(False)
            b2 = spin(segment)
            baselines.extend((b1, b2))
            rates.append(on_rate)
            pcts.append((1.0 - on_rate / ((b1 + b2) / 2.0)) * 100.0)
    finally:
        if telemetry.recorder is not None:
            telemetry.disable()
        bus.shutdown()
    quartiles = statistics.quantiles(pcts, n=4)
    return {
        "baseline_msgs_per_sec": round(statistics.median(baselines), 1),
        "enabled_msgs_per_sec": round(statistics.median(rates), 1),
        "overhead_pct": max(0.0, round(statistics.median(pcts), 2)),
        "round_pct_quartiles": [round(quartiles[0], 2), round(quartiles[2], 2)],
        "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
        "rounds": rounds,
        "heartbeat": measure_heartbeat_cost(HEARTBEAT_COST_BEATS),
    }


def measure_fig1_move(enabled: bool, iterations: int) -> Tuple[float, float]:
    """(best_ms, mean_ms) total replace time for the fig-1 monitor move."""
    from repro.reconfig.scripts import move_module
    from tests.reconfig.helpers import (
        feed_sensor,
        launch_manual_monitor,
        wait_signalled,
    )

    if enabled:
        telemetry.enable(capacity=16384)
    try:
        times: List[float] = []
        for _ in range(iterations):
            bus = launch_manual_monitor(requests=2, group_size=2)
            try:
                outcome: Dict[str, object] = {}

                def run() -> None:
                    outcome["report"] = move_module(
                        bus, "compute", machine="beta", timeout=15
                    )

                worker = threading.Thread(target=run)
                worker.start()
                wait_signalled(bus, "compute")
                feed_sensor(bus, 1)
                worker.join(30)
                times.append(outcome["report"].total_time * 1000.0)
            finally:
                bus.shutdown()
        return min(times), sum(times) / len(times)
    finally:
        if enabled:
            telemetry.disable()


def run_all(seconds: float, move_iterations: int) -> Dict[str, object]:
    assert_disabled_path_uninstrumented()
    assert_recording_keeps_the_plan()
    modes = measure_modes(MODE_SEGMENT_S, MODE_ROUNDS)
    tracing_health = measure_tracing_health(seconds, TRACING_ROUNDS)
    move_off = measure_fig1_move(enabled=False, iterations=move_iterations)
    move_on = measure_fig1_move(enabled=True, iterations=move_iterations)
    return {
        "bus_msgs_per_sec": modes["rates"],
        "rounds": modes["rounds"],
        "segment_s": modes["segment_s"],
        "disabled_overhead_pct": modes["disabled_overhead_pct"],
        "enabled_overhead_pct": modes["enabled_overhead_pct"],
        "tracing_health": tracing_health,
        "enabled_tracing_health_overhead_pct": tracing_health["overhead_pct"],
        "guard_ns": round(guard_cost_ns(), 2),
        "fig1_move_ms": {
            "disabled": {
                "best": round(move_off[0], 3),
                "mean": round(move_off[1], 3),
            },
            "enabled": {
                "best": round(move_on[0], 3),
                "mean": round(move_on[1], 3),
            },
        },
        # Cross-process shapes, plain vs recording (recorded, not gated).
        "xlink_fanout8": measure_xlink_fanout(rounds=5, calls=4000),
        "pinned_pair": measure_pinned_pair(rounds=5, seconds=seconds),
    }


def test_o1_telemetry_overhead():
    # The tracing+heartbeats tier needs full-size segments even in the
    # quick/test configuration: each must span a heartbeat, and 0.125s
    # segments on a busy 1-core container put double-digit noise on it.
    results = run_all(seconds=0.5, move_iterations=3)
    report(
        "O1",
        '"the run-time cost is merely that of periodically testing the '
        'flags" — telemetry must preserve that: disabled-mode '
        "instrumentation compiles out of the message path entirely, and "
        "enabled mode counts in-queue, in-lock",
        f"disabled {results['disabled_overhead_pct']}% / enabled "
        f"{results['enabled_overhead_pct']}% / with tracing+heartbeats "
        f"{results['enabled_tracing_health_overhead_pct']}% bus overhead, "
        f"guard {results['guard_ns']}ns, fig-1 move "
        f"{results['fig1_move_ms']['disabled']['best']} -> "
        f"{results['fig1_move_ms']['enabled']['best']}ms",
    )
    assert results["disabled_overhead_pct"] < DISABLED_OVERHEAD_LIMIT_PCT
    assert results["enabled_overhead_pct"] < ENABLED_OVERHEAD_LIMIT_PCT
    assert (
        results["enabled_tracing_health_overhead_pct"]
        < ENABLED_OVERHEAD_LIMIT_PCT
    )


def main(argv: List[str]) -> None:
    args = bench_args(argv, __doc__, "BENCH_telemetry.json")
    quick, out = args.quick, args.out
    results = run_all(seconds=0.5, move_iterations=3 if quick else 10)
    payload = {
        "benchmark": "bench_o1_telemetry_overhead",
        "unit": "delivered messages/second; move times in ms",
        "quick": quick,
        "meta": bench_meta(),
        "cpus": os.cpu_count(),
        "disabled_overhead_limit_pct": DISABLED_OVERHEAD_LIMIT_PCT,
        "enabled_overhead_limit_pct": ENABLED_OVERHEAD_LIMIT_PCT,
        "results": results,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    failed = False
    if results["disabled_overhead_pct"] >= DISABLED_OVERHEAD_LIMIT_PCT:
        print(
            f"FAIL: disabled-mode overhead "
            f"{results['disabled_overhead_pct']}% >= "
            f"{DISABLED_OVERHEAD_LIMIT_PCT}%",
            file=sys.stderr,
        )
        failed = True
    if results["enabled_overhead_pct"] >= ENABLED_OVERHEAD_LIMIT_PCT:
        print(
            f"FAIL: enabled-mode overhead "
            f"{results['enabled_overhead_pct']}% >= "
            f"{ENABLED_OVERHEAD_LIMIT_PCT}%",
            file=sys.stderr,
        )
        failed = True
    if results["enabled_tracing_health_overhead_pct"] >= ENABLED_OVERHEAD_LIMIT_PCT:
        print(
            f"FAIL: tracing+heartbeats overhead "
            f"{results['enabled_tracing_health_overhead_pct']}% >= "
            f"{ENABLED_OVERHEAD_LIMIT_PCT}%",
            file=sys.stderr,
        )
        failed = True
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
