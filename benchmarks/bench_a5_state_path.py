"""A5 (state fast path) — the reconfiguration critical path, timed.

The paper accepts "a reconfiguration delay measured in seconds", but the
delay the application *feels* is the platform's own overhead on top of
the wait-for-reconfiguration-point window.  This benchmark times the
four layers this repo optimises:

- ``roundtrip``   capture -> encode -> decode -> restore at stack depths
                  1 / 64 / 512 (the D2 scenario), driven through MH so
                  the compiled codec plans and the one-pass decode off
                  the packet's bytes are on the measured path;
- ``codec``       ProcessState to_bytes/from_bytes for a depth-512
                  packet, compiled vs the preserved seed codec
                  (``tests/state/reference_codec.py``) *live in the same run* —
                  immune to machine drift between measurement sessions;
- ``heap``        the same move with a *heap*: depth 256 plus a
                  4096-entry ``store`` dict, sparc-like -> vax-like,
                  per-phase capture/encode/decode/restore ms and packet
                  bytes.  The tiers above carry no heap, so none of them
                  walks the self-described statics/heap path that
                  dominates a KV shard's packet; ``encode_ms/decode_ms``
                  is the host-speed-independent shape CI gates on.  The
                  phases are the packet path, as a host behind a link
                  runs it (the divulge keeps no copy).  ``carry_ms`` is
                  the same state handed over inside the process instead
                  (``carry_state``: the packet and a copy at the divulge,
                  the clone's read of the copy), and
                  ``carry_ms/decode_ms`` a second shape CI gates on;
- ``fig1_move``   the end-to-end Monitor move (Figure 1): total latency
                  and the coordinator-controlled overhead
                  (total - delay_to_point) of the pipelined replace, with
                  its rebind and start-clone stages; ``start_ms /
                  overhead_ms`` is the second shape CI gates on.

Run standalone to (re)generate ``BENCH_state.json``::

    PYTHONPATH=src:. python benchmarks/bench_a5_state_path.py [--quick]
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from typing import Dict, List

from repro.apps.monitor import build_monitor_configuration
from repro.bus.bus import SoftwareBus
from repro.reconfig.scripts import move_module
from repro.runtime.mh import MH
from repro.state.frames import Handoff, ProcessState
from repro.state.machine import MACHINES

from benchmarks._meta import bench_args, bench_meta
from benchmarks.conftest import report
from tests.state.reference_codec import (
    reference_state_from_bytes,
    reference_state_to_bytes,
)

DEPTHS = [1, 64, 512]

#: Milliseconds measured on the pre-fast-path state layer (the seed's
#: per-scalar tree-walk codec, eager frame decode, sequential
#: coordinator), same container, same harness as below (best-of-10 per
#: depth with GC collected between reps; fig1 total is the min of 7
#: moves, overhead the median).  Kept so regenerated BENCH_state.json
#: always records the before/after comparison.
PRE_FAST_PATH_BASELINE = {
    "roundtrip_ms": {"1": 0.286, "64": 2.301, "512": 17.762},
    "fig1_total_ms": 4.61,
    "fig1_overhead_ms": 2.41,
}


# -- D2 roundtrip ---------------------------------------------------------


def capture_at_depth(depth: int) -> bytes:
    mh = MH("compute", MACHINES["sparc-like"])
    mh.begin_reconfig_capture("R")
    mh.capture("compute", "lllF", 4, depth, 0, 0.0)
    for level in range(depth - 1):
        mh.capture("compute", "lllF", 3, depth, level + 1, float(level))
    mh.capture("main", "llF", 1, depth, 0.0)
    return mh.encode()


def restore_packet(packet: bytes, depth: int) -> None:
    clone = MH("compute", MACHINES["vax-like"], status="clone")
    clone.incoming_packet = packet
    clone.decode()
    clone.restore("main")
    for _ in range(depth):
        clone.restore("compute")
    clone.end_restore()


def _best_of(reps: int, fn, *args) -> float:
    """Best wall time of ``reps`` runs, in ms, GC parked between runs.

    The depth-512 roundtrip allocates ~1500 frames per pass; a GC cycle
    landing mid-measurement adds 30-50% noise, so single runs routinely
    misreport.  Best-of-N with a collect between reps measures the code,
    not the collector.
    """
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def measure_roundtrips(reps: int) -> Dict[str, float]:
    results = {}
    for depth in DEPTHS:
        def once():
            packet = capture_at_depth(depth)
            restore_packet(packet, depth)

        results[str(depth)] = round(_best_of(reps, once), 3)
    return results


# -- codec only, compiled vs seed, live -----------------------------------


def _sample_state(depth: int) -> ProcessState:
    mh = MH("compute", MACHINES["sparc-like"])
    mh.begin_reconfig_capture("R")
    for level in range(depth):
        mh.capture("compute", "lllF", 3, depth, level, float(level))
    mh.capture("main", "llF", 1, depth, 0.0)
    return ProcessState.from_bytes(mh.encode())


def measure_codec(reps: int) -> Dict[str, float]:
    machine = MACHINES["sparc-like"]
    state = _sample_state(512)
    packet = state.to_bytes(machine)
    assert packet == reference_state_to_bytes(state, machine), (
        "wire format diverged from the seed codec"
    )

    def compiled_pass():
        ProcessState.from_bytes(state.to_bytes(machine), machine)

    def reference_pass():
        reference_state_from_bytes(reference_state_to_bytes(state, machine), machine)

    return {
        "compiled_ms": round(_best_of(reps, compiled_pass), 3),
        "reference_ms": round(_best_of(reps, reference_pass), 3),
    }


# -- heap-bearing move, per phase -----------------------------------------

HEAP_DEPTH = 256
HEAP_ENTRIES = 4096


def _heap_phases() -> Dict[str, float]:
    """One capture -> encode -> decode -> restore, each phase timed (ms)."""
    old = MH("shard", MACHINES["sparc-like"])
    old.copy_divulged = False  # the packet path: carry_ms times the copy
    old.heap["store"] = {f"k{i:04d}": f"v{i}" for i in range(HEAP_ENTRIES)}
    gc.collect()
    t0 = time.perf_counter()
    old.begin_reconfig_capture("Q")
    for level in range(HEAP_DEPTH):
        old.capture("descend", "lllF", 3, HEAP_DEPTH, level, float(level))
    old.capture("main", "llF", 1, HEAP_DEPTH, 0.0)
    t1 = time.perf_counter()
    packet = old.encode()
    t2 = time.perf_counter()
    clone = MH("shard", MACHINES["vax-like"], status="clone")
    clone.incoming_packet = packet
    t3 = time.perf_counter()
    clone.decode()
    t4 = time.perf_counter()
    clone.restore("main")
    for _ in range(HEAP_DEPTH):
        clone.restore("descend")
    clone.end_restore()
    t5 = time.perf_counter()
    assert clone.heap["store"] == old.heap["store"]
    # The state encode packed, handed over inside the process instead:
    # divulged with the copy a clone in this process reads in place of
    # the packet's decode, then read by that clone.
    state = ProcessState.from_bytes(packet, MACHINES["sparc-like"])
    gc.collect()
    t6 = time.perf_counter()
    carried = Handoff.divulged(state, MACHINES["sparc-like"]).read(MACHINES["vax-like"])
    t7 = time.perf_counter()
    assert carried == ProcessState.from_bytes(packet, MACHINES["vax-like"])
    return {
        "capture_ms": (t1 - t0) * 1e3,
        "encode_ms": (t2 - t1) * 1e3,
        "decode_ms": (t4 - t3) * 1e3,
        "restore_ms": (t5 - t4) * 1e3,
        "carry_ms": (t7 - t6) * 1e3,
        "packet_bytes": len(packet),
    }


def measure_heap(reps: int) -> Dict[str, float]:
    runs = [_heap_phases() for _ in range(reps)]
    results = {
        phase: round(min(run[phase] for run in runs), 3)
        for phase in ("capture_ms", "encode_ms", "decode_ms", "restore_ms", "carry_ms")
    }
    results["packet_bytes"] = runs[0]["packet_bytes"]
    results["frames"] = HEAP_DEPTH + 1
    results["heap_entries"] = HEAP_ENTRIES
    return results


# -- FIG1 end-to-end move -------------------------------------------------


def _launch_monitor() -> SoftwareBus:
    config = build_monitor_configuration(
        requests=200, group_size=4, interval=0.005, discard=False
    )
    config.modules["sensor"].attributes["interval"] = "0.0005"
    bus = SoftwareBus(sleep_scale=1.0)
    bus.add_host("alpha", MACHINES["sparc-like"])
    bus.add_host("beta", MACHINES["vax-like"])
    bus.launch(config, default_host="alpha")
    deadline = time.monotonic() + 20
    display = bus.get_module("display")
    while time.monotonic() < deadline:
        if len(display.mh.statics.get("displayed", [])) >= 2:
            return bus
        bus.check_health()
        time.sleep(0.005)
    raise AssertionError("monitor app made no progress")


def measure_fig1(rounds: int) -> Dict[str, float]:
    totals: List[float] = []
    overheads: List[float] = []
    rebinds: List[float] = []
    starts: List[float] = []
    for _ in range(rounds):
        bus = _launch_monitor()
        try:
            move = move_module(bus, "compute", machine="beta", timeout=15)
            totals.append(move.total_time * 1e3)
            overheads.append((move.total_time - move.delay_to_point) * 1e3)
            rebinds.append((move.t_rebound - move.t_divulged) * 1e3)
            starts.append((move.t_started - move.t_rebound) * 1e3)
        finally:
            bus.shutdown()
    # delay_to_point depends on where the app happened to be relative to
    # its reconfiguration point, so totals are noisy; the min is the
    # repeatable best case, while the platform-controlled overhead
    # (total - delay) and its stages are stable enough for a median.
    # ``start_ms / overhead_ms`` is the shape CI gates on: starting the
    # clone is spawning one thread, so it must stay a small share of the
    # overhead (compiling the clone inside it made it a quarter).
    return {
        "total_ms": round(min(totals), 2),
        "overhead_ms": round(statistics.median(overheads), 2),
        "rebind_ms": round(statistics.median(rebinds), 3),
        "start_ms": round(statistics.median(starts), 3),
    }


# -- harness --------------------------------------------------------------


def run_all(quick: bool) -> Dict[str, Dict[str, float]]:
    reps = 3 if quick else 10
    return {
        "roundtrip_ms": measure_roundtrips(reps),
        "codec": measure_codec(reps),
        "heap": measure_heap(reps),
        "fig1_move": measure_fig1(rounds=3 if quick else 7),
    }


def test_a5_state_path():
    results = run_all(quick=True)
    roundtrip = results["roundtrip_ms"]
    codec = results["codec"]
    baseline = PRE_FAST_PATH_BASELINE["roundtrip_ms"]
    speedups = {d: baseline[d] / roundtrip[d] for d in roundtrip}
    report(
        "A5",
        "state capture cost paid only at reconfiguration; the platform's "
        "own share of the reconfiguration delay should be small against "
        "the paper's seconds-scale acceptability bar",
        f"roundtrip ms {roundtrip} (speedup vs seed {speedups}); "
        f"codec live {codec}; heap {results['heap']}; "
        f"fig1 {results['fig1_move']}",
    )
    # The depth-512 roundtrip must beat the seed by >= 3x, and the
    # linear-in-depth D2 shape must survive the fast path.
    assert speedups["512"] >= 3.0, speedups
    per_frame_mid = roundtrip["64"] / 64
    per_frame_deep = roundtrip["512"] / 512
    assert 0.3 < per_frame_mid / per_frame_deep < 3.0, roundtrip
    # The compiled codec must beat the seed codec measured live, same run.
    assert codec["compiled_ms"] < codec["reference_ms"], codec
    # Writing a heap-bearing packet must not cost more than reading it:
    # the shape a type-inference pre-pass on 'a' values breaks (it was
    # 4.5x), whatever the host's speed.
    heap = results["heap"]
    assert heap["encode_ms"] <= heap["decode_ms"], heap


def main(argv: List[str]) -> None:
    args = bench_args(argv, __doc__, "BENCH_state.json")
    quick, out = args.quick, args.out
    results = run_all(quick)
    roundtrip = results["roundtrip_ms"]
    baseline = PRE_FAST_PATH_BASELINE["roundtrip_ms"]
    payload = {
        "benchmark": "bench_a5_state_path",
        "unit": "milliseconds",
        "quick": quick,
        "meta": bench_meta(),
        "results": results,
        "pre_fast_path_baseline": PRE_FAST_PATH_BASELINE,
        "speedup_vs_pre_fast_path": {
            "roundtrip": {
                depth: round(baseline[depth] / roundtrip[depth], 2)
                for depth in roundtrip
            },
            "codec_live": round(
                results["codec"]["reference_ms"] / results["codec"]["compiled_ms"], 2
            ),
            "fig1_total": round(
                PRE_FAST_PATH_BASELINE["fig1_total_ms"]
                / results["fig1_move"]["total_ms"],
                2,
            ),
            "fig1_overhead": round(
                PRE_FAST_PATH_BASELINE["fig1_overhead_ms"]
                / results["fig1_move"]["overhead_ms"],
                2,
            ),
        },
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
