"""FIG1 (distributed variant) — the monitor move across real processes.

Same scenario as ``bench_fig1_monitor_move`` but with every machine a
separate OS process and the state packet crossing a real TCP socket —
the closest this reproduction gets to the paper's actual deployment
(POLYLITH modules on networked workstations).
"""

import time

import pytest

from repro.apps.monitor import build_monitor_configuration
from repro.bus.bus import SoftwareBus
from repro.bus.transport import TcpTransport
from repro.reconfig.coordinator import ReconfigurationCoordinator

from benchmarks.conftest import report


def _launch():
    config = build_monitor_configuration(
        requests=200, group_size=4, interval=0.02, discard=False
    )
    config.modules["sensor"].attributes["interval"] = "0.002"
    for inst in config.application.instances:
        inst.attributes["placement"] = "tcp:alpha"
    bus = SoftwareBus(sleep_scale=1.0)
    bus.attach_transport(
        TcpTransport(
            machines={"alpha": "sparc-like", "beta": "vax-like"}, sleep_scale=1.0
        ),
        owned=True,
    )
    bus.launch(config)
    deadline = time.monotonic() + 40
    while time.monotonic() < deadline:
        if len(bus.statics_of("display").get("displayed", [])) >= 2:
            return bus
        time.sleep(0.02)
    raise AssertionError("distributed monitor made no progress")


@pytest.mark.slow
def test_fig1_distributed_move(benchmark):
    def setup():
        return (_launch(),), {}

    def run_move(bus):
        move = ReconfigurationCoordinator(bus).replace(
            "compute", machine="beta", placement="tcp:beta", timeout=20, kind="move"
        )
        display_before = len(bus.statics_of("display")["displayed"])
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            values = bus.statics_of("display")["displayed"]
            if len(values) >= display_before + 3:
                break
            time.sleep(0.02)
        values = bus.statics_of("display")["displayed"]
        assert values == [2.5 + 4 * k for k in range(len(values))]
        bus.shutdown()
        return move

    move = benchmark.pedantic(run_move, setup=setup, rounds=2, iterations=1)
    report(
        "FIG1-TCP",
        "the move works across genuinely separate machines (processes); "
        "state crosses the network in the abstract format",
        f"cross-process move: packet {move.packet_bytes}B over TCP, "
        f"total {move.total_time * 1000:.0f}ms" if move else "completed",
    )
