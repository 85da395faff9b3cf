#!/usr/bin/env python
"""Distributed operation: real OS processes, state over a real socket.

Every simulated machine is its own Python process (a machine daemon)
connected to the bus over TCP — the ordinary ``SoftwareBus`` with a
``TcpTransport`` attached, so the move below is the same transactional
``replace()`` every other placement uses.  The monitor application is
placed entirely on machine ``alpha``; the compute module is then moved
to machine ``beta`` — its captured activation-record stack crosses the
network as canonical abstract bytes and is decoded by a process with a
*different* simulated architecture.

Run:  python examples/distributed_tcp.py
"""

import time

from repro.apps import build_monitor_configuration
from repro.bus.bus import SoftwareBus
from repro.bus.transport import TcpTransport
from repro.reconfig.coordinator import ReconfigurationCoordinator


def main():
    config = build_monitor_configuration(
        requests=24, group_size=4, interval=0.03, discard=False
    )
    config.modules["sensor"].attributes["interval"] = "0.002"

    for inst in config.application.instances:
        inst.attributes["placement"] = "tcp:alpha"

    bus = SoftwareBus(sleep_scale=1.0)
    print("spawning machine daemons (separate OS processes) ...")
    daemons = TcpTransport(
        machines={"alpha": "sparc-like", "beta": "vax-like"}, sleep_scale=1.0
    )
    bus.attach_transport(daemons)
    for link in daemons.links():
        print(f"  machine {link.name} up ({link.profile.describe()})")

    bus.launch(config)

    def displayed():
        return bus.statics_of("display").get("displayed", [])

    while len(displayed()) < 4:
        time.sleep(0.02)
    print(f"\n{len(displayed())} averages displayed; moving compute over TCP ...")

    report = ReconfigurationCoordinator(bus).replace(
        "compute", machine="beta", placement="tcp:beta", timeout=20, kind="move"
    )
    print(f"  state packet: {report.packet_bytes} bytes over the wire")
    print(f"  delay to reconfiguration point: "
          f"{report.delay_to_point * 1000:.1f} ms")
    print(f"  total move time: {report.total_time * 1000:.1f} ms")

    while len(displayed()) < 24:
        time.sleep(0.02)
    values = displayed()
    placement = bus.get_module("compute").placement
    bus.shutdown()

    expected = [2.5 + 4 * k for k in range(24)]
    assert values == expected, (values, expected)
    print(f"\nall 24 averages exact across the cross-process move:")
    print(f"  {values}")
    assert placement == "tcp:beta", placement
    print(f"compute now runs in the beta daemon process.")


if __name__ == "__main__":
    main()
