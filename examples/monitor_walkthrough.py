#!/usr/bin/env python
"""The Monitor example, end to end — a walkthrough of paper Section 2.

Shows every artifact of the paper in order:

- Figure 2: the configuration specification (MIL) and its parse
- Figure 3: the original compute module source
- Figure 6: the static call graph and numbered reconfiguration graph
- Figure 4: the automatically prepared (reconfigurable) module source
- Figures 1 & 5: the live move of compute to another machine,
  mid-recursion, via the replacement script

Run:  python examples/monitor_walkthrough.py
"""

import time

from repro import SoftwareBus, prepare_module
from repro.apps import build_monitor_configuration
from repro.apps.monitor import COMPUTE_SOURCE, MONITOR_MIL
from repro.reconfig.scripts import move_module
from repro.state.frames import ProcessState
from repro.state.machine import MACHINES


def banner(title):
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main():
    banner("Figure 2 — configuration specification (MIL)")
    print(MONITOR_MIL)

    banner("Figure 3 — original compute module")
    print(COMPUTE_SOURCE)

    banner("Figure 6 — reconfiguration graph (numbered edges)")
    result = prepare_module(COMPUTE_SOURCE, "compute", declared_points=["R"])
    print(result.recon_graph.describe())
    print()
    print("frame layouts:")
    for name, layout in result.layouts.items():
        print(f"  {name}: fmt={layout.fmt!r} vars={layout.names()}")
    print("\nliveness at capture edges (paper: 'data-flow analysis could")
    print("be used to determine the set of live variables'):")
    for name, liveness in result.liveness.items():
        for edge in liveness.edges:
            print(
                f"  {name} edge {edge.edge_number} ({edge.kind}): "
                f"live={sorted(edge.live)} dead={sorted(edge.dead_captured)}"
            )

    banner("Figure 4 — automatically prepared compute module")
    # The compute procedure (the part Figure 4 centres on).
    print("def compute" + result.source.split("def compute", 1)[1].rstrip())

    banner("Figures 1 & 5 — live move of compute, mid-recursion")
    config = build_monitor_configuration(
        requests=16, group_size=4, interval=0.05, discard=False
    )
    config.modules["sensor"].attributes["interval"] = "0.005"
    bus = SoftwareBus(sleep_scale=1.0)
    bus.add_host("alpha", MACHINES["sparc-like"])
    bus.add_host("beta", MACHINES["vax-like"])
    bus.launch(config, default_host="alpha")

    def displayed():
        return bus.get_module("display").mh.statics.get("displayed", [])

    while len(displayed()) < 3:
        bus.check_health()
        time.sleep(0.01)

    report = move_module(bus, "compute", machine="beta", timeout=15)
    print(report.describe())
    packet = bus.get_module("compute").mh.incoming_packet
    state = ProcessState.from_bytes(packet)
    print(f"captured state: {state.summary()}")
    print("activation records (top of stack first):")
    for record in state.stack:
        print(
            f"  {record.procedure}: resume location {record.location}, "
            f"fmt {record.fmt!r}, values {record.values}"
        )

    while len(displayed()) < 16:
        bus.check_health()
        time.sleep(0.01)
    values = displayed()
    bus.shutdown()
    assert values == [2.5 + 4 * k for k in range(16)]
    print(f"\nall 16 averages correct across the move: {values}")
    print("\nreconfiguration trace:")
    for line in bus.trace[-8:]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
