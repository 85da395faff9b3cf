"""Shared monitor-app fixture machinery for reconfiguration tests."""

from __future__ import annotations

import threading

from repro.apps.kvstore import CLIENT_SOURCE, KVSTORE_MIL, SHARD_SOURCE
from repro.apps.monitor import build_monitor_configuration
from repro.bus.bus import SoftwareBus
from repro.bus.message import Message
from repro.bus.mil import parse_mil
from repro.state.machine import MACHINES

from tests.conftest import wait_until


def launch_monitor(
    requests: int = 30,
    group_size: int = 4,
    interval: float = 0.02,
    discard: bool = False,
    hosts=(("alpha", "sparc-like"), ("beta", "vax-like")),
) -> SoftwareBus:
    """Start the paced monitor app; caller must bus.shutdown()."""
    config = build_monitor_configuration(
        requests=requests,
        group_size=group_size,
        interval=interval,
        discard=discard,
    )
    config.modules["sensor"].attributes["interval"] = str(interval / 20)
    bus = SoftwareBus(sleep_scale=1.0)
    for name, architecture in hosts:
        bus.add_host(name, MACHINES[architecture])
    bus.launch(config, default_host=hosts[0][0])
    return bus


def displayed(bus: SoftwareBus):
    return bus.get_module("display").mh.statics.get("displayed", [])


def wait_displayed(bus: SoftwareBus, count: int, timeout: float = 30.0):
    def check():
        bus.check_health()
        return len(displayed(bus)) >= count

    wait_until(check, timeout=timeout)
    return displayed(bus)


def launch_manual_monitor(
    requests: int = 2,
    group_size: int = 2,
    hosts=(("alpha", "sparc-like"), ("beta", "vax-like")),
) -> SoftwareBus:
    """The monitor app with an externally-driven sensor.

    The sensor's ``limit=0`` means it emits nothing on its own; tests
    inject temperatures with :func:`feed_sensor`, so reaching the
    reconfiguration point is an explicit *event* the test controls —
    never a wall-clock outcome.  Sleeps are scaled near zero (but not
    to zero: idle loops must park, not spin).
    """
    config = build_monitor_configuration(
        requests=requests,
        group_size=group_size,
        sensor_limit=0,
        interval=1.0,
        discard=False,
    )
    bus = SoftwareBus(sleep_scale=0.005)
    for name, architecture in hosts:
        bus.add_host(name, MACHINES[architecture])
    bus.launch(config, default_host=hosts[0][0])
    return bus


def feed_sensor(bus: SoftwareBus, *values: int) -> None:
    """Inject sensor temperatures as if the sensor had produced them."""
    for value in values:
        bus.route(
            "sensor",
            "out",
            Message(
                values=[value],
                fmt="i",
                source_instance="sensor",
                source_interface="out",
            ).validated(),
        )


def wait_signalled(bus: SoftwareBus, instance: str, baseline: int = 0) -> None:
    """Block until ``instance`` has received a reconfiguration signal.

    Counted from the bus trace, not from the module's MH: by the time
    this looks, a replace that reached its point on its own may already
    have handed the name over to the clone, which was never signalled.
    """
    line = f"signal reconfig {instance}"
    wait_until(lambda: bus.trace.count(line) > baseline, timeout=15)


def launch_manual_kv(
    hosts=(("alpha", "sparc-like"), ("beta", "vax-like")),
) -> SoftwareBus:
    """The kvstore app with an externally-driven client.

    The client's script is empty (it sends nothing by itself); tests
    inject requests with :func:`kv_send` and read the shard's replies
    straight off the client's queue with :func:`kv_reply` — so every
    round-trip through the shard is an explicit event.
    """
    config = parse_mil(KVSTORE_MIL)
    config.modules["shard"].inline_source = SHARD_SOURCE
    config.modules["client"].inline_source = CLIENT_SOURCE
    config.modules["client"].attributes.update(script="", interval="1.0")
    bus = SoftwareBus(sleep_scale=0.005)
    for name, architecture in hosts:
        bus.add_host(name, MACHINES[architecture])
    bus.launch(config, default_host=hosts[0][0])
    return bus


def kv_send(bus: SoftwareBus, op: str, key: str, value: str = "") -> None:
    bus.route(
        "client",
        "requests",
        Message(
            values=[op, key, value],
            fmt="sss",
            source_instance="client",
            source_interface="requests",
        ).validated(),
    )


def kv_reply(bus: SoftwareBus, timeout: float = 10.0):
    message = bus.get_module("client").queue("replies").get(timeout, None)
    return (message.values[0][0], message.values[0][1])


def kv_round_trip(bus: SoftwareBus, op: str, key: str, value: str = ""):
    kv_send(bus, op, key, value)
    return kv_reply(bus)


def expected_averages(requests: int, group_size: int = 4, start: int = 1):
    """Averages of consecutive disjoint windows (no-discard compute)."""
    values = []
    cursor = start
    for _ in range(requests):
        window = range(cursor, cursor + group_size)
        values.append(sum(window) / group_size)
        cursor += group_size
    return values
