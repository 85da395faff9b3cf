"""Recording observes the bus; it does not re-route it.

``SoftwareBus._rebuild_routing`` compiles one ``_RouteEntry`` per bound
endpoint: ``puts`` (identity deliveries) plus ``groups`` (encode once,
decode once per receiver profile, ship once per link).  Installing a
recorder may add one counting callable at the front of ``puts`` and
nothing else, for every shape of fan-out, and the counters it feeds are
exact.  A recorder installed or removed on a running bus takes effect on
the next message.  A transport's hosts follow the recorder themselves:
each link is one source of it, read once per recorder read, and a host's
last totals stay in the recorder after its transport closes.
"""

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.host import ModuleHost
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.module import prepared_source_for
from repro.bus.queues import MessageQueue
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import RemoteTransport
from repro.errors import BusError, TransportError
from repro.runtime import telemetry
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MACHINES, renamed

IDLE = "def main():\n    pass\n"

SENDER = ModuleSpec(
    name="sender",
    inline_source=IDLE,
    interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="l")],
)
RECEIVER = ModuleSpec(
    name="receiver",
    inline_source=IDLE,
    interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
)

SENDS = 7


class _FakeLink:
    """A link to a host that is never there: records what it is asked."""

    profile = MACHINES["modern-64"]

    def __init__(self, name="fake-0"):
        self.name = name
        self.appends = []
        self.events = []
        self.requests = []
        #: what the host would report from its recorder
        self.host_counters = {}

    def send_deliver(self, instance, interface, wire):
        self.appends.append([(instance, interface)])

    def send_deliver_shared(self, pairs, wire):
        self.appends.append(list(pairs))

    def send_event(self, command):
        self.events.append(command)

    def request(self, command, timeout=30.0):
        self.requests.append(command[0])
        if command[0] == "telemetry_snapshot":
            return {"counters": dict(self.host_counters), "gauges": {}, "records": []}
        if command[0] == "telemetry_disable":
            self.host_counters = {}
        return "stopped" if command[0] == "stop" else True

    def close(self):
        self.requests.append("close")


class _FakeTransport(RemoteTransport):
    """Started by the one start rule, with fake links as its hosts."""

    name = "fake"

    def __init__(self, *links):
        self._fakes = list(links) or [_FakeLink()]
        super().__init__([link.name for link in self._fakes])
        self.link = self._fakes[0]
        self._start()

    def _start_hosts(self, links, deadline):
        for link in self._fakes:
            links[link.name] = link


def _bus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("local", MACHINES["modern-64"])
    bus.add_host("sparc", MACHINES["sparc-like"])
    bus.attach_transport(_FakeTransport())
    return bus


def _bind(bus, src, dst):
    bus.add_binding(BindingSpec(src, "out", dst, "inp"))


def _receivers(bus, names, machine="local", placement=None):
    for name in names:
        bus.add_module(RECEIVER, instance=name, machine=machine, placement=placement)


# Each shape builds its topology and returns {sending endpoint: expected
# counters after SENDS messages on each}.


def _identity(bus):
    bus.add_module(SENDER, instance="s", machine="local")
    _receivers(bus, ["r0", "r1"])
    _bind(bus, "s", "r0")
    _bind(bus, "s", "r1")
    return {
        ("bus.routed", "s.out"): SENDS,
        ("bus.delivered", "r0.inp"): SENDS,
        ("bus.delivered", "r1.inp"): SENDS,
    }


def _xarch(bus):
    bus.add_module(SENDER, instance="s", machine="local")
    _receivers(bus, ["x0", "x1"], machine="sparc")
    _bind(bus, "s", "x0")
    _bind(bus, "s", "x1")
    return {
        ("bus.routed", "s.out"): SENDS,
        ("bus.delivered", "x0.inp"): SENDS,
        ("bus.delivered", "x1.inp"): SENDS,
    }


def _fake_link(bus):
    bus.add_module(SENDER, instance="s", machine="local")
    _receivers(bus, ["f0", "f1"], placement="fake:0")
    _bind(bus, "s", "f0")
    _bind(bus, "s", "f1")
    # bus.delivered is the (absent) remote host's to count.
    return {("bus.routed", "s.out"): SENDS}


def _mixed(bus):
    bus.add_module(SENDER, instance="s", machine="local")
    _receivers(bus, ["r0"])
    _receivers(bus, ["x0"], machine="sparc")
    _receivers(bus, ["f0"], placement="fake:0")
    for name in ("r0", "x0", "f0"):
        _bind(bus, "s", name)
    return {
        ("bus.routed", "s.out"): SENDS,
        ("bus.delivered", "r0.inp"): SENDS,
        ("bus.delivered", "x0.inp"): SENDS,
    }


def _fan_in(bus):
    bus.add_module(SENDER, instance="s", machine="local")
    bus.add_module(SENDER, instance="t", machine="local")
    _receivers(bus, ["r0"])
    _bind(bus, "s", "r0")
    _bind(bus, "t", "r0")
    return {
        ("bus.routed", "s.out"): SENDS,
        ("bus.routed", "t.out"): SENDS,
        ("bus.delivered", "r0.inp"): 2 * SENDS,
    }


def _unbound(bus):
    bus.add_module(SENDER, instance="s", machine="local")
    return {("bus.dropped", "s.out"): SENDS}


SHAPES = {
    "identity": _identity,
    "xarch": _xarch,
    "fake_link": _fake_link,
    "mixed": _mixed,
    "fan_in": _fan_in,
    "unbound": _unbound,
}


def _send(bus, instance, value=1):
    bus.route(
        instance,
        "out",
        Message(values=[value], fmt="l", source_instance=instance, source_interface="out"),
    )


def _senders(expected):
    return sorted({key.split(".")[0] for (name, key) in expected if name != "bus.delivered"})


def _queues(puts):
    return [put.__self__ for put in puts]


def _groups(entry):
    """``entry.groups`` with bound puts reduced to their queues (the
    recording class swap changes the bound methods, not the receivers)."""
    if entry.groups is None:
        return None
    xfers, links = entry.groups
    return (
        [(profile.name, _queues(puts)) for profile, puts in xfers],
        [(link, list(pairs)) for link, pairs in links],
    )


def _bus_counters(rec):
    return {
        k: v
        for k, v in rec.counters().items()
        if k[0] in ("bus.routed", "bus.delivered", "bus.dropped") and v
    }


def _raw_puts(bus):
    """Every put in the live table is a raw bound ``MessageQueue.put``."""
    table = bus._routing_table
    assert table is not None
    for by_interface in table.values():
        for entry in by_interface.values():
            for put in entry.puts:
                assert getattr(put, "__func__", None) is MessageQueue.put, put


@pytest.fixture
def bus():
    bus = _bus()
    yield bus
    bus.shutdown()


@pytest.mark.parametrize("shape", list(SHAPES))
def test_recording_keeps_the_compiled_fan_out(bus, shape):
    SHAPES[shape](bus)
    plain = bus._rebuild_routing()
    telemetry.enable(capacity=1024)
    recorded = bus._rebuild_routing()
    for name, by_interface in plain.items():
        for interface, entry in by_interface.items():
            twin = recorded[name][interface]
            assert _groups(twin) == _groups(entry), (name, interface)
            extra = len(twin.puts) - len(entry.puts)
            assert extra in (0, 1), (name, interface)
            assert _queues(twin.puts[extra:]) == _queues(entry.puts)
            if extra:
                assert not hasattr(twin.puts[0], "__self__")


@pytest.mark.parametrize("shape", list(SHAPES))
def test_counts_are_exact(bus, shape):
    rec = telemetry.enable(capacity=1024)
    expected = SHAPES[shape](bus)
    for sender in _senders(expected):
        for value in range(SENDS):
            _send(bus, sender, value)
    assert _bus_counters(rec) == expected


def test_link_fan_out_is_one_append_per_route(bus):
    _fake_link(bus)
    link = bus.transport("fake").link
    telemetry.enable(capacity=1024)
    for value in range(SENDS):
        _send(bus, "s", value)
    f0, f1 = (bus.get_module(name).key for name in ("f0", "f1"))
    assert link.appends == [[(f0, "inp"), (f1, "inp")]] * SENDS


def test_enable_and_disable_mid_run(bus):
    """Counting starts with the next message after ``enable()`` and stops
    with the next after ``disable()``, with no topology edit between.

    The table used to keep the ``put`` methods it was built with, so
    queues swapped to the recording class counted nothing until the next
    bind edit, and after ``disable()`` the counting closures stayed.
    """
    expected = _fan_in(bus)
    for value in range(3):
        _send(bus, "s", value)
        _send(bus, "t", value)
    rec = telemetry.enable(capacity=1024)
    for value in range(SENDS):
        _send(bus, "s", value)
        _send(bus, "t", value)
    assert _bus_counters(rec) == expected
    assert telemetry.disable() is rec
    for value in range(5):
        _send(bus, "s", value)
        _send(bus, "t", value)
    assert _bus_counters(rec) == expected
    _raw_puts(bus)


def test_host_local_routes_are_pushed_while_recording(bus):
    bus.add_module(SENDER, instance="fa", placement="fake:0")
    _receivers(bus, ["fb"], placement="fake:0")
    _bind(bus, "fa", "fb")
    link = bus.transport("fake").link
    telemetry.enable(capacity=1024)
    bus._rebuild_routing()
    fb = bus.get_module("fb").key
    assert link.events[-1] == ["set_routes", [["fa", "out", [[fb, "inp", "fb"]]]]]


def test_disable_stops_the_hosts_and_keeps_their_totals(bus):
    _fake_link(bus)
    link = bus.transport("fake").link
    rec = telemetry.enable(capacity=1024)
    _send(bus, "s")
    assert "telemetry_enable" in link.requests
    link.host_counters = {"bus.delivered|f0.inp": 1}
    telemetry.disable()
    assert "telemetry_disable" in link.requests
    assert link.host_counters == {}
    # The detached recorder still exports what the host counted.
    assert rec.counter("bus.delivered", key="f0.inp") == 1


def test_a_rebuild_while_recording_sends_no_link_request(bus):
    """A host's recorder is installed once, when recording starts, and
    not by every routing rebuild (which runs under the bus lock)."""
    _fake_link(bus)
    link = bus.transport("fake").link
    placed = len(link.requests)
    telemetry.enable(capacity=1024)
    assert link.requests[placed:] == ["telemetry_enable"]
    for value in range(3):
        bus._rebuild_routing()
        _send(bus, "s", value)
    assert link.requests[placed:] == ["telemetry_enable"]


def test_sharing_a_trace_context_is_one_request_per_host_while_recording(bus):
    """``replace()`` hands its trace context to the hosts with one request
    each (``Link.request`` carries the context); nothing without a
    recorder."""
    _fake_link(bus)
    link = bus.transport("fake").link
    placed = len(link.requests)
    bus.share_trace_context()
    assert link.requests[placed:] == []
    telemetry.enable(capacity=1024)
    bus.share_trace_context()
    assert link.requests[placed:] == ["telemetry_enable", "ping"]


def test_a_transport_attached_while_recording_is_armed():
    bus = SoftwareBus(sleep_scale=0.0)
    try:
        telemetry.enable(capacity=1024)
        transport = bus.attach_transport(_FakeTransport())
        assert transport.link.requests == ["telemetry_enable"]
    finally:
        bus.shutdown()


def test_a_transport_attached_after_a_recorded_rebuild_is_read():
    """The hosts of a transport attached after the bus first compiled a
    recorded table report all the same: the recorder reads the link, not
    a source the bus registered at that rebuild."""
    bus = SoftwareBus(sleep_scale=0.0)
    try:
        rec = telemetry.enable(capacity=1024)
        bus.add_module(SENDER, instance="s")
        bus._rebuild_routing()
        link = bus.attach_transport(_FakeTransport()).link
        link.host_counters = {"bus.delivered|f0.inp": 1}
        assert rec.counter("bus.delivered", key="f0.inp") == 1
        assert link.requests.count("telemetry_snapshot") == 1
    finally:
        bus.shutdown()


def test_a_transport_serves_one_bus():
    first, second = SoftwareBus(sleep_scale=0.0), SoftwareBus(sleep_scale=0.0)
    transport = first.attach_transport(_FakeTransport())
    try:
        with pytest.raises(BusError, match="already serves a bus"):
            second.attach_transport(transport)
        assert transport._bus is first
        assert second._transports == {}
    finally:
        second.shutdown()
        first.shutdown()
    assert transport.link.requests[-2:] == ["shutdown", "close"]


def test_owned_accepts_only_true():
    bus = SoftwareBus(sleep_scale=0.0)
    transport = _FakeTransport()
    try:
        with pytest.raises(ValueError, match="only owned=True"):
            bus.attach_transport(transport, owned=False)
        assert bus.attach_transport(transport, owned=True) is transport
    finally:
        bus.shutdown()
    assert transport.links() == []


def test_shutdown_keeps_the_closed_hosts_totals(bus):
    """The bus closes its transport at shutdown: each host is read one
    last time and never asked again, so its totals stay in the recorder
    (the detached one too) and no source is reported lost."""
    rec = telemetry.enable(capacity=1024)
    link = bus.transport("fake").link
    link.host_counters = {"bus.delivered|f0.inp": 7}
    bus.shutdown()
    asked = len(link.requests)
    assert link.requests[-3:] == ["telemetry_snapshot", "shutdown", "close"]
    assert rec.counter("bus.delivered", key="f0.inp") == 7
    telemetry.disable()
    assert rec.counter("bus.delivered", key="f0.inp") == 7
    assert len(link.requests) == asked
    assert not [e for e in rec.events() if e["kind"] == "telemetry.source_lost"]


class _Monitor:
    def __init__(self):
        self.hosts = []

    def register_host(self, host, transport=None):
        self.hosts.append(host)

    def mark_dead(self, host, reason):
        pass


def _closed(command, timeout=30.0):
    raise TransportError("link fake-0: closed")


def test_a_dead_link_does_not_disarm_the_links_after_it():
    """Recorders and heartbeats are armed per link: a dead host (a
    crashed worker stays published) is skipped, the hosts after it are
    still armed."""
    dead, live = _FakeLink(), _FakeLink("fake-1")
    dead.request = _closed
    transport = _FakeTransport(dead, live)
    try:
        monitor = _Monitor()
        telemetry.enable(capacity=1024)
        transport.enable_health(monitor, 0.05)
        assert live.requests == ["telemetry_enable", "health_enable"]
        assert monitor.hosts == ["fake-0", "fake-1"]
    finally:
        transport.close()


def test_disable_without_a_recorder_touches_no_bus(bus):
    _identity(bus)
    telemetry.enable(capacity=1024)
    telemetry.disable()
    _send(bus, "s")  # the table is built again
    table = bus._routing_table
    telemetry.disable()  # nothing installed: no change, nothing dropped
    assert bus._routing_table is table


class TestHostCounts:
    """A host counts the writes it delivers on a pushed route itself."""

    def _host(self):
        core = ModuleHost(
            renamed(MACHINES["modern-64"], "unit-host"),
            SleepPolicy(scale=0.0),
            lambda command: None,
        )
        for name, spec in (("a", SENDER), ("b", RECEIVER)):
            core.handle(
                "add",
                [
                    f"{name}#1",
                    name,
                    spec.to_abstract(prepared_source_for(spec)),
                    "original",
                ],
            )
        core.handle("set_routes", [[["a", "out", [["b#1", "inp", "b"]]]]])
        return core

    def test_routed_and_directed_are_counted_once(self):
        core = self._host()
        try:
            rec = telemetry.enable(capacity=1024)
            message = Message(values=[1], fmt="l", source_instance="a", source_interface="out")
            for _ in range(SENDS):
                core.route("a", "out", message)
            core.route_to("a", "out", "b", message)
            assert rec.counter("bus.routed", key="a.out") == SENDS
            assert rec.counter("bus.directed", key="a.out") == 1
            assert rec.counter("bus.delivered", key="b.inp") == SENDS + 1
        finally:
            core.stop_all()

    def test_tunneled_writes_are_left_to_the_bus(self):
        core = self._host()
        try:
            rec = telemetry.enable(capacity=1024)
            core.handle("set_routes", [[]])  # no route for this host any more
            core.route("a", "out", Message(values=[1], fmt="l"))
            assert rec.counter("bus.routed", key="a.out") == 0
        finally:
            core.stop_all()
