"""A pinned pair on one TCP daemon: its stream stays in order through
topology edits, and reading a module's statics never breaks its link.

A producer and a consumer both run on daemon ``tcp:0``, so the producer's
writes take the host-local route the bus pushed (``set_routes``) and never
touch the bus process.  Every topology edit publishes the routes as it
ends and the host swaps its table whole, so an edit that leaves the
pair's route as it was — an unrelated binding, or a same-daemon replace
of the consumer, whose successor the new route names — never sends the
producer's writes through the bus, where one could arrive behind writes
made after it.  The consumer counts every value that arrives below the
largest it has seen; the count is a local captured at its
reconfiguration point, so it rides each replace.

A route switches from the tunnel to the host only while no module has
started under the sender's name.  So a running producer whose consumer
moves onto its daemon keeps tunneling: a host-local write could
overtake the writes it tunneled just before the move.
"""

import time

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import TcpTransport
from repro.reconfig.coordinator import ReconfigurationCoordinator

from tests.conftest import wait_until

pytestmark = [pytest.mark.multiproc, pytest.mark.usefixtures("watchdog")]

WATCHDOG_S = 120.0

#: An increasing count, one write every 0.5 ms at ``sleep_scale=1.0``.
PRODUCER_SOURCE = """
def main():
    n = 0
    mh.init()
    while mh.running:
        mh.write("out", "l", n)
        n = n + 1
        mh.sleep(0.0005)
"""

CONSUMER_SOURCE = """
def main():
    top = -1
    backwards = 0
    got = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("Q")
        n = mh.read1("inp")
        if n < top:
            backwards = backwards + 1
        else:
            top = n
        got = got + 1
        mh.statics["backwards"] = backwards
        mh.statics["got"] = got
        mh.statics["top"] = top
"""

#: Appends to and trims a statics list as fast as it can.  The list is
#: long enough (4 096 to 8 192 items) that an encoder walking it is often
#: interrupted by the module's thread.
APPENDER_SOURCE = """
def main():
    xs = []
    mh.statics["xs"] = xs
    mh.init()
    while mh.running:
        xs.append(1.5)
        if len(xs) > 8192:
            del xs[:4096]
"""

IDLE_SOURCE = """
def main():
    pass
"""


def _spec(name, source, *interfaces, points=()):
    return ModuleSpec(
        name=name,
        inline_source=source,
        interfaces=list(interfaces),
        reconfig_points=list(points),
    )


OUT = InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")
INP = InterfaceDecl(name="inp", role=Role.USE, pattern="l")


@pytest.fixture
def pinned():
    """The pair on one daemon, streaming, plus two idle in-process modules
    whose binding no route of the pair depends on."""
    bus = SoftwareBus(sleep_scale=1.0)
    bus.attach_transport(TcpTransport(machines=1, sleep_scale=1.0))
    try:
        bus.add_module(_spec("producer", PRODUCER_SOURCE, OUT), placement="tcp:0")
        bus.add_module(
            _spec("consumer", CONSUMER_SOURCE, INP, points=["Q"]), placement="tcp:0"
        )
        bus.add_binding(BindingSpec("producer", "out", "consumer", "inp"))
        bus.add_module(_spec("x", IDLE_SOURCE, OUT))
        bus.add_module(_spec("y", IDLE_SOURCE, INP))
        bus.start_module("consumer")
        bus.start_module("producer")
        wait_until(lambda: bus.statics_of("consumer").get("got", 0) > 100, timeout=30)
        yield bus
    finally:
        bus.shutdown()


def _settled(bus):
    """The consumer's statics once the stream has run on a little."""
    time.sleep(0.2)
    return bus.statics_of("consumer")


class TestPinnedOrder:
    def test_unrelated_binding_edits_keep_the_stream_in_order(self, pinned):
        bus = pinned
        before = bus.statics_of("consumer")["got"]
        binding = BindingSpec("x", "out", "y", "inp")
        for _ in range(200):
            bus.add_binding(binding)
            time.sleep(0.001)
            bus.remove_binding(binding)
            time.sleep(0.001)
        statics = _settled(bus)
        assert statics["got"] > before + 400, "the stream never overlapped an edit"
        assert statics["backwards"] == 0

    def test_same_daemon_replaces_keep_the_stream_in_order(self, pinned):
        bus = pinned
        coordinator = ReconfigurationCoordinator(bus)
        for _ in range(50):
            coordinator.replace("consumer", timeout=20)
        assert bus.get_module("consumer").placement == "tcp:0"
        statics = _settled(bus)
        assert statics["backwards"] == 0


def test_a_receiver_moved_onto_its_running_senders_daemon_stays_in_order(watchdog):
    """The producer runs on daemon ``alpha``; its consumer is replaced 60
    times, alternately onto ``alpha`` and back to ``beta``.  Order is
    asserted.  Values lost are printed, not asserted: a put that reaches
    the old module's sealed queue on the other daemon after the move is
    dropped there (``host.deliver_miss``), a known gap of its own."""
    bus = SoftwareBus(sleep_scale=1.0)
    bus.attach_transport(TcpTransport(machines=["alpha", "beta"], sleep_scale=1.0))
    try:
        bus.add_module(_spec("producer", PRODUCER_SOURCE, OUT), placement="tcp:alpha")
        bus.add_module(
            _spec("consumer", CONSUMER_SOURCE, INP, points=["Q"]),
            placement="tcp:beta",
        )
        bus.add_binding(BindingSpec("producer", "out", "consumer", "inp"))
        bus.start_module("consumer")
        bus.start_module("producer")
        wait_until(lambda: bus.statics_of("consumer").get("got", 0) > 100, timeout=30)
        coordinator = ReconfigurationCoordinator(bus)
        for move in range(60):
            target = "tcp:alpha" if move % 2 == 0 else "tcp:beta"
            coordinator.replace("consumer", placement=target, timeout=20)
            assert bus.get_module("consumer").placement == target
        statics = _settled(bus)
        lost = statics["top"] + 1 - statics["got"]
        print(f"60 moves: {statics['backwards']} out of order, {lost} lost")
        assert statics["backwards"] == 0
    finally:
        bus.shutdown()


def test_statics_read_while_a_module_edits_them(watchdog):
    """The host snapshots every list in a statics reply before encoding
    it, so a list the module is appending to cannot tear the frame."""
    bus = SoftwareBus(sleep_scale=1.0)
    bus.attach_transport(TcpTransport(machines=1, sleep_scale=1.0))
    try:
        bus.add_module(_spec("appender", APPENDER_SOURCE), placement="tcp:0")
        bus.start_module("appender")
        link = bus.get_module("appender").link
        for _ in range(200):
            xs = bus.statics_of("appender")["xs"]
            assert xs == [1.5] * len(xs)
        assert not link.closed.is_set()
    finally:
        bus.shutdown()
