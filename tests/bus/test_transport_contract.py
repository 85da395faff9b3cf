"""Transport conformance: every placement honours the same bus contract.

A module must behave identically whether it runs as a thread in the bus
process (``inproc``), in a daemon of the bus's worker pool (``worker``),
or in a daemon of an attached TCP transport (``tcp``) — that location-independence is POLYLITH's
central claim, and this suite is what enforces it.  Each test runs once
per placement:

- per-binding delivery order is the send order;
- the Figure-5 queue transfers (``cq``/``rmq``) lose and duplicate
  nothing across a process boundary;
- a stop request interrupts a read blocked on an empty queue promptly;
- ``replace()`` round-trips state through the transport, and a rebind
  that keeps failing rolls back to the old module *in its process*;
- a numbered stream through a remotely hosted relay stays exact — every
  number once, in order — through dozens of ``replace()`` calls, staying
  on a host and migrating between a worker and a TCP daemon;
- recording leaves cross-process routing as it is: host-local routes
  stay pushed, link fan-outs stay one append per send.
"""

import threading
import time
from queue import SimpleQueue

import pytest

from repro.bus import batch, transport
from repro.bus.batch import pack_batch, unpack_batch
from repro.bus.bus import SoftwareBus
from repro.bus.host import ModuleHost
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.link import Link
from repro.bus.message import Message
from repro.bus.module import ModuleState, prepared_source_for
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import TcpTransport
from repro.errors import (
    BusError,
    ModuleCrashedError,
    ModuleLifecycleError,
    ReconfigurationAborted,
    TransportError,
)
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, fault_plan
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MACHINES, renamed
from repro.tools import stats

pytestmark = pytest.mark.multiproc

#: Worst-case wall clock for one test before the watchdog kills it
#: (covers process spawn + handshake on a loaded single-core runner).
WATCHDOG_S = 120.0

COLLECTOR_SOURCE = '''
def main():
    got = []
    mh.statics["got"] = []
    mh.init()
    while mh.running:
        n = mh.read1("inp")
        got.append(n)
        mh.statics["got"] = got
'''

COUNTER_SOURCE = '''
def main():
    total = 0
    mh.statics["total"] = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("Q")
        n = mh.read1("inp")
        total = total + n
        mh.statics["total"] = total
'''

#: Crashes on a zero, before it comes back to its point.
DIVIDER_SOURCE = '''
def main():
    total = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("Q")
        n = mh.read1("inp")
        total = total + 1 // n
'''

FEEDER_SOURCE = '''
def main():
    mh.sleep(0.01)
'''

PRODUCER_SOURCE = '''
def main():
    n = 0
    mh.init()
    while n < COUNT:
        mh.write("out", "l", n)
        n = n + 1
'''

FALLER_SOURCE = '''
def main():
    raise ValueError("at once")
'''

RELAY_SOURCE = '''
def main():
    n = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("Q")
        n = mh.read1("inp")
        mh.write("out", "l", n)
'''


@pytest.fixture(autouse=True)
def _watchdog(watchdog):
    """Hard per-test timeout: a wedged worker/daemon must not hang CI.

    Every test in this module spawns workers or daemons, so the shared
    ``watchdog`` fixture (tests/conftest.py) is applied unconditionally.
    """
    yield


@pytest.fixture(params=["inproc", "worker", "tcp"])
def placed_bus(request):
    """A bus plus the placement string that selects the transport under test."""
    if request.param == "worker":
        bus = SoftwareBus(sleep_scale=0.0, workers=1)
        placement = "worker:0"
    elif request.param == "tcp":
        bus = SoftwareBus(sleep_scale=0.0)
        bus.attach_transport(TcpTransport(machines=1, sleep_scale=0.0))
        placement = "tcp:0"
    else:
        bus = SoftwareBus(sleep_scale=0.0)
        placement = None
    yield bus, placement
    bus.shutdown()


@pytest.fixture
def mixed_bus():
    """One bus with a worker and a TCP daemon attached."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    bus.attach_transport(TcpTransport(machines=1, sleep_scale=0.0))
    yield bus
    bus.shutdown()


def _collector_spec(name="collector"):
    return ModuleSpec(
        name=name,
        inline_source=COLLECTOR_SOURCE,
        interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
    )


def _counter_spec():
    return ModuleSpec(
        name="counter",
        inline_source=COUNTER_SOURCE,
        interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
        reconfig_points=["Q"],
    )


def _producer_spec(count):
    return ModuleSpec(
        name="producer",
        inline_source=PRODUCER_SOURCE.replace("COUNT", str(count)),
        interfaces=[InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")],
    )


def _feeder_spec():
    return ModuleSpec(
        name="feeder",
        inline_source=FEEDER_SOURCE,
        interfaces=[InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")],
    )


def _feed(bus, *values):
    for value in values:
        bus.route(
            "feeder",
            "out",
            Message(
                values=[value],
                fmt="l",
                source_instance="feeder",
                source_interface="out",
            ).validated(),
        )


def _wait(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"condition not reached within {timeout}s")


class _Nudger:
    """Feeds zero-valued messages so a module blocked on ``read`` keeps
    looping back to its reconfiguration point during a replace."""

    def __init__(self, bus):
        self.bus = bus
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            try:
                _feed(self.bus, 0)
            except Exception:  # noqa: BLE001 - bus may be mid-topology-change
                pass
            time.sleep(0.05)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()


class TestDeliveryContract:
    def test_per_binding_order_is_send_order(self, placed_bus):
        bus, placement = placed_bus
        bus.add_module(_collector_spec(), instance="collector", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))
        bus.start_module("collector")

        sent = list(range(200))
        _feed(bus, *sent)
        got = _wait(
            lambda: (lambda g: g if len(g) == len(sent) else None)(
                bus.statics_of("collector").get("got", [])
            )
        )
        assert list(got) == sent

    def test_queue_transfer_no_loss_no_dup(self, placed_bus):
        bus, placement = placed_bus
        # Neither collector is started: messages pile up in the queues,
        # which is exactly the window the Figure-5 transfers operate in.
        bus.add_module(_collector_spec(), instance="collector", placement=placement)
        bus.add_module(
            _collector_spec("collector2"), instance="collector2", placement=placement
        )
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))

        sent = list(range(50))
        _feed(bus, *sent)
        _wait(
            lambda: bus.get_module("collector").queued_counts().get("inp") == len(sent)
        )

        copied = bus.copy_queue("collector", "inp", "collector2")
        assert copied == len(sent)
        assert bus.get_module("collector2").queued_counts().get("inp") == len(sent)
        # cq moves: it leaves nothing behind for the rmq.
        assert bus.get_module("collector").queued_counts().get("inp") == 0

        removed = bus.remove_queue("collector", "inp")
        assert removed == 0
        assert bus.get_module("collector").queued_counts().get("inp") == 0

        # The copy preserved both content and order: the second collector
        # processes every message exactly once.
        bus.start_module("collector2")
        got = _wait(
            lambda: (lambda g: g if len(g) == len(sent) else None)(
                bus.statics_of("collector2").get("got", [])
            )
        )
        assert list(got) == sent

    def test_a_delivery_after_cq_follows_the_move_and_rmq_keeps_it(self, placed_bus):
        """``cq`` seals the old queue with a forward to the new one: a
        delivery still addressed to the old module lands at the new
        queue's tail, behind the moved prefix, and the ``rmq`` that
        follows discards nothing and leaves the forward in place."""
        bus, placement = placed_bus
        bus.add_module(_collector_spec(), instance="collector", placement=placement)
        bus.add_module(
            _collector_spec("collector2"), instance="collector2", placement=placement
        )
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))
        _feed(bus, 1, 2)
        _wait(lambda: bus.get_module("collector").queued_counts().get("inp") == 2)
        old = bus.get_module("collector")

        def deliver(value):  # as a router on a stale routing entry would
            old.deliver("inp", Message(values=[value], fmt="l").validated())

        assert bus.copy_queue("collector", "inp", "collector2") == 2
        deliver(3)
        assert bus.remove_queue("collector", "inp") == 0
        deliver(4)
        bus.start_module("collector2")
        got = _wait(
            lambda: (lambda g: g if len(g) == 4 else None)(
                bus.statics_of("collector2").get("got", [])
            )
        )
        assert list(got) == [1, 2, 3, 4]

    def test_stop_interrupts_blocked_read(self, placed_bus):
        bus, placement = placed_bus
        bus.add_module(_collector_spec(), instance="collector", placement=placement)
        bus.start_module("collector")
        module = bus.get_module("collector")
        _wait(lambda: module.state is ModuleState.RUNNING)

        started = time.monotonic()
        module.stop()
        elapsed = time.monotonic() - started
        assert module.state in (ModuleState.STOPPED, ModuleState.DIVULGED)
        assert elapsed < 2.0, f"stop took {elapsed:.2f}s against a blocked read"


class TestMachines:
    def test_a_module_runs_under_the_profile_of_its_machine(self, placed_bus):
        """A machine is its profile: ``module.host`` names the machine the
        module was placed on and is the profile its messages are encoded
        and decoded with — a remote module's is its link's."""
        bus, placement = placed_bus
        bus.add_host("big", MACHINES["sparc-like"])
        module = bus.add_module(
            _collector_spec(), instance="collector", machine="big", placement=placement
        )
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))
        bus.start_module("collector")
        if placement is None:
            machine = "big"
            assert module.mh.machine is module.host
        else:
            machine = module.link.name
            assert module.host is module.link.profile
            assert module.link.request(["ping"]) == machine  # the host's own name
        assert module.host.name == machine
        assert bus.hosts[machine] is module.host
        _feed(bus, 1, -2, 3)
        _wait(lambda: bus.statics_of("collector").get("got") == [1, -2, 3])
        assert bus.get_module("collector").host is module.host
        if placement is None:  # the architecture of machine "big"
            sparc = MACHINES["sparc-like"].describe()
            assert module.host.describe() == sparc.replace("sparc-like", "big")


@pytest.mark.parametrize("placed_bus", ["worker", "tcp"], indirect=True)
class TestRemoteFailureTypes:
    """A host's failure reaches the bus as its own type, or as a
    ``BusError`` naming it: an ``err`` reply and a crash alike."""

    def test_a_second_start_is_a_lifecycle_error(self, placed_bus):
        bus, placement = placed_bus
        module = bus.add_module(_collector_spec(), instance="c", placement=placement)
        module.start()
        with pytest.raises(ModuleLifecycleError, match="cannot start"):
            module.start()

    def test_a_type_name_in_the_text_is_not_the_type(self, placed_bus):
        bus, placement = placed_bus
        module = bus.add_module(_collector_spec(), instance="c", placement=placement)
        with pytest.raises(BusError, match="unknown command 'TransportError'") as info:
            module.link.request(["TransportError"])
        assert type(info.value) is BusError

    def test_a_crash_keeps_its_type_name(self, placed_bus):
        bus, placement = placed_bus
        spec = ModuleSpec(
            name="divider",
            inline_source=DIVIDER_SOURCE,
            interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
            reconfig_points=["Q"],
        )
        module = bus.add_module(spec, instance="divider", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "divider", "inp"))
        bus.start_module("divider")
        _feed(bus, 0)
        _wait(lambda: module.state is ModuleState.CRASHED)
        text = "ZeroDivisionError: integer division or modulo by zero"
        assert type(module.crash) is BusError
        assert str(module.crash) == text
        with pytest.raises(ModuleCrashedError, match=text):
            module.check_alive()

    def test_a_module_that_crashes_at_once_reads_crashed(self, placed_bus):
        """The host may report a crash before its ``start`` reply lands:
        the crash stands, and is never read as running."""
        bus, placement = placed_bus
        spec = ModuleSpec(name="faller", inline_source=FALLER_SOURCE)
        modules = [
            bus.add_module(spec, instance=f"faller{i}", placement=placement)
            for i in range(20)
        ]
        for module in modules:
            module.start()
        _wait(
            lambda: all(m.state is ModuleState.CRASHED for m in modules),
            timeout=2.0,
        )
        for module in modules:
            with pytest.raises(ModuleCrashedError, match="ValueError: at once"):
                module.check_alive()


class TestReplaceContract:
    def _launch_counter(self, bus, placement):
        bus.add_module(_counter_spec(), instance="counter", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        bus.start_module("counter")
        _feed(bus, 1, 2, 3)
        _wait(lambda: bus.statics_of("counter").get("total") == 6)

    def test_replace_round_trips_state(self, placed_bus):
        bus, placement = placed_bus
        self._launch_counter(bus, placement)
        coordinator = ReconfigurationCoordinator(bus)
        with _Nudger(bus):
            coordinator.replace("counter", timeout=30)
        replaced = bus.get_module("counter")
        assert replaced.state is ModuleState.RUNNING
        if placement is not None:
            assert replaced.placement == placement or replaced.placement.startswith(
                placement.split(":")[0]
            )
        # The running total crossed the transport inside the state packet.
        _feed(bus, 10)
        _wait(lambda: bus.statics_of("counter").get("total") == 16)

    def test_stack_depth_travels_with_the_packet(self, placed_bus, monkeypatch):
        # The frame count sits behind statics and heap on the wire; the
        # host that encoded the packet sends it alongside, so reporting it
        # never parses the packet.  Only the clone may decode it, and an
        # in-process clone does so on its own thread.
        from repro.state.frames import ProcessState

        parse = ProcessState.from_bytes.__func__
        coordinator_thread = threading.get_ident()

        def clone_only(cls, data, machine=None):
            if threading.get_ident() == coordinator_thread:
                raise AssertionError("replace() parsed the packet for its depth")
            return parse(cls, data, machine)

        monkeypatch.setattr(ProcessState, "from_bytes", classmethod(clone_only))
        bus, placement = placed_bus
        self._launch_counter(bus, placement)
        coordinator = ReconfigurationCoordinator(bus)
        with _Nudger(bus):
            report = coordinator.replace("counter", timeout=30)
        packet = bus.get_module("counter").mh.incoming.packet
        monkeypatch.undo()
        assert report.stack_depth == ProcessState.from_bytes(packet).stack.depth >= 1

    def test_failed_rebind_rolls_back_to_old_process(self, placed_bus):
        bus, placement = placed_bus
        self._launch_counter(bus, placement)
        coordinator = ReconfigurationCoordinator(bus)
        # Ten crashes exceed every retry budget: the transaction must
        # abort and revive the old module wherever it lives.
        plan = FaultPlan("rebind-hard").schedule(
            "coordinator.rebind", "crash", times=10
        )
        with _Nudger(bus):
            with fault_plan(plan):
                with pytest.raises(ReconfigurationAborted) as excinfo:
                    coordinator.replace("counter", timeout=30)
            assert excinfo.value.rolled_back
            assert not bus._unbound  # no clone left behind
            survivor = bus.get_module("counter")
            assert survivor.state is ModuleState.RUNNING

            # Still serving, still in its original placement...
            _feed(bus, 7)
            _wait(lambda: bus.statics_of("counter").get("total") == 13)

            # ...and a clean replace afterwards proves nothing leaked.
            coordinator.replace("counter", timeout=30)
        _feed(bus, 2)
        _wait(lambda: bus.statics_of("counter").get("total") == 15)

    def test_replace_of_a_crashed_module_aborts_at_once(self, placed_bus):
        """The crash settled the divulge wherever the module ran, so the
        replace aborts at its point wait long before the 10 s deadline."""
        bus, placement = placed_bus
        spec = ModuleSpec(
            name="divider",
            inline_source=DIVIDER_SOURCE,
            interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
            reconfig_points=["Q"],
        )
        bus.add_module(spec, instance="divider", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "divider", "inp"))
        bus.start_module("divider")
        _feed(bus, 0)
        module = bus.get_module("divider")
        _wait(lambda: module.state is ModuleState.CRASHED)
        before = bus.snapshot_configuration().describe()

        start = time.monotonic()
        with pytest.raises(ReconfigurationAborted) as excinfo:
            ReconfigurationCoordinator(bus).replace("divider")
        assert time.monotonic() - start < 1.0
        assert excinfo.value.stage == "wait_point"
        assert isinstance(excinfo.value.cause, ModuleCrashedError)
        assert bus.snapshot_configuration().describe() == before
        assert bus.get_module("divider") is module
        assert not bus._unbound  # no clone left behind

    @pytest.mark.parametrize(
        "target", ["worker:0", "tcp:0", "inproc"], ids=["same-host", "migrating", "home"]
    )
    def test_a_hand_back_reopens_the_old_queues(self, mixed_bus, target):
        """A clone that fails to start after the rebind hands the name
        back: the old module's queues, sealed by the hand-over — with no
        forward when the clone lives on another host — take deliveries
        again."""
        bus = mixed_bus
        self._launch_counter(bus, "worker:0")
        plan = FaultPlan("start-hard").schedule(
            "coordinator.start_clone", "crash", times=10
        )
        with _Nudger(bus):
            with fault_plan(plan):
                with pytest.raises(ReconfigurationAborted) as excinfo:
                    ReconfigurationCoordinator(bus).replace(
                        "counter", placement=target, timeout=30
                    )
            assert excinfo.value.stage == "start_clone"
            assert excinfo.value.rolled_back
            assert "hand back counter" in "\n".join(bus.trace)
            _feed(bus, 7)
            _wait(lambda: bus.statics_of("counter").get("total") == 13)


class TestReplaceUnderStream:
    """No message is lost to a replacement of a *remotely hosted* module.

    The relay sits between an in-process feeder and an in-process
    collector, so every number crosses its host's link twice: as a
    coalesced delivery addressed to the relay's host key, and as a
    tunneled write carrying the relay's name as sender.  The rebind
    hands the name ``relay`` over to the clone while both are in flight.
    The move seals the old module's queues on its host: what was queued
    there goes to the front of the clone's, and a number addressed to
    the old key on a routing entry taken before the hand-over is
    forwarded behind it (see ``tests/bus/test_hand_over.py`` for the
    deterministic cases).  When the clone lives on another host
    (``migrating``) the old queue is sealed with no forward: such a late
    number is counted as ``host.deliver_miss`` and lost, which is this
    variant's rare red.

    ``recorded`` runs the same routing shapes as ``plain`` (recording
    only adds counting, see ``TestRecordedRouting``); it is kept because
    the drop counters are only readable while recording.
    """

    REPLACES = 24
    PERIOD_S = 0.0025

    @pytest.mark.parametrize("recording", [True, False], ids=["recorded", "plain"])
    @pytest.mark.parametrize(
        "placements",
        [("worker:0",), ("tcp:0",), ("worker:0", "tcp:0")],
        ids=["worker", "tcp", "migrating"],
    )
    def test_every_number_arrives_once_in_order(
        self, mixed_bus, placements, recording
    ):
        bus = mixed_bus
        rec = telemetry.enable(capacity=1 << 16) if recording else None
        relay = ModuleSpec(
            name="relay",
            inline_source=RELAY_SOURCE,
            interfaces=[
                InterfaceDecl(name="inp", role=Role.USE, pattern="l"),
                InterfaceDecl(name="out", role=Role.DEFINE, pattern="l"),
            ],
            reconfig_points=["Q"],
        )
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_module(relay, instance="relay", placement=placements[0])
        bus.add_module(_collector_spec(), instance="collector")
        bus.add_binding(BindingSpec("feeder", "out", "relay", "inp"))
        bus.add_binding(BindingSpec("relay", "out", "collector", "inp"))
        bus.start_module("relay")
        bus.start_module("collector")

        sent = 0
        stop = threading.Event()

        def feed():
            nonlocal sent
            while not stop.is_set():
                _feed(bus, sent)
                sent += 1
                time.sleep(self.PERIOD_S)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            coordinator = ReconfigurationCoordinator(bus)
            for i in range(self.REPLACES):
                coordinator.replace(
                    "relay",
                    placement=placements[(i + 1) % len(placements)],
                    timeout=30,
                )
        finally:
            stop.set()
            feeder.join(10)
        assert not feeder.is_alive()

        deadline = time.monotonic() + 20.0
        got = []
        while len(got) < sent and time.monotonic() < deadline:
            time.sleep(0.02)
            got = list(bus.statics_of("collector").get("got", []))
        misses = rec.counter_total("host.deliver_miss") if rec is not None else None
        assert got == list(range(sent)), f"host.deliver_miss: {misses}"
        assert sent > self.REPLACES, "the stream never overlapped a replace"
        if rec is not None:
            assert misses == 0
            assert rec.counter_total("link.event_errors") == 0


class TestRecordedRouting:
    """Recording observes cross-process routing; it does not re-route it.

    With a recorder installed a pinned pair keeps its host-local route
    (the host counts the writes it delivers itself) and a link fan-out
    stays one coalescer append per ``route()``; removing the bus recorder
    removes the hosts' recorders too.
    """

    MESSAGES = 2000

    def test_pinned_pair_keeps_its_host_local_route(self):
        bus = SoftwareBus(sleep_scale=0.0, workers=1)
        try:
            rec = telemetry.enable(capacity=1 << 14)
            bus.add_module(_producer_spec(self.MESSAGES), instance="p", placement="worker:0")
            bus.add_module(_collector_spec(), instance="c", placement="worker:0")
            bus.add_binding(BindingSpec("p", "out", "c", "inp"))
            tunneled = []
            on_write = bus._on_transport_write

            def spy(instance, *args):
                tunneled.append(instance)
                on_write(instance, *args)

            bus._on_transport_write = spy  # add_binding pushed the route
            bus.start_module("c")
            bus.start_module("p")
            got = _wait(
                lambda: (lambda g: g if len(g) >= self.MESSAGES else None)(
                    bus.statics_of("c").get("got", [])
                )
            )
            assert list(got) == list(range(self.MESSAGES))
            assert "p" not in tunneled, "the pair's writes went through the bus"
            assert rec.counter("bus.routed", key="p.out") == self.MESSAGES
            assert rec.counter("bus.delivered", key="c.inp") == self.MESSAGES

            telemetry.disable()
            links = bus.transport("worker").links()
            counters = [link.request(["telemetry_snapshot"])["counters"] for link in links]
            assert counters and all(c == {} for c in counters), counters
        finally:
            bus.shutdown()

    def test_link_fan_out_is_one_append_per_route(self):
        bus = SoftwareBus(sleep_scale=0.0, workers=1)
        try:
            rec = telemetry.enable(capacity=1 << 14)
            bus.add_module(_feeder_spec(), instance="feeder")
            names = [f"c{i}" for i in range(8)]
            for name in names:
                bus.add_module(_collector_spec(name), instance=name, placement="worker:0")
                bus.add_binding(BindingSpec("feeder", "out", name, "inp"))
            _feed(bus, 0)  # compiles the table
            coalescer = bus.get_module("c0").link._coalescer
            appends = []

            def spying(method):
                real = getattr(coalescer, method)

                def spy(*args):
                    appends.append(method)
                    real(*args)

                setattr(coalescer, method, spy)

            spying("append")
            spying("append_shared")
            _feed(bus, *range(1, 101))
            assert appends == ["append_shared"] * 100
            sent = 101
            queues = [bus.get_module(name).queue("inp") for name in names]
            assert sum(queue.discard() for queue in queues) == len(names) * sent
            assert rec.counter("bus.routed", key="feeder.out") == sent
            assert rec.counter_total("bus.delivered") == len(names) * sent
        finally:
            bus.shutdown()

    def test_a_pool_started_after_enable_reports_its_counters(self):
        """A pool that starts after ``enable()`` is armed as the bus
        attaches it, before any module arrives: the host counts the
        module's compile and every delivery to it."""
        rec = telemetry.enable(capacity=1 << 14)
        bus = SoftwareBus(sleep_scale=0.0, workers=1)
        try:
            bus.add_module(_feeder_spec(), instance="feeder")
            bus.add_module(_collector_spec(), instance="c", placement="worker:0")
            bus.add_binding(BindingSpec("feeder", "out", "c", "inp"))
            bus.start_module("c")
            _feed(bus, *range(50))
            _wait(lambda: len(bus.statics_of("c").get("got", [])) == 50)
            assert rec.counter("module.compiled", key="collector") == 1
            assert rec.counter("bus.delivered", key="c.inp") == 50
        finally:
            bus.shutdown()


class TestNoCompileInRemoteReplace:
    """The multi-process twin of ``tests/reconfig/test_blackout_compile.py``.

    A host compiles a prepared text the first time it receives it and
    never again: every later clone on that host hits its code cache.
    ``module.compiled`` counts the misses in the host's own recorder and
    rides home on the remote counter source, so "compiles per replace"
    is readable from the bus whatever the placement.
    """

    REPLACES = 20

    @pytest.mark.parametrize("placement", ["worker:0", "tcp:0"])
    def test_compiled_counter_is_flat_on_the_host(self, mixed_bus, placement):
        bus = mixed_bus
        # The host is up with the bus, so enabling arms its recorder
        # before the module under test arrives to be compiled.
        rec = telemetry.enable(capacity=1 << 14)
        transport = bus.transport(placement.partition(":")[0])

        def compiled_on_host():
            (link,) = transport.links()
            counters = link.request(["telemetry_snapshot"])["counters"]
            return counters.get("module.compiled|counter", 0)

        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_module(_counter_spec(), instance="counter", placement=placement)
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        bus.start_module("counter")
        _feed(bus, 1, 2, 3)
        _wait(lambda: bus.statics_of("counter").get("total") == 6)
        assert compiled_on_host() == 1
        merged = rec.counter("module.compiled", key="counter")
        assert merged >= 1  # the host's count reached the bus recorder

        coordinator = ReconfigurationCoordinator(bus)
        with _Nudger(bus):
            for _ in range(self.REPLACES):
                coordinator.replace("counter", timeout=30)
        assert compiled_on_host() == 1  # every clone stayed on, and hit, this host
        assert rec.counter("module.compiled", key="counter") == merged
        _feed(bus, 10)
        _wait(lambda: bus.statics_of("counter").get("total") == 16)


class TestTraceStitching:
    """A replace yields ONE merged span tree, whatever the transport.

    The remote halves of a replacement — ``mh.capture``/``mh.encode`` in
    the old process, ``mh.decode``/``mh.restore`` in the clone's, plus
    the host-local deliveries — record in *other* recorders and ship
    home over the link's ``telemetry_snapshot`` channel.  The contract:
    after ``replace()`` returns, the bus recorder holds one complete
    causal tree per ``rc-NNNN`` (single ``reconfig.replace`` root, zero
    orphan spans), remote spans carry their host name, and every edge is
    Lamport-consistent — child ``l0`` strictly after parent ``l0``,
    because wall clocks across processes are not comparable.
    """

    @pytest.fixture(autouse=True)
    def _recorder(self):
        self.rec = telemetry.enable(capacity=8192)
        yield
        telemetry.disable()

    def _launch_counter(self, bus, placement):
        bus.add_module(_counter_spec(), instance="counter", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        bus.start_module("counter")
        _feed(bus, 1, 2, 3)
        _wait(lambda: bus.statics_of("counter").get("total") == 6)

    def _recon_spans(self, tmp_path, recon):
        path = tmp_path / "trace.jsonl"
        self.rec.export_jsonl(str(path))
        spans, _, _ = stats.split_records(stats.load_records(str(path)), recon=recon)
        return spans

    def _assert_single_tree(self, spans, recon, placement):
        assert spans, f"no spans recorded for {recon}"
        roots = [s for s in spans if s.get("parent") is None]
        assert [s["name"] for s in roots] == ["reconfig.replace"], roots
        sids = {s["sid"] for s in spans}
        orphans = [
            (s["name"], s.get("parent"), s.get("host"))
            for s in spans
            if s.get("parent") is not None and s["parent"] not in sids
        ]
        assert not orphans, f"orphan spans in {recon}: {orphans}"
        by_sid = {s["sid"]: s for s in spans}
        for span in spans:
            parent = span.get("parent")
            if parent is not None:
                assert span["l0"] > by_sid[parent]["l0"], (
                    f"Lamport violation: {span['name']} (l0={span['l0']}) "
                    f"under {by_sid[parent]['name']} (l0={by_sid[parent]['l0']})"
                )
        if placement is not None:
            remote = {s.get("host") for s in spans if s.get("host")}
            assert remote, "remote placement produced no host-tagged spans"
            remote_names = {s["name"] for s in spans if s.get("host")}
            assert "mh.capture" in remote_names or "mh.restore" in remote_names

    def test_commit_yields_one_lamport_ordered_tree(self, placed_bus, tmp_path):
        bus, placement = placed_bus
        self._launch_counter(bus, placement)
        coordinator = ReconfigurationCoordinator(bus)
        with _Nudger(bus):
            report = coordinator.replace("counter", timeout=30)
        spans = self._recon_spans(tmp_path, report.recon_id)
        self._assert_single_tree(spans, report.recon_id, placement)
        # The rendered tree is what operators see: one root, host
        # annotations on the remote hops.
        tree = stats.render_tree(spans)
        assert tree.startswith(f"reconfig.replace [{report.recon_id}]")
        if placement is not None:
            assert "@" in tree

    def test_rollback_still_flushes_remote_spans(self, placed_bus, tmp_path):
        bus, placement = placed_bus
        self._launch_counter(bus, placement)
        coordinator = ReconfigurationCoordinator(bus)
        plan = FaultPlan("rebind-hard").schedule(
            "coordinator.rebind", "crash", times=10
        )
        with _Nudger(bus):
            with fault_plan(plan):
                with pytest.raises(ReconfigurationAborted):
                    coordinator.replace("counter", timeout=30)
        # The abort path must pull the remote spans home too: the old
        # module's capture/encode happened before the rebind crashed.
        # Reconfiguration ids are globally monotonic, so learn this
        # run's id from the recorder rather than assuming rc-0001.
        all_spans = self._recon_spans(tmp_path, None)
        recons = sorted({s["recon"] for s in all_spans if s.get("recon")})
        assert len(recons) == 1, f"expected one replace, saw {recons}"
        spans = [s for s in all_spans if s.get("recon") == recons[0]]
        self._assert_single_tree(spans, recons[0], placement)


def _msg(value):
    return Message(
        values=[value],
        fmt="l",
        source_instance="feeder",
        source_interface="out",
    ).validated()


class _GateChannel:
    """Frame channel whose ``send`` blocks until the gate opens.

    Models a slow receiver: the link's flusher wedges inside ``send``
    while producers keep appending — exactly the window the pending-byte
    high-watermark must bound.
    """

    def __init__(self):
        self.gate = threading.Event()
        self.sent = []
        self._rx = SimpleQueue()

    def send(self, frame):
        self.gate.wait(WATCHDOG_S)
        self.sent.append(frame)

    def recv(self):
        self._rx.get()
        raise TransportError("closed")

    def close(self):
        self._rx.put(None)


class _FailChannel:
    """Frame channel whose sends always fail (dead peer)."""

    def __init__(self):
        self._rx = SimpleQueue()

    def send(self, frame):
        raise TransportError("peer gone")

    def recv(self):
        self._rx.get()
        raise TransportError("closed")

    def close(self):
        self._rx.put(None)


class TestBatchedDelivery:
    """Coalesced delivery must be invisible except in frame counts.

    Trace stitching under batching needs no test of its own:
    ``TestTraceStitching`` above already runs with batching enabled by
    default on every transport.
    """

    def _shrink_batches(self, monkeypatch, max_entries=7):
        """Force many tiny bus-side batches so boundaries land mid-stream."""
        monkeypatch.setattr(batch, "MAX_ENTRIES", max_entries)

    def test_fifo_preserved_across_batch_boundaries(self, placed_bus, monkeypatch):
        bus, placement = placed_bus
        bus.add_module(_collector_spec(), instance="collector", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))
        self._shrink_batches(monkeypatch)
        bus.start_module("collector")

        sent = list(range(400))
        _feed(bus, *sent)
        got = _wait(
            lambda: (lambda g: g if len(g) == len(sent) else None)(
                bus.statics_of("collector").get("got", [])
            )
        )
        assert list(got) == sent

    def test_queue_transfer_interleaves_with_in_flight_batch(
        self, placed_bus, monkeypatch
    ):
        bus, placement = placed_bus
        # Collector not started: deliveries pile up, so a prepend issued
        # right behind a burst exercises the request barrier against an
        # in-flight batch — the transferred (older) messages must land
        # ahead of the burst, never inside or behind it.
        bus.add_module(_collector_spec(), instance="collector", placement=placement)
        bus.add_module(_feeder_spec(), instance="feeder")
        bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))
        self._shrink_batches(monkeypatch)

        first = list(range(100))
        _feed(bus, *first)
        older = [-3, -2, -1]
        bus.get_module("collector").queue("inp").prepend(
            [_msg(v) for v in older]
        )
        later = list(range(100, 120))
        _feed(bus, *later)

        bus.start_module("collector")
        expected = older + first + later
        got = _wait(
            lambda: (lambda g: g if len(g) == len(expected) else None)(
                bus.statics_of("collector").get("got", [])
            )
        )
        assert list(got) == expected

    @pytest.mark.parametrize("placement", ["worker:0", "tcp:0"], ids=["worker", "tcp"])
    def test_host_tunnel_keeps_each_writer_whole_across_frames(
        self, mixed_bus, monkeypatch, placement
    ):
        """Two writers on one host each write a burst of more than two
        frames' worth (the host's own ``MAX_ENTRIES``), so the host's
        write tunnel cuts its frames mid-stream: at the bus every value
        arrives once, and each writer's values in the order written."""
        bus = mixed_bus
        burst = 2 * batch.MAX_ENTRIES + 44
        frames = []

        def counting_unpack(blob):
            wires, entries = unpack_batch(blob)
            frames.append(len(entries))
            return wires, entries

        monkeypatch.setattr(transport, "unpack_batch", counting_unpack)
        bus.add_module(_collector_spec(), instance="collector")
        for writer, base in (("a", 0), ("b", 10_000)):
            spec = ModuleSpec(
                name="writer",
                inline_source=PRODUCER_SOURCE.replace("COUNT", str(burst)).replace(
                    '"l", n)', f'"l", {base} + n)'
                ),
                interfaces=[InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")],
            )
            bus.add_module(spec, instance=writer, placement=placement)
            bus.add_binding(BindingSpec(writer, "out", "collector", "inp"))
        bus.start_module("collector")
        bus.start_module("a")
        bus.start_module("b")
        _wait(lambda: len(bus.statics_of("collector").get("got", [])) >= 2 * burst)
        time.sleep(0.1)  # a duplicate would land behind the last value
        got = list(bus.statics_of("collector")["got"])
        assert sorted(got) == list(range(burst)) + list(range(10_000, 10_000 + burst))
        assert [v for v in got if v < 10_000] == list(range(burst))
        assert [v for v in got if v >= 10_000] == list(range(10_000, 10_000 + burst))
        assert sum(frames) == 2 * burst
        assert len(frames) >= 5 and max(frames) <= batch.MAX_ENTRIES, frames

    def test_backpressure_blocks_then_drains(self, monkeypatch):
        monkeypatch.setattr(batch, "MAX_ENTRIES", 8)
        monkeypatch.setattr(batch, "MAX_BYTES", 1 << 20)
        monkeypatch.setattr(batch, "PENDING_HWM", 256)
        profile = MACHINES["modern-64"]
        channel = _GateChannel()
        link = Link("gate", profile, channel)
        try:
            wires = [_msg(i).to_wire(profile) for i in range(40)]
            done = threading.Event()

            def produce():
                for wire in wires:
                    link.send_deliver("m", "inp", wire)
                done.set()

            threading.Thread(target=produce, daemon=True).start()
            # The flusher is wedged in send(); pending bytes hit the
            # high-watermark and the producer must block, not buffer.
            assert not done.wait(0.5), "producer ran past the high-watermark"
            assert link._coalescer.pending_entries() < len(wires)

            channel.gate.set()  # receiver drains
            assert done.wait(10), "producer never unblocked after drain"

            def shipped():
                got = []
                for frame in list(channel.sent):
                    assert frame[2] == "deliver_batch"
                    batch_wires, entries = unpack_batch(frame[3])
                    got.extend(batch_wires[w] for _a, _b, _c, w in entries)
                return got if len(got) == len(wires) else None

            got = _wait(shipped, timeout=10)
            assert got == wires, "drain reordered or dropped messages"
        finally:
            link.close()

    def test_send_event_failures_are_counted(self):
        rec = telemetry.enable(capacity=1024)
        try:
            link = Link("failing", MACHINES["modern-64"], _FailChannel())
            for _ in range(3):
                link.send_event(["install_packet", "m", b"x"])
            assert rec.counter("link.events_dropped", key="failing") == 3
            flares = [
                e for e in rec.events() if e.get("kind") == "link.send_failed"
            ]
            assert len(flares) == 1, "one flare per failure streak, not per frame"
            assert flares[0]["attrs"]["host"] == "failing"
            link.close()
        finally:
            telemetry.disable()

    def _host_core(self):
        profile = MACHINES["modern-64"]
        core = ModuleHost(
            renamed(profile, "unit-host"), SleepPolicy(scale=0.0), lambda command: None
        )
        return core, profile

    def _add(self, core, key):
        spec = _collector_spec()
        core.handle(
            "add",
            [key, "collector", spec.to_abstract(prepared_source_for(spec)), "original"],
        )

    def test_deliver_batch_dispatch_and_shared_wires(self):
        core, profile = self._host_core()
        try:
            self._add(core, "a")
            self._add(core, "b")
            wire = _msg(7).to_wire(profile)
            blob = pack_batch(
                [(wire, [("a", "inp", ""), ("b", "inp", ""), ("ghost", "inp", "")])]
            )
            core.handle("deliver_batch", [blob])
            for name in ("a", "b"):
                queued = core.modules[name].queue("inp").snapshot()
                assert [m.values for m in queued] == [[7]]
        finally:
            core.stop_all()
