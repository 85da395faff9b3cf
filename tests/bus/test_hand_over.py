"""A replace hands the instance name over; it never renames.

The clone is built under the public name and answers to nothing until
the ``rebind`` stage, where the bus makes it the module that answers to
the name.  From that moment a directed send to the name reaches the
clone, and because no binding is edited the binding table is the same
sequence before the replace, after ``rebind``, and after commit or
rollback — delivery order among one endpoint's destinations follows
that sequence.  A successor that drops a bound interface is refused at
``rebind``, before anything changed.  A host addresses its modules by a
key fixed at placement, so the module a replace retires and its clone
can share one host and one name.
"""

import sys
import threading
import time

import pytest

from repro.bus.batch import pack_batch
from repro.bus.bus import SoftwareBus
from repro.bus.host import ModuleHost
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.link import Link
from repro.bus.message import Message
from repro.bus.module import prepared_source_for
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import (
    ReconfigurationAborted,
    ReconfigurationTimeout,
    SpecError,
    TransportError,
)
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.reconfig.scripts import figure5_replacement_script
from repro.runtime import telemetry
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MACHINES, renamed

from tests.conftest import wait_until

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

IDLE_SOURCE = "def main():\n    mh.sleep(0.01)\n"

RELAY_SOURCE = '''
def main():
    n = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("Q")
        n = mh.read1("inp")
        mh.write("out", "l", n)
'''

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

IN = InterfaceDecl(name="inp", role=Role.USE, pattern="l")
OUT = InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")


def _counter_spec(*interfaces):
    return ModuleSpec(
        name="counter",
        inline_source=COUNTER_SOURCE,
        interfaces=list(interfaces or (IN,)),
        reconfig_points=["Q"],
    )


def _idle_spec(name, *interfaces):
    return ModuleSpec(name=name, inline_source=IDLE_SOURCE, interfaces=list(interfaces))


def _message(value):
    return Message(
        values=[value], fmt="l", source_instance="feeder", source_interface="out"
    ).validated()


def _feed(bus, *values):
    for value in values:
        bus.route("feeder", "out", _message(value))


def _total(bus):
    return bus.statics_of("counter").get("total")


class _Nudger:
    """Feeds zeros so a counter blocked on ``read`` keeps coming back to
    its reconfiguration point while a replace waits for it."""

    def __init__(self, bus):
        self.bus = bus
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            _feed(self.bus, 0)
            time.sleep(0.02)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()


@pytest.fixture(
    params=[None, pytest.param("worker:0", marks=pytest.mark.multiproc)],
    ids=["inproc", "worker"],
)
def app(request, watchdog):
    """feeder -> counter, then feeder -> sink: the counter's binding is
    not the last one in the table."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1 if request.param else 0)
    bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
    bus.add_module(_counter_spec(), instance="counter", placement=request.param)
    bus.add_module(_idle_spec("sink", IN), instance="sink")
    bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
    bus.add_binding(BindingSpec("feeder", "out", "sink", "inp"))
    bus.start_module("counter")
    _feed(bus, 1, 2, 3)
    wait_until(lambda: _total(bus) == 6)
    yield bus
    bus.shutdown()


def _between_rebind_and_commit(bus, monkeypatch, action):
    """Run ``action`` when the coordinator starts the clone: after the
    rebind stage, before the commit."""
    start_module = bus.start_module
    seen = []

    def start_after(instance):
        seen.append(action())
        start_module(instance)

    monkeypatch.setattr(bus, "start_module", start_after)
    return seen


class TestDirectedSendDuringReplace:
    def test_route_to_the_public_name_reaches_the_clone(self, app, monkeypatch):
        def send():
            app.route_to("feeder", "out", "counter", _message(100))
            return app.get_module("counter")

        seen = _between_rebind_and_commit(app, monkeypatch, send)
        old = app.get_module("counter")
        with _Nudger(app):
            ReconfigurationCoordinator(app).replace("counter", timeout=30)
        (answering,) = seen
        assert answering is not old
        assert app.get_module("counter") is answering  # the clone, committed
        wait_until(lambda: _total(app) == 106)


class TestBindingSequence:
    def test_commit_keeps_the_binding_sequence(self, app, monkeypatch):
        before = app.bindings()
        seen = _between_rebind_and_commit(app, monkeypatch, app.bindings)
        with _Nudger(app):
            ReconfigurationCoordinator(app).replace("counter", timeout=30)
        assert seen == [before]  # after rebind
        assert app.bindings() == before  # after commit
        _feed(app, 10)
        wait_until(lambda: _total(app) == 16)

    def test_dropped_bound_interface_aborts_at_rebind(self, watchdog):
        bus = SoftwareBus(sleep_scale=0.0)
        try:
            bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
            bus.add_module(_counter_spec(IN, OUT), instance="counter")
            bus.add_module(_idle_spec("sink", IN), instance="sink")
            bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
            bus.add_binding(BindingSpec("counter", "out", "sink", "inp"))
            bus.add_binding(BindingSpec("feeder", "out", "sink", "inp"))
            bus.start_module("counter")
            old = bus.get_module("counter")
            before = bus.bindings()
            with _Nudger(bus):
                with pytest.raises(ReconfigurationAborted) as aborted:
                    ReconfigurationCoordinator(bus).replace(
                        "counter", new_spec=_counter_spec(IN), timeout=30
                    )
            assert aborted.value.stage == "rebind"
            assert aborted.value.rolled_back
            assert isinstance(aborted.value.cause, SpecError)  # no 'out
            assert bus.bindings() == before
            assert bus.get_module("counter") is old
            assert not bus._unbound
            total = _total(bus)
            _feed(bus, 5)
            wait_until(lambda: _total(bus) == total + 5)
        finally:
            bus.shutdown()


class TestOneHostOneName:
    """A host addresses modules by key; the name is what they write under."""

    def test_old_module_and_clone_share_a_host_and_a_name(self):
        profile = MACHINES["modern-64"]
        events = []
        core = ModuleHost(
            renamed(profile, "unit-host"), SleepPolicy(scale=0.0), events.append
        )
        spec = _counter_spec()
        try:
            for key in ("counter#1", "counter#2"):
                core.handle(
                    "add",
                    [key, "counter", spec.to_abstract(prepared_source_for(spec)), "clone"],
                )
            assert {m.name for m in core.modules.values()} == {"counter"}
            blob = pack_batch(
                [
                    (_message(7).to_wire(profile), [("counter#1", "inp", "")]),
                    (_message(8).to_wire(profile), [("counter#2", "inp", "")]),
                ]
            )
            core.handle("deliver_batch", [blob])
            # A host-local route names the destination's key and its name;
            # route_to matches the name and delivers to the key.
            core.handle(
                "set_routes", [[["feeder", "out", [["counter#2", "inp", "counter"]]]]]
            )
            core.route_to("feeder", "out", "counter", _message(9))

            def queued(key):
                return [m.values[0] for m in core.modules[key].queue("inp").snapshot()]

            assert queued("counter#1") == [7]
            assert queued("counter#2") == [8, 9]
            core.handle("remove", ["counter#1"])
            assert list(core.modules) == ["counter#2"]
        finally:
            core.stop_all()


class TestHostMove:
    """``move_queues``: the host's half of a hand-over, one command."""

    @pytest.fixture
    def core(self):
        core = ModuleHost(
            renamed(MACHINES["modern-64"], "unit-host"),
            SleepPolicy(scale=0.0),
            lambda event: None,
        )
        spec = _counter_spec()
        for key in ("counter#1", "counter#2"):
            core.handle(
                "add",
                [key, "counter", spec.to_abstract(prepared_source_for(spec)), "clone"],
            )
        yield core
        core.stop_all()

    @staticmethod
    def _deliver(core, key, *values):
        profile = core.profile
        core.handle(
            "deliver_batch",
            [pack_batch([(_message(v).to_wire(profile), [(key, "inp", "")]) for v in values])],
        )

    @staticmethod
    def _queued(core, key):
        return [m.values[0] for m in core.modules[key].queue("inp").snapshot()]

    def test_a_late_delivery_to_the_old_key_follows_the_move(self, core):
        self._deliver(core, "counter#1", 7, 8)
        self._deliver(core, "counter#2", 9)
        assert core.handle("move_queues", ["counter#1", "counter#2", True]) == {"inp": 2}
        self._deliver(core, "counter#1", 10)  # sent on a stale routing entry
        assert self._queued(core, "counter#2") == [7, 8, 9, 10]
        assert self._queued(core, "counter#1") == []

    def test_a_successor_elsewhere_takes_the_wires_and_a_late_delivery_misses(
        self, core
    ):
        rec = telemetry.enable(capacity=1 << 12)
        self._deliver(core, "counter#1", 7, 8)
        reply = core.handle("move_queues", ["counter#1", "", True])
        profile = core.profile
        assert [Message.from_wire(w, profile).values[0] for w in reply["inp"]] == [7, 8]
        self._deliver(core, "counter#1", 9)
        assert rec.counter_total("host.deliver_miss") == 1
        # A hand-back reopens the queue.
        assert core.handle("move_queues", ["", "counter#1", True]) == {}
        self._deliver(core, "counter#1", 10)
        assert self._queued(core, "counter#1") == [10]

    def test_without_preserve_the_host_discards_and_counts(self, core):
        rec = telemetry.enable(capacity=1 << 12)
        self._deliver(core, "counter#1", 7, 8)
        assert core.handle("move_queues", ["counter#1", "counter#2", False]) == {"inp": 2}
        self._deliver(core, "counter#1", 9)
        assert self._queued(core, "counter#2") == []
        assert rec.counter("queue.discarded", key="counter.inp") == 3


@pytest.mark.multiproc
def test_a_same_host_remote_replace_makes_five_link_requests(watchdog, monkeypatch):
    """signal, add, move_queues, start, remove: the queue move is one
    request, and the commit removes the old module without a separate
    stop (its host stops it as it removes it)."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
        bus.add_module(_counter_spec(), instance="counter", placement="worker:0")
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        bus.start_module("counter")
        _feed(bus, 1, 2, 3)
        wait_until(lambda: _total(bus) == 6)
        sent = []
        request = Link.request

        def counting(link, command, *args, **kwargs):
            sent.append((time.monotonic(), str(command[0])))
            return request(link, command, *args, **kwargs)

        monkeypatch.setattr(Link, "request", counting)
        with _Nudger(bus):
            report = ReconfigurationCoordinator(bus).replace("counter", timeout=30)
        monkeypatch.undo()
        assert [c for _, c in sent] == ["signal", "add", "move_queues", "start", "remove"]
        between = [c for t, c in sent if report.t_divulged <= t <= report.t_started]
        assert between == ["move_queues", "start"]
        _feed(bus, 10)
        wait_until(lambda: _total(bus) == 16)
    finally:
        bus.shutdown()


@pytest.mark.multiproc
def test_a_worker_hosted_script_replace_makes_five_link_requests(
    watchdog, monkeypatch
):
    """Figure 5's script on a worker: its cq is the one queue move, and
    the rmq paired with it sends nothing."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
        bus.add_module(
            _counter_spec(), instance="counter", attributes={"placement": "worker:0"}
        )
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        bus.start_module("counter")
        _feed(bus, 1, 2, 3)
        wait_until(lambda: _total(bus) == 6)
        machine = bus.get_module("counter").host.name
        sent = []
        request = Link.request

        def counting(link, command, *args, **kwargs):
            sent.append(str(command[0]))
            return request(link, command, *args, **kwargs)

        monkeypatch.setattr(Link, "request", counting)
        with _Nudger(bus):
            new = figure5_replacement_script(bus, "counter", machine, timeout=30)
        monkeypatch.undo()
        assert sorted(sent) == sorted(["add", "signal", "move_queues", "start", "remove"])
        assert bus.get_module(new).host.name == machine
        _feed(bus, 10)
        wait_until(lambda: (bus.statics_of(new).get("total") or 0) >= 16)
    finally:
        bus.shutdown()


@pytest.mark.multiproc
def test_a_rolled_back_remote_replace_makes_four_link_requests(watchdog, monkeypatch):
    """signal, add, abandon, remove: withdrawing the signal is one
    request, which also clears the module's reconfiguration flag."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
        bus.add_module(_counter_spec(), instance="counter", placement="worker:0")
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        bus.start_module("counter")
        _feed(bus, 1, 2, 3)
        wait_until(lambda: _total(bus) == 6)
        sent = []
        request = Link.request

        def counting(link, command, *args, **kwargs):
            sent.append(str(command[0]))
            return request(link, command, *args, **kwargs)

        monkeypatch.setattr(Link, "request", counting)
        # Blocked on an empty queue, the counter never reaches its point.
        with pytest.raises(ReconfigurationTimeout) as excinfo:
            ReconfigurationCoordinator(bus).replace("counter", timeout=0.5)
        monkeypatch.undo()
        assert excinfo.value.stage == "wait_point" and excinfo.value.rolled_back
        assert sent == ["signal", "add", "abandon", "remove"]
        _feed(bus, 10)
        wait_until(lambda: _total(bus) == 16)
    finally:
        bus.shutdown()


@pytest.mark.multiproc
def test_a_hand_back_after_a_lost_move_reply_reopens_the_old_queues(
    watchdog, monkeypatch
):
    """The host ran the move of a hand-over to an in-process clone, and
    its reply was lost: the old module's queues were sealed all the same,
    so the hand-back must reopen them."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
        old = bus.add_module(_counter_spec(), instance="counter", placement="worker:0")
        bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
        clone = bus.build_clone(_counter_spec(), "counter")
        request = Link.request

        def reply_lost(link, command, *args, **kwargs):
            value = request(link, command, *args, **kwargs)
            if command[0] == "move_queues":
                raise TransportError(f"link {link.name}: no reply to 'move_queues'")
            return value

        monkeypatch.setattr(Link, "request", reply_lost)
        with pytest.raises(TransportError):
            bus.hand_over(old, clone)
        monkeypatch.undo()
        bus.hand_back(clone, old)
        assert bus.get_module("counter") is old
        rec = telemetry.enable(capacity=1 << 12)
        old.queue("inp").put(_message(5))
        assert old.queued_counts() == {"inp": 1}
        assert rec.counter_total("host.deliver_miss") == 0
    finally:
        bus.shutdown()


@pytest.mark.multiproc
def test_shutdown_removes_a_remote_module_with_one_request(watchdog, monkeypatch):
    """Shutdown frees a module as a commit does: its host stops it as it
    removes it, so no separate stop is sent."""
    bus = SoftwareBus(sleep_scale=0.0, workers=1)
    try:
        bus.add_module(_counter_spec(), instance="counter", placement="worker:0")
        bus.start_module("counter")
        sent = []
        request = Link.request

        def counting(link, command, *args, **kwargs):
            sent.append(str(command[0]))
            return request(link, command, *args, **kwargs)

        monkeypatch.setattr(Link, "request", counting)
        bus.shutdown()
        monkeypatch.undo()
        # One remove for the module, then the bus closes the transport it
        # owns, which shuts the daemon down.
        assert sent == ["remove", "shutdown"]
    finally:
        bus.shutdown()


class TestSealRace:
    """The stochastic twin of the deterministic seal cases.

    An in-process relay is replaced 60 times under an unthrottled
    feeder.  A short switch interval and two busy threads preempt the
    feeder between reading its routing entry and its put, so some puts
    reach the old module's queue after the hand-over sealed it.  Each
    must be forwarded to the clone: every number arrives once, in order.
    """

    REPLACES = 60

    def test_every_number_arrives_once_in_order(self, watchdog):
        bus = SoftwareBus(sleep_scale=0.0)
        relay = ModuleSpec(
            name="relay",
            inline_source=RELAY_SOURCE,
            interfaces=[IN, OUT],
            reconfig_points=["Q"],
        )
        collector = ModuleSpec(
            name="collector", inline_source=COLLECTOR_SOURCE, interfaces=[IN]
        )
        bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
        bus.add_module(relay, instance="relay")
        bus.add_module(collector, instance="collector")
        bus.add_binding(BindingSpec("feeder", "out", "relay", "inp"))
        bus.add_binding(BindingSpec("relay", "out", "collector", "inp"))
        bus.start_module("relay")
        bus.start_module("collector")
        stop = threading.Event()
        sent = 0

        def feed():
            nonlocal sent
            while not stop.is_set():
                _feed(bus, sent)
                sent += 1

        def burn():
            while not stop.is_set():
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=f, daemon=True) for f in (feed, burn, burn)]
        try:
            for thread in threads:
                thread.start()
            coordinator = ReconfigurationCoordinator(bus)
            for _ in range(self.REPLACES):
                coordinator.replace("relay", timeout=30)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        try:
            deadline = time.monotonic() + 10.0
            got = []
            while len(got) < sent and time.monotonic() < deadline:
                time.sleep(0.02)
                got = list(bus.statics_of("collector").get("got", []))
            assert len(got) == sent, f"{sent - len(got)} of {sent} numbers lost"
            assert got == list(range(sent))
        finally:
            bus.shutdown()


class TestFigure5Queues:
    """Figure 5's ``cq``/``rmq`` run on the replace's queue move."""

    def test_a_put_after_cq_reaches_the_new_tail_and_rmq_keeps_the_forward(self):
        rec = telemetry.enable(capacity=1 << 12)
        bus = SoftwareBus(sleep_scale=0.0)
        relay = ModuleSpec(
            name="relay", inline_source=RELAY_SOURCE, interfaces=[IN, OUT]
        )
        try:
            old = bus.add_module(relay, instance="relay")
            new = bus.add_module(relay, instance="relay.new")
            for value in (1, 2):
                old.deliver("inp", _message(value))
            new.deliver("inp", _message(3))
            assert bus.copy_queue("relay", "inp", "relay.new") == 2
            old.deliver("inp", _message(4))  # a router's stale routing entry
            assert bus.remove_queue("relay", "inp") == 0
            old.deliver("inp", _message(5))  # the rmq left the forward alone
            assert [m.values[0] for m in new.queue("inp").snapshot()] == [1, 2, 3, 4, 5]
            assert old.queue("inp").peek_count() == 0
            assert rec.counter_total("queue.discarded") == 0
        finally:
            bus.shutdown()


class TestFigure5SealRace:
    """The script twin of :class:`TestSealRace`: Figure 5's script replaces
    an in-process relay 20 times under an unthrottled feeder.  Its ``cq``
    seals the old queue with a forward to the new one, so a put that a
    router sends on a routing entry from before the rebind reaches the
    new module: every number arrives once, in order."""

    REPLACES = 20

    def test_every_number_arrives_once_in_order(self, watchdog):
        bus = SoftwareBus(sleep_scale=0.0)
        relay = ModuleSpec(
            name="relay",
            inline_source=RELAY_SOURCE,
            interfaces=[IN, OUT],
            reconfig_points=["Q"],
        )
        collector = ModuleSpec(
            name="collector", inline_source=COLLECTOR_SOURCE, interfaces=[IN]
        )
        bus.add_module(_idle_spec("feeder", OUT), instance="feeder")
        bus.add_module(relay, instance="relay")
        bus.add_module(collector, instance="collector")
        bus.add_binding(BindingSpec("feeder", "out", "relay", "inp"))
        bus.add_binding(BindingSpec("relay", "out", "collector", "inp"))
        bus.start_module("relay")
        bus.start_module("collector")
        stop = threading.Event()
        sent = 0

        def feed():
            nonlocal sent
            while not stop.is_set():
                _feed(bus, sent)
                sent += 1

        def burn():
            while not stop.is_set():
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=f, daemon=True) for f in (feed, burn, burn)]
        try:
            for thread in threads:
                thread.start()
            name = "relay"
            for _ in range(self.REPLACES):
                name = figure5_replacement_script(bus, name, "local", timeout=30)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        try:
            deadline = time.monotonic() + 10.0
            got = []
            while len(got) < sent and time.monotonic() < deadline:
                time.sleep(0.02)
                got = list(bus.statics_of("collector").get("got", []))
            assert len(got) == sent, f"{sent - len(got)} of {sent} numbers lost"
            assert got == list(range(sent))
        finally:
            bus.shutdown()
