"""Never a silent drop: what cannot be delivered is counted.

A delivery whose module is gone, a write whose sender is unknown, and an
event whose handler raises each end in a counter or a trace line, at
whichever end of the link it happened — and the rest of the batch or
event stream still goes through.  A link handles its frames in the
order they arrive, so no reply overtakes an event sent ahead of it.
The tests drive a ``ModuleHost``, the bus-side event handler and a
``Link`` directly; only the order test sleeps, to give a reply it must
not see yet the time to arrive.
"""

import threading
import time
from queue import SimpleQueue
from types import SimpleNamespace

import pytest

from repro.bus.batch import pack_batch
from repro.bus.bus import SoftwareBus
from repro.bus.host import ModuleHost, serve_host
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.link import Link
from repro.bus.message import Message
from repro.bus.module import prepared_source_for
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import RemoteTransport
from repro.errors import TransportError
from repro.runtime import telemetry
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MACHINES, renamed

from tests.conftest import wait_until

PROFILE = MACHINES["modern-64"]

IDLE_SOURCE = "def main():\n    pass\n"


def _stage_spec():
    return ModuleSpec(
        name="stage",
        inline_source=IDLE_SOURCE,
        interfaces=[
            InterfaceDecl(name="inp", role=Role.USE, pattern="l"),
            InterfaceDecl(name="out", role=Role.DEFINE, pattern="l"),
        ],
    )


def _msg(value):
    return Message(
        values=[value], fmt="l", source_instance="stage", source_interface="out"
    ).validated()


def _queued(module, interface="inp"):
    return [m.values[0] for m in module.queue(interface).snapshot()]


def _request_in_background(link, channel):
    """Send a ``ping`` request from its own thread; return the list its
    reply lands in, once the request frame is on the channel."""
    replies = []
    threading.Thread(
        target=lambda: replies.append(link.request(["ping"], timeout=10)),
        daemon=True,
    ).start()
    wait_until(lambda: channel.sent)
    return replies


class _MemoryChannel:
    """One end of an in-memory frame channel (``send``/``recv``/``close``)."""

    def __init__(self):
        self.inbox = SimpleQueue()
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)

    def recv(self):
        frame = self.inbox.get()
        if frame is None:
            raise TransportError("closed")
        return frame

    def close(self):
        self.inbox.put(None)


# ---------------------------------------------------------------------------
# bus -> host: a host-local route to a module that is gone
# ---------------------------------------------------------------------------


class TestHostSideMiss:
    @pytest.fixture
    def core(self):
        core = ModuleHost(
            renamed(PROFILE, "unit-host"),
            SleepPolicy(scale=0.0),
            lambda command: None,
        )
        yield core
        core.stop_all()

    def _add(self, core, key, instance):
        spec = _stage_spec()
        core.handle(
            "add",
            [key, instance, spec.to_abstract(prepared_source_for(spec)), "clone"],
        )

    def test_host_local_route_to_a_missing_destination_is_counted(self, core):
        rec = telemetry.enable(capacity=256)
        self._add(core, "stage#1", "stage")
        core.handle("set_routes", [[["stage", "out", [["gone#2", "inp", "gone"]]]]])
        core.route("stage", "out", _msg(1))
        assert rec.counter("host.deliver_miss", key="unit-host") == 1


# ---------------------------------------------------------------------------
# host -> bus: a tunneled write from an unknown sender
# ---------------------------------------------------------------------------


class TestBusSideMiss:
    @pytest.fixture
    def bus(self):
        bus = SoftwareBus(sleep_scale=0.0)
        bus.add_module(_stage_spec(), instance="stage")
        for sink in ("sink_a", "sink_b"):
            bus.add_module(_stage_spec(), instance=sink)
            bus.add_binding(BindingSpec("stage", "out", sink, "inp"))
        yield bus
        bus.shutdown()

    def _write_batch(self, bus, *entries):
        """Dispatch one tunneled ``write_batch`` the way a link would."""
        transport = RemoteTransport()
        transport.attach_bus(bus)
        on_event = transport._make_on_event(
            SimpleNamespace(name="unit-host", profile=PROFILE)
        )
        groups = [
            (_msg(value).to_wire(PROFILE), [(sender, "out", destination)])
            for value, sender, destination in entries
        ]
        on_event("write_batch", [pack_batch(groups)])

    def test_an_unroutable_write_does_not_take_its_batch_down(self, bus):
        self._write_batch(bus, (1, "ghost", ""), (2, "stage", ""))
        assert _queued(bus.get_module("sink_a")) == [2]
        assert any("drop write ghost.out" in line for line in bus.trace)


# ---------------------------------------------------------------------------
# An event whose handler raises is counted, at either end of the link
# ---------------------------------------------------------------------------


def _flares(rec):
    return [e["attrs"] for e in rec.events() if e.get("kind") == "link.event_failed"]


class TestEventFailuresAreCounted:
    def test_bus_side_pump(self):
        rec = telemetry.enable(capacity=256)
        handled = []

        def on_event(command, args):
            handled.append(command)
            if command != "fine":
                raise ValueError(f"cannot handle {command}")

        channel = _MemoryChannel()
        link = Link("unit-host", PROFILE, channel, on_event=on_event)
        try:
            for command in ("bad", "worse", "fine", "bad"):
                channel.inbox.put(["evt", 0, command])
            wait_until(lambda: len(handled) == 4)
            wait_until(
                lambda: rec.counter("link.event_errors", key="unit-host") == 3
            )
            # One flare per failure streak, naming the first command of it.
            flares = _flares(rec)
            assert [f["command"] for f in flares] == ["bad", "bad"]
            assert flares[0]["host"] == "unit-host"
            assert "ValueError: cannot handle bad" in flares[0]["error"]
        finally:
            link.close()

    def test_a_handler_transport_error_does_not_end_the_link(self):
        def on_event(command, args):
            raise (TransportError if command == "bad" else OSError)(command)

        channel = _MemoryChannel()
        link = Link("unit-host", PROFILE, channel, on_event=on_event)
        try:
            channel.inbox.put(["evt", 0, "bad"])
            channel.inbox.put(["evt", 0, "worse"])
            replies = _request_in_background(link, channel)
            channel.inbox.put(["rep", 1, "still here"])
            wait_until(lambda: replies)
            assert replies == ["still here"]
            assert not link.closed.is_set()
        finally:
            link.close()

    def test_host_side_serve_loop(self):
        rec = telemetry.enable(capacity=256)
        channel = _MemoryChannel()
        server = threading.Thread(
            target=serve_host,
            args=(channel, renamed(PROFILE, "unit-host"), 0.0),
            daemon=True,
        )
        server.start()
        channel.inbox.put(["evt", 0, "no_such_command"])
        channel.inbox.put(["evt", 0, "install_packet", "ghost", b"x"])
        channel.inbox.put(["req", 1, "ping"])
        # The loop survived both bad events and still answers.
        wait_until(lambda: ["rep", 1, "unit-host"] in channel.sent)
        channel.inbox.put(["req", 2, "shutdown"])
        server.join(10)
        assert not server.is_alive()
        assert rec.counter("link.event_errors", key="unit-host") == 2
        flares = _flares(rec)
        assert [f["command"] for f in flares] == ["no_such_command"]
        assert "unknown command" in flares[0]["error"]


# ---------------------------------------------------------------------------
# A link handles its frames in the order they arrive
# ---------------------------------------------------------------------------


class TestLinkFrameOrder:
    def test_a_link_runs_its_pump_and_its_flusher_only(self):
        link = Link("threads", PROFILE, _MemoryChannel())
        try:
            names = sorted(
                t.name for t in threading.enumerate() if t.name.endswith("-threads")
            )
            assert names == ["batch-flush-threads", "link-pump-threads"]
        finally:
            link.close()

    def test_a_reply_never_overtakes_an_earlier_event(self):
        entered = threading.Event()
        release = threading.Event()
        handled = []

        def on_event(command, args):
            entered.set()
            release.wait(10)
            handled.append(command)

        channel = _MemoryChannel()
        link = Link("unit-host", PROFILE, channel, on_event=on_event)
        try:
            replies = _request_in_background(link, channel)
            channel.inbox.put(["evt", 0, "restored", "m"])
            channel.inbox.put(["rep", 1, "unit-host"])
            assert entered.wait(10)
            time.sleep(0.2)  # room for a reply read past the held event
            assert replies == [], "the reply overtook the event ahead of it"
            release.set()
            wait_until(lambda: replies)
            assert handled == ["restored"] and replies == ["unit-host"]
        finally:
            release.set()
            link.close()
