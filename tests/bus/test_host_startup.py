"""Starting hosts: lazy worker spawns and TCP daemon start-up.

Two rules, one per transport.  A pipe worker spawns on first placement,
and that spawn (a process start plus a handshake, hundreds of
milliseconds) must not freeze the rest of the bus: ``links()`` is called
under the bus lock by every routing invalidation, so the slot lock may
cover table edits only.  TCP daemons start together, say hello in any
order and are matched by name; a start that fails leaves no process,
socket or listener behind — the caller never got an object to close.

The worker cases run on a fake ``multiprocessing`` context whose
"processes" are threads of this one, parked at a gate inside
``start()``: what a placement does while its worker is coming up is then
a fact the test controls, not a timing it hopes for.
"""

import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro.bus import tcp as tcpmod
from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.procpool import ProcessTransport
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import TcpTransport
from repro.errors import BusError, TransportError

from tests.conftest import wait_until

pytestmark = pytest.mark.usefixtures("watchdog")

#: How long a call that must not block may take before the test says it did.
PROMPT_S = 10.0

COLLECTOR_SOURCE = '''
def main():
    got = []
    mh.statics["got"] = []
    mh.init()
    while mh.running:
        got.append(mh.read1("inp"))
        mh.statics["got"] = got
'''

FEEDER_SOURCE = '''
def main():
    mh.sleep(0.01)
'''


class _ThreadProcess:
    """A worker "process" that is a thread, parked in ``start()`` while
    its context's gate is closed."""

    def __init__(self, context, target, args):
        def run():
            try:
                target(*args)
            finally:
                args[0].close()  # a process that exits closes its pipe end

        self._context = context
        self._thread = threading.Thread(target=run, daemon=True)
        self.terminated = False

    def start(self):
        self._context.parked.set()
        self._context.gate.wait()
        if self._context.stillborn:
            self._thread = None  # never serves: the handshake gets no reply
            return
        self._thread.start()

    def join(self, timeout=None):
        if self._thread is not None:
            self._thread.join(timeout)

    def is_alive(self):
        return self._thread is not None and self._thread.is_alive()

    def terminate(self):
        self.terminated = True


class ThreadContext:
    """Stands in for ``multiprocessing.get_context()`` in a pool."""

    def __init__(self, gate_open=True, stillborn=False):
        self.gate = threading.Event()
        if gate_open:
            self.gate.set()
        self.parked = threading.Event()
        self.stillborn = stillborn
        self.processes = []

    def Pipe(self):
        return multiprocessing.Pipe()

    def Process(self, target, args, name, daemon):
        # A real child gets its own copy of the pipe end; the pool closes
        # its copy once the child is started.  A stillborn child gets
        # none, so the bus side reads EOF where the handshake reply is due.
        if not self.stillborn:
            args = (Connection(os.dup(args[0].fileno())),) + tuple(args[1:])
        process = _ThreadProcess(self, target, args)
        self.processes.append(process)
        return process


def pool(context, workers=2):
    transport = ProcessTransport(workers=workers, sleep_scale=0.0)
    transport._ctx = context
    return transport


def in_thread(fn, *args):
    """Run ``fn`` on a thread; ``.result`` holds what it returned or raised."""

    def run():
        try:
            thread.result = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            thread.result = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.result = None
    thread.start()
    return thread


@pytest.mark.parametrize(
    "kind", ["worker", pytest.param("tcp", marks=pytest.mark.multiproc)]
)
def test_one_slot_table_for_both_transports(kind):
    """On either transport a slot is a host name or an index, no slot is
    round-robin in declared order, anything else is a ``BusError``, and a
    peek neither starts a host nor advances round-robin."""
    context = ThreadContext()
    if kind == "worker":
        transport, labels = pool(context, workers=3), ["0", "1", "2"]
    else:
        transport = TcpTransport(machines=3)
        labels = transport._names
    names = list(transport._names)
    try:
        for index, name in enumerate(names):
            assert transport.peek_host(str(index)) == transport.peek_host(name) == name
        for bad in ("3", "-1", "nope"):
            assert transport.peek_host(bad) is None
            with pytest.raises(BusError, match=repr(bad)):
                transport._place(bad)
        assert context.processes == []  # no worker spawned so far
        placements = [transport._place(None)[2] for _ in range(4)]
        assert placements == [f"{transport.name}:{labels[i]}" for i in (0, 1, 2, 0)]
        link, host, placement = transport._place(names[1])
        assert transport._place("1") == (link, host, placement)
        assert link.name == host.name == names[1]
        assert placement == f"{transport.name}:{labels[1]}"
    finally:
        transport.close()


class TestLazyWorkerSpawn:
    def test_links_returns_while_a_slot_is_spawning(self):
        context = ThreadContext(gate_open=False)
        transport = pool(context)
        placing = in_thread(transport._place, "1")
        try:
            assert context.parked.wait(PROMPT_S)
            listing = in_thread(transport.links)
            listing.join(PROMPT_S)
            assert not listing.is_alive(), "links() waited for the spawn"
            assert placing.is_alive()
            # Published slots only: the worker has not answered yet.
            assert listing.result == []
            assert transport._slots == [None, None]
        finally:
            context.gate.set()
            placing.join(PROMPT_S)
            transport.close()
        link, host, placement = placing.result
        assert (link.name, host.name, placement) == ("worker-1", "worker-1", "worker:1")

    def test_topology_edit_completes_while_another_worker_starts(self):
        """The bus-level twin: routing invalidation lists links under the
        bus lock, so a parked spawn used to hold every edit up with it."""
        context = ThreadContext()
        bus = SoftwareBus(sleep_scale=0.0)
        bus.attach_transport(pool(context), owned=True)
        collector = ModuleSpec(
            name="collector",
            inline_source=COLLECTOR_SOURCE,
            interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
        )
        feeder = ModuleSpec(
            name="feeder",
            inline_source=FEEDER_SOURCE,
            interfaces=[InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")],
        )
        binding = BindingSpec("feeder", "out", "collector", "inp")

        def got():
            return bus.statics_of("collector").get("got")

        try:
            bus.add_module(collector, placement="worker:0", start=True)
            bus.add_module(feeder)
            bus.add_binding(binding)
            bus.route("feeder", "out", Message(values=[1], fmt="l"))
            wait_until(lambda: got() == [1])  # a routing snapshot is published

            context.gate.clear()
            context.parked.clear()
            placing = in_thread(
                lambda: bus.add_module(
                    collector, instance="late", placement="worker:1", start=True
                )
            )
            assert context.parked.wait(PROMPT_S)

            def edit():
                bus.remove_binding(binding)
                bus.add_binding(binding)
                bus.route("feeder", "out", Message(values=[2], fmt="l"))

            editing = in_thread(edit)
            editing.join(PROMPT_S)
            assert not editing.is_alive(), "the edit waited for worker:1"
            assert editing.result is None
            assert placing.is_alive()
            wait_until(lambda: got() == [1, 2])

            context.gate.set()
            placing.join(PROMPT_S)
            assert not isinstance(placing.result, BaseException), placing.result
            assert bus.get_module("late").placement == "worker:1"
            assert len(bus.transport("worker").links()) == 2
        finally:
            context.gate.set()
            bus.shutdown()

    def test_racing_placements_share_one_process(self):
        context = ThreadContext(gate_open=False)
        transport = pool(context)
        first = in_thread(transport._place, "0")
        try:
            assert context.parked.wait(PROMPT_S)
            second = in_thread(transport._place, "0")
            third = in_thread(transport._place, "0")
            context.gate.set()
            for thread in (first, second, third):
                thread.join(PROMPT_S)
                assert not thread.is_alive()
            links = {id(thread.result[0]) for thread in (first, second, third)}
            assert len(links) == 1
            assert len(context.processes) == 1
            assert transport._spawning == {}
        finally:
            context.gate.set()
            transport.close()

    def test_stress_many_placers_few_slots(self):
        """More placers than cores, preempted every few bytecodes: each
        slot still gets exactly one worker and every placer its link."""
        context = ThreadContext()
        transport = pool(context, workers=3)
        barrier = threading.Barrier(12)

        def place(index):
            barrier.wait(PROMPT_S)
            return transport._place(str(index % 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            placers = [in_thread(place, index) for index in range(12)]
            for thread in placers:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(context.processes) == 3
            assert len(transport.links()) == 3
            for index, thread in enumerate(placers):
                assert thread.result[2] == f"worker:{index % 3}"
        finally:
            transport.close()

    def test_failed_handshake_leaves_the_slot_empty(self):
        context = ThreadContext(gate_open=False, stillborn=True)
        transport = pool(context)
        first = in_thread(transport._place, "0")
        assert context.parked.wait(PROMPT_S)
        second = in_thread(transport._place, "0")  # waits on the same spawn
        context.gate.set()
        for thread in (first, second):
            thread.join(PROMPT_S)
            assert isinstance(thread.result, TransportError), thread.result
        assert transport.links() == []
        assert transport._slots == [None, None]
        assert transport._spawning == {}
        assert [p.terminated for p in context.processes] == [True]
        # The reservation is gone with it: the next placement starts over.
        transport._ctx = healthy = ThreadContext()
        try:
            link, _host, placement = transport._place("0")
            assert placement == "worker:0" and link.request(["ping"]) is not None
            assert len(healthy.processes) == 1
        finally:
            transport.close()


@pytest.mark.multiproc
class TestTcpDaemonStart:
    def test_declared_order_survives_hello_order(self):
        transport = TcpTransport(machines={"b": "vax-like", "a": "sparc-like"})
        try:
            assert transport._names == ["b", "a"]
            for name, (link, host) in zip(transport._names, transport._slots):
                # Each connection was matched to its machine by the name
                # in its hello, and carries that daemon's own profile.
                assert link.name == host.name == host.profile.name == name
                assert link.request(["ping"]) is not None
            by_name = {host.name: host.profile for _, host in transport._slots}
            assert by_name["b"].endianness.value == "little"
            assert by_name["a"].endianness.value == "big"
            assert transport.peek_host("0") == "b"
            assert transport._place("1")[2] == "tcp:a"
        finally:
            transport.close()

    def test_a_daemon_that_exits_at_once_fails_the_start_cleanly(self, monkeypatch):
        real_argv = tcpmod._daemon_argv
        children = []
        sockets = []

        def argv(name, profile, address, sleep_scale):
            if name == "dead":
                return [sys.executable, "-c", "raise SystemExit(3)"]
            return real_argv(name, profile, address, sleep_scale)

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                children.append(self)

        class RecordingSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sockets.append(self)

        monkeypatch.setattr(tcpmod, "_daemon_argv", argv)
        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        monkeypatch.setattr(socket, "socket", RecordingSocket)
        started = time.monotonic()
        with pytest.raises(TransportError, match="dead"):
            TcpTransport(machines=["alive", "dead"])
        assert time.monotonic() - started < 5.0
        assert len(children) == 2
        assert all(child.poll() is not None for child in children)
        assert sockets, "the listener was not created through socket.socket"
        assert all(sock.fileno() == -1 for sock in sockets)
