"""Starting hosts: one start rule for pipe workers and TCP daemons.

A remote transport starts every host process before it awaits any
handshake, so their interpreter start-ups overlap, and it exists only
once every host answered: a placement never starts anything.  Pipe
workers answer a ``ping``; TCP daemons say hello in any order and are
matched by name.  A start that fails leaves no process, link, socket or
listener behind — the caller never got an object to close.

The worker cases run on a fake ``multiprocessing`` context whose
"processes" are threads of this one: whether a worker serves, stays
mute or exits at once is then a fact the test controls, not a timing it
hopes for.
"""

import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from types import SimpleNamespace

import pytest

from repro.bus import procpool
from repro.bus import tcp as tcpmod
from repro.bus import transport as transportmod
from repro.bus.procpool import ProcessTransport
from repro.bus.transport import TcpTransport
from repro.errors import BusError, TransportError

from tests.conftest import wait_until

pytestmark = pytest.mark.usefixtures("watchdog")

#: How long a start that must not hang may take before the test says it did.
PROMPT_S = 10.0


class _ThreadProcess:
    """A worker "process" that is a thread of this one.

    ``serve`` runs the real worker loop; ``mute`` keeps its pipe end open
    and never answers (a child hung in start-up); ``stillborn`` closes
    its pipe end at once (a child that exits before serving).
    """

    def __init__(self, context, mode, target, args):
        self._context = context
        self._mode = mode
        self._conn = args[0]
        self.terminated = False

        def run():
            try:
                if context.barrier is not None:
                    try:
                        context.barrier.wait()
                    except threading.BrokenBarrierError:
                        return  # exits unserved: the handshake reads EOF
                target(*args)
            finally:
                self._conn.close()  # a process that exits closes its pipe end

        self._thread = threading.Thread(target=run, daemon=True)

    def start(self):
        self._context.started.append(self)
        if self._mode == "serve":
            self._thread.start()
        elif self._mode == "stillborn":
            self._conn.close()

    def join(self, timeout=None):
        if self._thread.ident is not None:
            self._thread.join(timeout)

    def is_alive(self):
        if self._mode == "mute":
            return not self.terminated
        return self._thread.is_alive()

    def terminate(self):
        """Like a killed child, hang up the pipe: a bare ``close()`` would
        not wake a thread blocked reading it, a ``shutdown`` wakes both
        ends."""
        self.terminated = True
        if self._conn.closed:
            return
        with socket.socket(fileno=os.dup(self._conn.fileno())) as end:
            end.shutdown(socket.SHUT_RDWR)
        if self._thread.ident is None:  # no thread of its own to close it
            self._conn.close()


class ThreadContext:
    """Stands in for ``multiprocessing.get_context("spawn")`` in a pool.

    ``modes`` maps a worker index to how its process behaves (``serve``
    by default).  With ``barrier`` set, no worker serves before that
    many have been started.
    """

    def __init__(self, modes=None, barrier=None):
        self.modes = dict(modes or {})
        self.barrier = (
            threading.Barrier(barrier, timeout=PROMPT_S) if barrier else None
        )
        self.processes = []
        self.started = []
        self.parent_ends = []

    def Pipe(self):
        parent, child = multiprocessing.Pipe()
        self.parent_ends.append(parent)
        return parent, child

    def Process(self, target, args, name, daemon):
        # A real child gets its own copy of the pipe end; the pool closes
        # its copy once the child is started.
        args = (Connection(os.dup(args[0].fileno())),) + tuple(args[1:])
        mode = self.modes.get(len(self.processes), "serve")
        process = _ThreadProcess(self, mode, target, args)
        self.processes.append(process)
        return process


@pytest.fixture
def fake_context(monkeypatch):
    """Make pools started in this test run on a :class:`ThreadContext`."""

    def install(**kwargs):
        context = ThreadContext(**kwargs)

        def get_context(method):
            assert method == "spawn"
            return context

        monkeypatch.setattr(
            procpool, "multiprocessing", SimpleNamespace(get_context=get_context)
        )
        return context

    return install


@pytest.mark.parametrize(
    "kind", ["worker", pytest.param("tcp", marks=pytest.mark.multiproc)]
)
def test_one_slot_table_for_both_transports(kind, fake_context):
    """On either transport every host is up before the first placement,
    a slot is a host name or an index, no slot is round-robin in
    declared order, anything else is a ``BusError``, and a peek does not
    advance round-robin."""
    if kind == "worker":
        context = fake_context()
        transport, labels = ProcessTransport(workers=3), ["0", "1", "2"]
        assert len(context.started) == 3
    else:
        transport = TcpTransport(machines=3)
        labels = transport._names
    names = list(transport._names)
    try:
        assert [link.name for link in transport.links()] == names
        for index, name in enumerate(names):
            assert transport.peek_host(str(index)) == transport.peek_host(name) == name
        for bad in ("3", "-1", "nope"):
            assert transport.peek_host(bad) is None
            with pytest.raises(BusError, match=repr(bad)):
                transport._place(bad)
        placements = [transport._place(None)[2] for _ in range(4)]
        assert placements == [f"{transport.name}:{labels[i]}" for i in (0, 1, 2, 0)]
        link, host, placement = transport._place(names[1])
        assert transport._place("1") == (link, host, placement)
        assert link.name == host.name == names[1]
        assert placement == f"{transport.name}:{labels[1]}"
    finally:
        transport.close()
    assert transport.links() == []
    with pytest.raises(TransportError, match="closed"):
        transport._place("0")


class TestPoolStart:
    def test_all_workers_start_before_any_handshake(self, fake_context):
        """No worker answers its ``ping`` until all three were started,
        so a pool that awaited one handshake before starting the next
        worker would never get its first reply."""
        context = fake_context(barrier=3)
        transport = ProcessTransport(workers=3)
        try:
            assert context.started == context.processes
            assert len(context.processes) == 3
            links = transport.links()
            assert [link.name for link in links] == ["worker-0", "worker-1", "worker-2"]
            assert all(link.request(["ping"]) is not None for link in links)
        finally:
            transport.close()
        assert not any(process.is_alive() for process in context.processes)

    @pytest.mark.parametrize("mode", ["mute", "stillborn"])
    def test_a_failed_worker_fails_the_whole_start(
        self, fake_context, monkeypatch, mode
    ):
        """A worker that never answers (the start deadline passes) or
        exits at once (its pipe reads EOF) fails the construction: every
        process is stopped and every link closed, and a worker that
        exits is noticed without waiting for the deadline."""
        if mode == "mute":
            monkeypatch.setattr(transportmod, "START_TIMEOUT_S", 0.5)
        context = fake_context(modes={1: mode})
        started = time.monotonic()
        with pytest.raises(TransportError, match="worker-1"):
            ProcessTransport(workers=3)
        assert time.monotonic() - started < PROMPT_S
        assert len(context.started) == 3
        assert all(end.closed for end in context.parent_ends)
        wait_until(
            lambda: not any(process.is_alive() for process in context.processes),
            timeout=PROMPT_S,
        )
        if mode == "mute":
            assert context.processes[1].terminated


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
