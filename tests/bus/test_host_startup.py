"""Starting hosts: one start rule, one naming rule, one transport.

Every host is a machine daemon (``python -m repro.bus.tcp``), for the
worker pool of ``SoftwareBus(workers=N)`` and for an attached
``TcpTransport`` alike.  A transport starts every daemon before it
awaits any hello, so their interpreter start-ups overlap, and it exists
only once every daemon answered: a placement never starts anything.
Daemons say hello in any order and are matched by name.  A start that
fails leaves no process, link, socket or listener behind — the caller
never got an object to close — and a transport that cannot start (no
hosts, an unknown architecture) refuses before any socket or process
exists.

The failing and the synchronised daemons are stand-ins put in place of
the real one by patching ``tcp._daemon_argv``: whether a daemon serves,
stays mute or exits at once is then a fact the test controls, not a
timing it hopes for.
"""

import socket
import subprocess
import sys
import time

import pytest

from repro.bus import tcp as tcpmod
from repro.bus import transport as transportmod
from repro.bus.bus import SoftwareBus
from repro.bus.transport import TcpTransport, WorkerTransport
from repro.errors import BusError, TransportError

pytestmark = pytest.mark.usefixtures("watchdog")

#: How long a start that must not hang may take before the test says it did.
PROMPT_S = 10.0

#: A daemon that says hello only once ``parties`` daemons have started:
#: each leaves a file in the barrier directory, waits for the others',
#: then runs the real daemon (which exits 4 if they never come).
BARRIER_DAEMON = """
import os, runpy, sys, time
barrier, parties = sys.argv[1], int(sys.argv[2])
open(os.path.join(barrier, sys.argv[3]), "w").close()
deadline = time.monotonic() + %r
while len(os.listdir(barrier)) < parties:
    if time.monotonic() > deadline:
        raise SystemExit(4)
    time.sleep(0.01)
sys.argv = ["repro.bus.tcp"] + sys.argv[3:]
runpy.run_module("repro.bus.tcp", run_name="__main__", alter_sys=True)
""" % (PROMPT_S,)

#: Stand-in daemons that never say hello.
SILENT_DAEMONS = {
    "mute": "import time; time.sleep(60)",
    "stillborn": "raise SystemExit(3)",
}


@pytest.fixture
def recorded(monkeypatch):
    """Record every child process and socket a transport creates here:
    returns ``(children, sockets)``, two lists that fill as it starts."""
    children, sockets = [], []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    class RecordingSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sockets.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(socket, "socket", RecordingSocket)
    return children, sockets


def _replace_daemons(monkeypatch, argv_for):
    """Start ``argv_for(name, real_argv)`` instead of daemon ``name``."""
    real_argv = tcpmod._daemon_argv

    def argv(name, profile, address, sleep_scale):
        return argv_for(name, real_argv(name, profile, address, sleep_scale))

    monkeypatch.setattr(tcpmod, "_daemon_argv", argv)


def _assert_nothing_left(children, sockets):
    assert all(child.poll() is not None for child in children)
    assert all(sock.fileno() == -1 for sock in sockets)


@pytest.mark.parametrize("kind", ["worker", "tcp"])
def test_one_slot_table_for_both_transports(kind):
    """Hosts given as a count are named ``<transport>-<i>`` and placed as
    ``<transport>:<i>``; hosts given by name keep their names in both
    places.  Either way every host is up before the first placement, a
    slot is a host name or an index, no slot is round-robin in declared
    order, anything else is a ``BusError``, and a peek does not advance
    round-robin."""
    if kind == "worker":
        transport = WorkerTransport(machines=3)
        names, labels = ["worker-0", "worker-1", "worker-2"], ["0", "1", "2"]
    else:
        names = labels = ["c", "a", "b"]
        transport = TcpTransport(machines=names)
    try:
        assert transport._names == names
        assert [link.name for link in transport.links()] == names
        for index, name in enumerate(names):
            assert transport.peek_host(str(index)) == transport.peek_host(name) == name
        for bad in ("3", "-1", "nope"):
            assert transport.peek_host(bad) is None
            with pytest.raises(BusError, match=repr(bad)):
                transport._place(bad)
        placements = [transport._place(None)[1] for _ in range(4)]
        assert placements == [f"{kind}:{labels[i]}" for i in (0, 1, 2, 0)]
        link, placement = transport._place(names[1])
        assert transport._place("1") == (link, placement)
        assert link.name == link.profile.name == names[1]
        assert placement == f"{kind}:{labels[1]}"
    finally:
        transport.close()
    assert transport.links() == []
    with pytest.raises(TransportError, match="closed"):
        transport._place("0")


class TestPoolStart:
    def test_all_workers_start_before_any_handshake(
        self, monkeypatch, recorded, tmp_path
    ):
        """No daemon says hello until all three were started, so a pool
        that awaited one hello before starting the next daemon would
        never get its first one."""
        children, sockets = recorded
        _replace_daemons(
            monkeypatch,
            lambda name, real: [sys.executable, "-c", BARRIER_DAEMON]
            + [str(tmp_path), "3"]
            + real[3:],
        )
        transport = WorkerTransport(machines=3)
        try:
            assert len(children) == 3
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "worker-0",
                "worker-1",
                "worker-2",
            ]
            links = transport.links()
            assert [link.name for link in links] == ["worker-0", "worker-1", "worker-2"]
            assert all(link.request(["ping"]) is not None for link in links)
        finally:
            transport.close()
        _assert_nothing_left(children, sockets)

    @pytest.mark.parametrize("mode", ["mute", "stillborn"])
    def test_a_failed_worker_fails_the_whole_start(
        self, monkeypatch, recorded, mode
    ):
        """A daemon that never says hello (the start deadline passes) or
        exits at once fails the construction: every process is reaped
        and every socket, the listener included, closed; a daemon that
        exits is noticed without waiting for the deadline."""
        children, sockets = recorded
        if mode == "mute":
            monkeypatch.setattr(transportmod, "START_TIMEOUT_S", 0.5)
        _replace_daemons(
            monkeypatch,
            lambda name, real: (
                [sys.executable, "-c", SILENT_DAEMONS[mode]]
                if name == "worker-1"
                else real
            ),
        )
        started = time.monotonic()
        with pytest.raises(TransportError, match="worker-1"):
            WorkerTransport(machines=3)
        assert time.monotonic() - started < PROMPT_S
        assert len(children) == 3
        assert sockets, "the listener was not created through socket.socket"
        _assert_nothing_left(children, sockets)


class TestRefusedStart:
    """A transport that cannot start refuses before any socket or
    process exists."""

    @pytest.mark.parametrize("machines", [0, -1, [], {}])
    def test_a_transport_with_no_hosts(self, recorded, machines):
        with pytest.raises(BusError, match="at least one host"):
            TcpTransport(machines=machines)
        assert recorded == ([], [])

    def test_a_pool_with_no_workers(self, recorded):
        with pytest.raises(BusError, match="at least one host"):
            SoftwareBus(sleep_scale=0.0, workers=-1)
        assert recorded == ([], [])

    def test_an_unknown_worker_architecture(self, recorded):
        with pytest.raises(BusError, match="unknown architecture 'pdp-11'; catalogue: "):
            SoftwareBus(sleep_scale=0.0, workers=1, worker_architecture="pdp-11")
        assert recorded == ([], [])

    def test_an_unknown_architecture_after_a_known_one(self, recorded):
        """Daemon ``a`` would be started first; it is not started at all."""
        with pytest.raises(BusError, match="unknown architecture 'nope'"):
            TcpTransport(machines={"a": "sparc-like", "b": "nope"})
        assert recorded == ([], [])


@pytest.mark.multiproc
class TestTcpDaemonStart:
    def test_declared_order_survives_hello_order(self):
        transport = TcpTransport(machines={"b": "vax-like", "a": "sparc-like"})
        try:
            assert transport._names == ["b", "a"]
            for name, link in zip(transport._names, transport._slots):
                # Each connection was matched to its machine by the name
                # in its hello, and carries that daemon's own profile.
                assert link.name == link.profile.name == name
                assert link.request(["ping"]) is not None
            by_name = {link.name: link.profile for link in transport._slots}
            assert by_name["b"].endianness.value == "little"
            assert by_name["a"].endianness.value == "big"
            assert transport.peek_host("0") == "b"
            assert transport._place("1")[1] == "tcp:a"
        finally:
            transport.close()
