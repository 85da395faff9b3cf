"""Remote transports: the bus-side half of out-of-process placement.

POLYLITH's central claim is that composition is independent of where
code actually executes — the bus hides module location behind interface
bindings.  A module placed with ``placement="<transport>[:<slot>]"``
runs in a host process reached over a :class:`~repro.bus.link.Link`;
without a placement it is a thread in the bus process
(:meth:`~repro.bus.bus.SoftwareBus.add_module` builds it directly).
Every host process is a machine daemon (:mod:`repro.bus.tcp`): one OS
process per simulated machine, with its own architecture profile,
reached over a TCP socket.  Two transports of them attach to the one
:class:`~repro.bus.bus.SoftwareBus`:

``worker`` (:class:`WorkerTransport`)
    the pool ``SoftwareBus(workers=N)`` owns, for multi-core scale-out;
``tcp`` (:class:`TcpTransport`)
    daemons the caller attaches, machines named or of mixed
    architectures.

This file holds what the bus process needs of them and nothing a host
runs (that is :mod:`repro.bus.host`):

:class:`RemoteModuleHandle`
    the bus-side stand-in for a remotely hosted module.  It duck-types
    the slice of :class:`ModuleInstance` the bus, the coordinator, and
    the Figure-5 primitives consume — including a proxy ``mh`` whose
    divulge/restore events are pushed by the remote host, so ``replace()``
    works unchanged when old module and clone live in different
    processes (the state packet simply travels over the transport).
:class:`RemoteTransport`
    one slot table, one naming rule and one start rule — host names in
    declared order, every host started before any is awaited,
    round-robin, slot resolution, placement, shutdown — plus remote
    telemetry, the health plane and event dispatch.  A subclass says
    only how its hosts start and stop.
:class:`TcpTransport`
    the daemons' client (and :class:`WorkerTransport`, the same client
    under the name ``worker``).  It stays here rather than in
    :mod:`repro.bus.tcp` because a daemon runs ``python -m
    repro.bus.tcp``: the client there would be back in every daemon's
    import closure.
"""

from __future__ import annotations

import dataclasses
import itertools
import socket
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bus import tcp
from repro.bus.batch import unpack_batch
from repro.bus.link import Link
from repro.bus.machine import Host, catalogued
from repro.bus.message import Message
from repro.bus.module import ModuleState, prepared_source_for
from repro.bus.spec import ModuleSpec
from repro.errors import (
    BusError,
    ModuleCrashedError,
    ModuleLifecycleError,
    TransportError,
    UnknownInterfaceError,
)
from repro.runtime import telemetry
from repro.state.machine import MachineProfile, profile_from_abstract


#: How long a transport's hosts have, all together, to start and answer:
#: interpreter start-up plus the repro imports, slow on cold caches.
START_TIMEOUT_S = 60.0


def host_profile(name: str, architecture: str) -> MachineProfile:
    """The profile of host ``name``: a catalogued architecture, renamed."""
    return dataclasses.replace(catalogued(architecture), name=name)


# ---------------------------------------------------------------------------
# Bus-side stand-ins for remotely hosted modules
# ---------------------------------------------------------------------------


class ProxyQueue:
    """Bus-side view of a remote module's per-interface queue.

    Hot-path delivery never passes through here (routing entries bind a
    direct wire-put); this covers the moved prefix a queue move puts at
    the front of a queue on another host, and the benchmarks' delivered
    counts (discards) — requests, so their effects are ordered against
    prior deliveries by per-link FIFO.  The move itself, a replace's or
    the literal ``cq``/``rmq``, is one host command
    (``SoftwareBus._move_queues``).  On the wire the queue is addressed
    by its module's host key.
    """

    __slots__ = ("_handle", "interface")

    def __init__(self, handle: "RemoteModuleHandle", interface: str):
        self._handle = handle
        self.interface = interface

    @property
    def name(self) -> str:
        return f"{self._handle.name}.{self.interface}"

    def put(self, message: Message) -> None:
        handle = self._handle
        handle.link.send_deliver(
            handle.key, self.interface, message.to_wire(handle.host.profile)
        )

    def peek_count(self) -> int:
        return int(self._handle.queued_counts().get(self.interface, 0))

    def __len__(self) -> int:
        return self.peek_count()

    def discard(self) -> int:
        """Drain remotely, returning only the count (no wires shipped
        back): how the link benchmarks count what a link delivered."""
        return int(
            self._handle.link.request(
                ["discard_queue", self._handle.key, self.interface]
            )  # type: ignore[arg-type]
        )

    def prepend(self, messages: List[Message]) -> None:
        profile = self._handle.host.profile
        self._handle.link.request(
            [
                "deliver_front",
                self._handle.key,
                self.interface,
                [m.to_wire(profile) for m in messages],
            ]
        )


class _ProxyMH:
    """The platform-facing slice of a remote module's ``mh``.

    The real MH lives in the remote process; this proxy mirrors the
    divulge/restore events the host pushes and forwards the platform's
    control calls as requests.  Only the platform-side API is covered —
    module code never sees this object.
    """

    def __init__(self, handle: "RemoteModuleHandle"):
        self._handle = handle
        self.module = handle.spec.name
        self.machine = handle.host.profile
        self.divulged = threading.Event()
        self.divulge_settled = threading.Event()
        self.restored = threading.Event()
        self.outgoing_packet: Optional[bytes] = None
        self.outgoing_frames: Optional[int] = None
        self.divulge_failed: Optional[BaseException] = None
        self._incoming: Optional[bytes] = None

    # -- status -------------------------------------------------------------

    def getstatus(self) -> str:
        return self._handle.status

    @property
    def statics(self) -> Dict[str, object]:
        """Live snapshot of the remote module's statics (one request)."""
        return dict(
            self._handle.link.request(["statics", self._handle.key])  # type: ignore[call-overload]
        )

    def stop(self) -> None:
        self._handle.stop()

    # -- state packet hand-off ------------------------------------------------

    @property
    def incoming_packet(self) -> Optional[bytes]:
        return self._incoming

    @incoming_packet.setter
    def incoming_packet(self, packet: Optional[bytes]) -> None:
        # Fire-and-forget: per-link FIFO guarantees the packet is
        # installed before any subsequent "start" request is served.
        self._incoming = packet
        if packet is not None:
            self._handle.link.send_event(
                ["install_packet", self._handle.key, packet]
            )

    def request_reconfig(self) -> None:
        self._handle.link.request(["signal", self._handle.key])

    def abandon_divulge(self) -> None:
        self._handle.link.request(["abandon", self._handle.key])

    # -- event sinks (called from the link dispatcher thread) -------------------

    def _on_divulged(self, packet: bytes, frames: int) -> None:
        self.outgoing_packet = packet
        self.outgoing_frames = frames
        self.divulged.set()
        self.divulge_settled.set()

    def _on_divulge_failed(self, text: str) -> None:
        self.divulge_failed = TransportError(text)
        self.divulge_settled.set()


class RemoteModuleHandle:
    """Bus-side stand-in for a module hosted by a remote transport.

    Duck-types the platform-facing surface of
    :class:`~repro.bus.module.ModuleInstance`: the routing rebuild, the
    coordinator, the Figure-5 primitives, and the health checks all
    operate on it unchanged.  ``thread`` is always ``None`` (the real
    thread lives remotely); liveness is mirrored from pushed lifecycle
    events instead.

    ``name`` is the instance name the module answers to and writes
    under; ``key`` (``<name>#<n>``, fixed at placement) is how its host,
    its deliveries and its events address it, so a replaced module and
    its clone can share one host and one name.
    """

    is_remote = True

    def __init__(
        self,
        key: str,
        name: str,
        spec: ModuleSpec,
        host: Host,
        link: Link,
        transport: "RemoteTransport",
        placement: str,
        status: str = "original",
    ):
        self.key = key
        self.name = name
        self.spec = spec
        self.host = host
        self.link = link
        self.transport = transport
        self.placement = placement
        self.status = status
        self.state = ModuleState.LOADED
        self.crash: Optional[BaseException] = None
        self.thread = None
        #: Its queues were sealed on its host for a successor elsewhere,
        #: which its host cannot forward to; a hand-back unseals them.
        self.sealed = False
        self.mh = _ProxyMH(self)
        self._queues: Dict[str, ProxyQueue] = {
            decl.name: ProxyQueue(self, decl.name)
            for decl in spec.interfaces
            if decl.direction.can_receive
        }

    # -- queues --------------------------------------------------------------

    def queue(self, interface: str) -> ProxyQueue:
        try:
            return self._queues[interface]
        except KeyError:
            decl = self.spec.interface(interface)  # raises if undeclared
            raise UnknownInterfaceError(
                f"{self.name}: interface {interface!r} ({decl.role.value}) "
                f"has no receive queue"
            ) from None

    def has_queue(self, interface: str) -> bool:
        return interface in self._queues

    def deliver(self, interface: str, message: Message) -> None:
        self.queue(interface).put(message)

    def queued_counts(self) -> Dict[str, int]:
        raw = self.link.request(["counts", self.key])
        return {str(k): int(v) for k, v in dict(raw).items()}  # type: ignore[call-overload]

    def remote_put(self, interface: str, sender_profile: Optional[MachineProfile]):
        """A bound delivery callable for the routing table.

        Compiled once per topology change, like a local ``queue.put``:
        per message it encodes with the *sender's* profile and queues the
        wire on the link's coalescer (shipped in a ``deliver_batch``
        frame); the remote host decodes with its own profile — the same
        canonical-encoding contract as any cross-host delivery.
        """

        def put(
            message: Message,
            _link=self.link,
            _key=self.key,
            _interface=interface,
            _profile=sender_profile,
        ) -> None:
            _link.send_deliver(_key, _interface, message.to_wire(_profile))

        return put

    # -- lifecycle -----------------------------------------------------------

    def load(self) -> None:
        pass  # loaded remotely at add time

    def start(self) -> None:
        self.link.request(["start", self.key])
        self.state = ModuleState.RUNNING

    def stop(self, timeout: float = 5.0) -> None:
        value = self.link.request(["stop", self.key], timeout=timeout + 30.0)
        self.state = ModuleState(str(value))

    def join(self, timeout: float = 5.0) -> None:
        pass  # remote stop is synchronous; nothing to join here

    def revive(self, packet: Optional[bytes] = None, timeout: float = 5.0) -> None:
        pkt = packet if packet is not None else self.mh.outgoing_packet
        if pkt is None:
            raise ModuleLifecycleError(
                f"{self.name}: no captured state to revive from"
            )
        self.mh.divulged.clear()
        self.mh.divulge_settled.clear()
        self.mh.restored.clear()
        self.mh.outgoing_packet = None
        self.mh.outgoing_frames = None
        self.mh.divulge_failed = None
        value = self.link.request(
            ["revive", self.key, pkt], timeout=timeout + 30.0
        )
        self.crash = None
        self.state = ModuleState(str(value))

    def check_alive(self) -> None:
        if self.state is ModuleState.CRASHED and self.crash is not None:
            raise ModuleCrashedError(self.name, self.crash)

    def discard(self) -> None:
        """Remove the module from its remote host (bus-side bookkeeping too)."""
        self.transport._forget(self.key)
        self.link.request(["remove", self.key])
        self.state = ModuleState.REMOVED

    # -- event sink -----------------------------------------------------------

    def _on_lifecycle(self, state_value: str, crash_text: str) -> None:
        if crash_text:
            self.crash = BusError(crash_text)
        self.state = ModuleState(state_value)

    def describe(self) -> str:
        return (
            f"{self.name} [{self.spec.name}] on {self.host.name} "
            f"({self.state.value}, placement={self.placement})"
        )


# ---------------------------------------------------------------------------
# Remote transports
# ---------------------------------------------------------------------------


class RemoteTransport:
    """Shared bus-side logic for transports hosting modules out of process.

    The slot table: ``_names`` lists the hosts in declared order, and
    ``_slots[i]`` holds host ``i``'s ``(link, host)``.  A subclass
    constructor fills the table through :meth:`_start`, so every host is
    up once the transport exists; :meth:`close` empties it.  A placement
    slot is a host name or an index into ``_names``; no slot means
    round-robin along it.  A subclass says how its hosts start
    (:meth:`_start_hosts`) and stop (:meth:`_reap`).

    The naming rule: ``hosts`` given as a count ``N`` are named
    ``<transport>-0`` … ``<transport>-(N-1)`` and a module placed on one
    is recorded as ``<transport>:<i>``; hosts given by name keep their
    names, in both places.
    """

    name = "remote"

    def __init__(self, hosts: Union[int, Sequence[str]] = ()):
        self._bus = None
        if isinstance(hosts, int):
            self._names = [f"{self.name}-{i}" for i in range(hosts)]
            self._labels = [str(i) for i in range(hosts)]
        else:
            self._names = self._labels = list(hosts)
        #: Replaced whole, never edited in place, so readers need no lock.
        self._slots: List[Tuple[Link, Host]] = []
        #: Round-robin turns; ``next()`` on a count is atomic.
        self._rr = itertools.count()
        #: Host key -> handle.  Keys are ``<instance>#<n>``, ``n`` from
        #: this counter, so they are unique across every bus sharing the
        #: transport.
        self._keys = itertools.count(1)
        self._handles: Dict[str, RemoteModuleHandle] = {}
        self._handles_lock = threading.Lock()
        #: host name -> last successfully read (counters, gauges): a
        #: link that dies mid-snapshot keeps contributing its last-known
        #: totals instead of raising into ``snapshot()``.
        self._last_link_totals: Dict[str, Tuple[Dict, Dict]] = {}
        #: hosts currently unreachable — used to emit
        #: ``telemetry.source_lost`` once per outage, not once per read.
        self._lost_links: set = set()
        #: set by enable_telemetry, cleared by disable_telemetry.
        self._hosts_recording = False
        self._health_monitor = None

    def attach_bus(self, bus) -> None:
        self._bus = bus

    # -- starting hosts --------------------------------------------------------

    def _start(self) -> None:
        """The one start rule: start every host, then fill the slot table.

        :meth:`_start_hosts` starts every host process before it awaits
        any handshake, so their interpreter start-ups overlap, and puts
        each host's link in ``links`` as it opens.  If any host fails,
        or does not answer within :data:`START_TIMEOUT_S`, every link is
        closed and every process stopped before the error propagates:
        the caller gets no object to close().
        """
        links: Dict[str, Link] = {}
        try:
            self._start_hosts(links, time.monotonic() + START_TIMEOUT_S)
        except BaseException:
            for link in links.values():
                link.close()
            self._reap(grace=0.0)
            raise
        # Declared order, not answer order.
        self._slots = [
            (links[name], Host(name=name, profile=links[name].profile))
            for name in self._names
        ]

    def _start_hosts(self, links: Dict[str, Link], deadline: float) -> None:
        """Start every host, then await each one's link by ``deadline``."""
        raise NotImplementedError

    def _reap(self, grace: float) -> None:
        """Give every host process ``grace`` seconds to exit, then stop it."""

    # -- the slot table --------------------------------------------------------

    def links(self) -> List[Link]:
        """The link of every host, in declared order."""
        return [link for link, _host in self._slots]

    def _index(self, slot: str) -> Optional[int]:
        """The index ``slot`` names (a host name or an index), else None."""
        if slot in self._names:
            return self._names.index(slot)
        try:
            index = int(slot)
        except ValueError:
            return None
        return index if 0 <= index < len(self._names) else None

    def peek_host(self, slot: Optional[str]) -> Optional[str]:
        """Resolve a slot to its host name with no side effects.

        Unlike :meth:`_place` this does not advance round-robin — the
        coordinator's health pre-flight must be able to ask "who would
        this placement target" without perturbing placement itself.
        """
        index = self._index(slot) if slot else None
        return None if index is None else self._names[index]

    def _place(self, slot: Optional[str]) -> Tuple[Link, Host, str]:
        if not slot:
            index = next(self._rr) % len(self._names)
        else:
            index = self._index(slot)
            if index is None:
                raise BusError(
                    f"{self.name} transport has no slot {slot!r} "
                    f"(hosts: {', '.join(self._names)})"
                )
        slots = self._slots
        if not slots:
            raise TransportError(f"{self.name} transport is closed")
        link, host = slots[index]
        return link, host, f"{self.name}:{self._labels[index]}"

    def _open_link(self, name: str, profile: MachineProfile, channel) -> Link:
        link = Link(name, profile, channel)
        link.on_event = self._make_on_event(link)
        return link

    def close(self) -> None:
        """Shut every host down and close its link, then reap the processes."""
        slots, self._slots = self._slots, []
        for link, _host in slots:
            try:
                link.request(["shutdown"], timeout=5)
            except BusError:
                pass
            link.close()
        self._reap(grace=5.0)

    def _broadcast(self, command: List[object], timeout: float = 30.0) -> None:
        """Request ``command`` of every live host, best-effort per link: a
        dead link (a crashed worker stays published) must not keep the
        command from the links after it."""
        for link in self.links():
            try:
                link.request(command, timeout=timeout)
            except BusError:
                pass

    # -- remote telemetry ------------------------------------------------------

    def enable_telemetry(self) -> None:
        """Install a flight recorder in every remote host (enable-if-absent
        on the host side)."""
        self._hosts_recording = True
        self._broadcast(["telemetry_enable"])

    def disable_telemetry(self) -> None:
        """Uninstall every live host's recorder, best-effort per link.

        The hosts' totals are read one last time first and served from
        then on, so the bus recorder that ``telemetry.disable()``
        detached still exports what the hosts counted.
        """
        if not self._hosts_recording:
            return
        self.telemetry_snapshot()
        self._hosts_recording = False
        self._broadcast(["telemetry_disable"], timeout=5)

    def telemetry_snapshot(self):
        """Aggregate counters/gauges across this transport's hosts.

        Returns ``(counters, gauges)`` keyed ``(name, key)`` like
        :meth:`FlightRecorder.counters` — counters summed across hosts,
        gauges max-merged — for the bus's remote aggregation source.
        Buffered trace records riding on each reply are merged straight
        into the bus recorder (``ingest_remote``).

        A host that died (or is shutting down) mid-read must not poison
        ``snapshot()``: its last successfully read totals keep counting,
        and a ``telemetry.source_lost`` event marks the outage once.
        Once ``disable_telemetry`` has run, the last totals are served
        without asking the hosts.
        """
        counters: Dict[Tuple[str, Optional[str]], int] = {}
        gauges: Dict[Tuple[str, Optional[str]], float] = {}
        rec = telemetry.recorder
        for link in self.links():
            totals = self._last_link_totals.get(link.name)
            if self._hosts_recording or totals is None:
                totals = self._read_host_totals(link, rec)
                if totals is None:
                    continue
            link_counters, link_gauges = totals
            for k, v in link_counters.items():
                counters[k] = counters.get(k, 0) + v
            for k, v in link_gauges.items():
                current = gauges.get(k)
                if current is None or v > current:
                    gauges[k] = v
        return counters, gauges

    def _read_host_totals(self, link: Link, rec) -> Optional[Tuple[Dict, Dict]]:
        """One host's ``(counters, gauges)``, or its last known totals."""
        try:
            snap = link.request(["telemetry_snapshot"])
            link_counters: Dict[Tuple[str, Optional[str]], int] = {}
            link_gauges: Dict[Tuple[str, Optional[str]], float] = {}
            for flat, value in dict(snap.get("counters", {})).items():
                name, _, key = str(flat).partition("|")
                link_counters[(name, key or None)] = int(value)
            for flat, value in dict(snap.get("gauges", {})).items():
                name, _, key = str(flat).partition("|")
                link_gauges[(name, key or None)] = float(value)
            records = snap.get("records") or []
            if rec is not None and records:
                rec.ingest_remote(link.name, [dict(r) for r in records])
            totals = self._last_link_totals[link.name] = (link_counters, link_gauges)
            self._lost_links.discard(link.name)
            return totals
        except BusError as exc:
            if link.name not in self._lost_links:
                self._lost_links.add(link.name)
                telemetry.event(
                    "telemetry.source_lost",
                    host=link.name,
                    transport=self.name,
                    error=f"{type(exc).__name__}: {exc}",
                )
            monitor = self._health_monitor
            if monitor is not None:
                # Self-healing condemnation: a later heartbeat
                # un-condemns, so a transient fault costs nothing.
                monitor.mark_dead(
                    link.name, f"telemetry_snapshot: {type(exc).__name__}"
                )
            return self._last_link_totals.get(link.name)

    def share_trace_context(self) -> None:
        """Make every live host adopt the caller's trace context.

        ``Link.request`` appends the context to every request and a host
        adopts it before dispatch, so the cheapest request will do.
        """
        self._broadcast(["ping"], timeout=5)

    def flush_telemetry(self) -> None:
        """Pull buffered remote trace records home and drop contexts.

        Called by the coordinator after commit *and* after rollback so
        the merged tree for the reconfiguration is complete the moment
        ``replace()`` returns.  Best-effort per link: a dead host simply
        has nothing left to say.
        """
        self.telemetry_snapshot()
        self._broadcast(["clear_trace_context"], timeout=5)

    # -- health plane ----------------------------------------------------------

    def enable_health(self, monitor, interval: float) -> None:
        """Register every host with ``monitor`` and start its heartbeats.

        A dead link is skipped: its host is registered and so goes dead
        for missing beats, and the links after it still arm.
        """
        self._health_monitor = monitor
        for link in self.links():
            monitor.register_host(link.name, transport=self.name)
            try:
                link.request(["health_enable", float(interval)])
            except BusError:
                pass

    def disable_health(self) -> None:
        self._health_monitor = None
        self._broadcast(["health_disable"])

    # -- handle bookkeeping ----------------------------------------------------

    def _register(self, handle: RemoteModuleHandle) -> None:
        with self._handles_lock:
            self._handles[handle.key] = handle

    def _forget(self, key: str) -> None:
        with self._handles_lock:
            self._handles.pop(key, None)

    # -- module placement ------------------------------------------------------

    def add_module(
        self,
        spec: ModuleSpec,
        instance: str,
        status: str = "original",
        state_packet: Optional[bytes] = None,
        slot: Optional[str] = None,
    ) -> RemoteModuleHandle:
        link, host, placement = self._place(slot)
        prepared = prepared_source_for(spec)
        key = f"{instance}#{next(self._keys)}"
        link.request(
            ["add", key, instance, spec.to_abstract(prepared), status, state_packet]
        )
        handle = RemoteModuleHandle(
            key=key,
            name=instance,
            spec=spec,
            host=host,
            link=link,
            transport=self,
            placement=placement,
            status=status,
        )
        if state_packet is not None:
            handle.mh._incoming = state_packet
        self._register(handle)
        return handle

    # -- event dispatch --------------------------------------------------------

    def _make_on_event(self, link: Link) -> Callable[[str, List[object]], None]:
        def on_event(command: str, args: List[object]) -> None:
            if command == "write_batch":
                bus = self._bus
                if bus is None:
                    return
                wires, entries = unpack_batch(bytes(args[0]))  # type: ignore[arg-type]
                for instance, interface, destination, widx in entries:
                    bus._on_transport_write(
                        instance, interface, destination, wires[widx], link.profile
                    )
            elif command == "divulged":
                handle = self._handles.get(str(args[0]))
                if handle is not None:
                    handle.mh._on_divulged(
                        bytes(args[1]), args[2]  # type: ignore[arg-type]
                    )
            elif command == "divulge_failed":
                handle = self._handles.get(str(args[0]))
                if handle is not None:
                    handle.mh._on_divulge_failed(str(args[1]))
            elif command == "restored":
                handle = self._handles.get(str(args[0]))
                if handle is not None:
                    handle.mh.restored.set()
            elif command == "lifecycle":
                handle = self._handles.get(str(args[0]))
                if handle is not None:
                    handle._on_lifecycle(str(args[1]), str(args[2]))
            elif command == "heartbeat":
                monitor = self._health_monitor
                if monitor is not None:
                    monitor.record_heartbeat(
                        str(args[0]), int(args[1]), dict(args[2])  # type: ignore[call-overload]
                    )

        return on_event


class TcpTransport(RemoteTransport):
    """Machine daemons: one OS process per machine, reached over TCP.

    Starts one ``python -m repro.bus.tcp`` daemon per machine and speaks
    to it through the shared :class:`Link`/:class:`~repro.bus.host.ModuleHost`
    protocol — so a module placed with ``placement="tcp:<machine>"``
    participates in the ordinary :class:`~repro.bus.bus.SoftwareBus`
    topology (mixed bindings with inproc and worker modules included).
    ``machines`` is a count (named by the naming rule of
    :class:`RemoteTransport`), a list of names, or a mapping
    ``name -> architecture`` for daemons of different architectures;
    ``architecture`` is the profile of every machine not given one.  An
    empty host list or an architecture outside the catalogue is a
    ``BusError`` before any socket or process exists.
    """

    name = "tcp"

    def __init__(
        self,
        machines=1,
        architecture: str = "modern-64",
        sleep_scale: float = 0.0,
    ):
        super().__init__(machines if isinstance(machines, int) else list(machines))
        if not self._names:
            raise BusError(f"{self.name} transport needs at least one host")
        given = machines if isinstance(machines, dict) else {}
        self._profiles: Dict[str, MachineProfile] = {
            name: host_profile(name, given.get(name, architecture))
            for name in self._names
        }
        self._sleep_scale = sleep_scale
        #: machine name -> daemon process, in declared order.
        self._processes: Dict[str, subprocess.Popen] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._start()

    def _start_hosts(self, links: Dict[str, Link], deadline: float) -> None:
        """Start every daemon, then match each hello to its machine."""
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        address: Tuple[str, int] = self._listener.getsockname()
        for name, profile in self._profiles.items():
            self._processes[name] = subprocess.Popen(
                tcp._daemon_argv(name, profile, address, self._sleep_scale)
            )
        while len(links) < len(self._processes):
            link = self._next_hello(
                {n: p for n, p in self._processes.items() if n not in links},
                deadline,
            )
            links[link.name] = link

    def _next_hello(
        self, waiting: Dict[str, subprocess.Popen], deadline: float
    ) -> Link:
        """The link of the next daemon to connect and say hello.

        Daemons come up in any order, so the name in the hello — not the
        accept order — says which machine a connection is; it must be one
        of ``waiting`` (name -> child process still owing its hello).  A
        child found dead while nobody connects fails the start at once.
        """
        self._listener.settimeout(0.1)
        while True:
            try:
                sock, _addr = self._listener.accept()
                break
            except socket.timeout:
                pass
            for name, child in waiting.items():
                if child.poll() is not None:
                    raise TransportError(
                        f"{self.name} daemon {name!r} exited with status "
                        f"{child.returncode} before its hello"
                    )
            if time.monotonic() > deadline:
                raise TransportError(
                    f"no hello from {self.name} daemon(s) {sorted(waiting)} "
                    f"within {START_TIMEOUT_S}s"
                )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(max(0.1, deadline - time.monotonic()))
            hello = tcp.recv_frame(sock)
            sock.settimeout(None)
            if not (
                isinstance(hello, list) and len(hello) >= 5 and hello[2] == "hello"
            ):
                raise TransportError(f"unexpected first frame {hello!r}")
            name = str(hello[3])
            if name not in waiting:
                raise TransportError(
                    f"hello from unexpected {self.name} daemon {name!r}"
                )
            profile = profile_from_abstract(dict(hello[4]))
        except BaseException:
            sock.close()
            raise
        return self._open_link(name, profile, tcp.SocketChannel(sock))

    def _reap(self, grace: float) -> None:
        """Give every daemon ``grace`` seconds to exit, stop the ones
        that do not, and close the listener."""
        for process in self._processes.values():
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:  # last resort
                    process.kill()
                    process.wait()
        self._listener.close()


class WorkerTransport(TcpTransport):
    """The worker pool ``SoftwareBus(workers=N)`` owns: machine daemons
    named ``worker-<i>``, placed with ``placement="worker[:<i>]"``."""

    name = "worker"
