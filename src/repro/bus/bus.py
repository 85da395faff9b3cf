"""The software bus: routing, lifecycle, and configuration introspection.

POLYLITH's bus "initiates the execution of each module and establishes
communication channels between modules in the running application",
provides "basic operations for sending and receiving messages, and for
obtaining the current configuration", and (after [9]) the
reconfiguration primitives — adding and deleting modules and bindings,
and moving divulged state between modules.  All of those live here; the
Figure-5-style scripted API wrapping them is :mod:`repro.reconfig`.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple

# Not used by name here.  ``bus/module.py`` resolves the transformer
# inside its preparation memo so that hosts, which import that file but
# never this one, do not load the pipeline; importing it here keeps the
# deferral out of the bus process — after ``import repro.bus.bus`` no
# set-up, ``launch()`` or ``replace()`` executes a first-use import.
import repro.core.transformer  # noqa: F401
from repro.bus.message import Message, changes_machine
from repro.bus.module import ModuleInstance, ModuleState
from repro.bus.spec import (
    ApplicationSpec,
    BindingSpec,
    Configuration,
    InstanceSpec,
    ModuleSpec,
)
from repro.errors import (
    BindingError,
    BusError,
    ReconfigTimeoutError,
    TransportError,
    UnknownModuleError,
)
from repro.runtime import faults, telemetry
from repro.runtime.mh import SleepPolicy
from repro.state.frames import Handoff
from repro.state.machine import Endianness, MachineProfile, renamed

if TYPE_CHECKING:
    from repro.bus.queues import MessageQueue
    from repro.bus.transport import RemoteTransport

#: Every live bus, held weakly, so a recorder installed or removed
#: mid-run reaches their routing tables (``_recompile_live_buses``).
_live_buses: "weakref.WeakSet[SoftwareBus]" = weakref.WeakSet()
_live_buses_lock = threading.Lock()


@telemetry.on_activation
def _recompile_live_buses(rec: Optional[telemetry.FlightRecorder]) -> None:
    """A recorder was installed or removed: every live bus republishes
    its routes at once.  The queues count every put either way; what a
    recorder changes is the table — the ``bus.routed`` / ``bus.directed``
    / ``bus.dropped`` callables ``_RouteEntry.instrument`` adds, and the
    epoch of the derived ``bus.routed`` — so rebuilding it is what makes
    those counts start (or stop, the old recorder's derived totals
    frozen) on the next message.  The republish is no topology edit and
    counts nothing into the new recorder.  The remote hosts follow their
    transports (:mod:`repro.bus.transport`)."""
    with _live_buses_lock:
        buses = list(_live_buses)
    for bus in buses:
        bus._rebuild_routing()


class _RouteEntry:
    """Compiled deliveries for one bound (instance, interface) endpoint.

    Built once per topology edit (see ``SoftwareBus._rebuild_routing``),
    so the per-message path is a dict lookup plus direct calls — no
    binding-list scan, no interface-direction re-checks, and no bus lock
    held during delivery.  The same shape whether or not a recorder is
    installed (recording only adds a counting callable, see
    :meth:`instrument`):

    - ``puts``: called with the message as written — the bound ``put`` of
      every local receiver on the sender's profile (identity transfers).
    - ``groups``: ``None`` when that is every delivery, else
      ``(xfer_groups, link_groups)``.  Each distinct receiver profile
      gets the message carried once for its ``[put]`` (``xfer_groups``:
      ``[(profile, [put])]``, see ``Message.transferred``: no bytes are
      built in process), and, when there are links, the message is
      encoded once and each link ships that wire once with every
      ``(instance, interface)`` target riding in the same batch entry
      list (``link_groups``: ``[(link, [(instance, interface)])]``) —
      encode-once fan-out across process boundaries.
    - ``by_dest``: destination instance -> ``(put, receiver_profile |
      None)`` for ``route_to``.

    A remote peer is addressed on its host by its key
    (:attr:`~repro.bus.transport.RemoteModuleHandle.key`), not its name:
    the link groups and the host-local routes carry the key.
    """

    __slots__ = ("sender_profile", "puts", "groups", "by_dest", "targets")

    def __init__(self, sender_profile: Optional[MachineProfile]):
        self.sender_profile = sender_profile
        self.puts: List = []
        self.groups: Optional[Tuple[List, List]] = None
        self.by_dest: Dict[str, Tuple] = {}
        # (dest instance, dest interface, queue, receiver profile, link,
        # key) per delivery: queue/profile are None for a remote peer, and
        # link/key None for a local one.  Read at rebuild time only
        # (grouping, telemetry, the host-local route push).
        self.targets: List[Tuple] = []

    def add(self, peer, peer_if: str) -> None:
        link = getattr(peer, "link", None)
        queue = receiver = key = None
        if link is not None:
            key = peer.key
            # Remote peer: the host decodes under its own profile, so the
            # fan-out only ever ships the sender's wire (see finalize).
            put = peer.remote_put(peer_if, self.sender_profile)
        else:
            receiver = peer.host
            if not changes_machine(self.sender_profile, receiver):
                receiver = None  # identity transfer
            queue = peer.queue(peer_if)
            put = queue.put
            if receiver is None:
                self.puts.append(put)
        self.by_dest.setdefault(peer.name, (put, receiver))
        self.targets.append((peer.name, peer_if, queue, receiver, link, key))

    def finalize(self) -> None:
        """Group the non-identity deliveries once so ``route()`` never
        re-derives them: by receiver profile name, and by link."""
        xfers: Dict[str, Tuple] = {}
        links: Dict[int, Tuple] = {}
        for _, dest_if, queue, receiver, link, key in self.targets:
            if link is not None:
                links.setdefault(id(link), (link, []))[1].append((key, dest_if))
            elif receiver is not None:
                xfers.setdefault(receiver.name, (receiver, []))[1].append(queue.put)
        if xfers or links:
            self.groups = (list(xfers.values()), list(links.values()))

    def instrument(self, rec, endpoint: str, in_degree, derived) -> None:
        """Add this entry's telemetry at rebuild time (recorder installed).

        The compiled fan-out is kept exactly as built; recording adds at
        most one counting callable at the front of ``puts``:

        - ``bus.delivered`` and ``queue.hwm`` come from the receiving
          queues themselves, which count every put in-lock, recorder or
          not (``repro.bus.queues``): ``puts`` keeps the raw bound
          ``MessageQueue.put``.
        - ``bus.routed`` is *derived* when the entry delivers into a local
          queue fed by no other endpoint (``in_degree`` counts edges per
          receiving endpoint): every undirected put on that queue is
          exactly one ``route()`` call here, so the count is computed
          lazily from the queue's cells — ``derived`` collects endpoint
          -> queue for the bus's ``_RoutedTotals``.  Other entries
          (fan-in receivers, all-remote fan-outs) count it directly.
        - An unbound endpoint counts ``bus.dropped`` instead, so silent
          drops become visible.
        - Directed sends re-bind ``by_dest`` to ``put_directed`` so the
          queue tags them out of the routed derivation in-lock; remote
          targets count on the sender's shard (the remote host's own
          queue counts the delivery).
        """
        if not self.targets:
            def drop(message, _rec=rec, _key=endpoint):
                _rec.count("bus.dropped", key=_key)

            self.puts = [drop]
            return
        by_dest: Dict[str, Tuple] = {}
        for dest, _, queue, *_ in self.targets:
            if dest in by_dest:
                continue
            put, receiver = self.by_dest[dest]
            if queue is not None:
                def directed(message, _queue=queue, _rec=rec, _key=endpoint):
                    _rec.count("bus.directed", key=_key)
                    _queue.put_directed(message)

            else:
                def directed(message, _put=put, _rec=rec, _key=endpoint):
                    _rec.count("bus.directed", key=_key)
                    _put(message)

            by_dest[dest] = (directed, receiver)
        self.by_dest = by_dest
        for dest, dest_if, queue, *_ in self.targets:
            if queue is not None and in_degree.get((dest, dest_if)) == 1:
                derived[endpoint] = queue
                return

        def routed(message, _rec=rec, _key=endpoint):
            _rec.count("bus.routed", key=_key)

        self.puts = [routed] + self.puts


class _RoutedTotals:
    """One bus's ``bus.routed`` for one recorder: a source of it.

    An endpoint that alone feeds one local queue is counted from that
    queue's cells (:meth:`_RouteEntry.instrument`): each of its puts
    not made by ``route_to`` is one ``route()`` of the endpoint.  The
    totals of earlier routing epochs are the base; the current epoch
    maps each such endpoint to its queue and the queue's
    ``(_pushed, _directed)`` when the table was published.  The cells
    count with or without a recorder, so the bus freezes the totals
    with ``restart({})`` when the recorder goes: a detached recorder's
    figure stops moving.
    """

    def __init__(self, lock: threading.RLock):
        self._lock = lock  # the bus lock, which every publication holds
        self._base: Dict[str, int] = {}
        self._epoch: Dict[str, Tuple[MessageQueue, int, int]] = {}

    def restart(self, derived: Dict[str, MessageQueue]) -> None:
        """Keep the totals so far as the base and count ``derived`` from
        here on (caller holds the bus lock)."""
        self._base = self._totals()
        epoch = {}
        for endpoint, queue in derived.items():
            with queue._lock:  # a consistent (_pushed, _directed) pair
                epoch[endpoint] = (queue, queue._pushed, queue._directed)
        self._epoch = epoch

    def _totals(self) -> Dict[str, int]:
        totals = dict(self._base)
        for endpoint, (queue, pushed0, directed0) in self._epoch.items():
            with queue._lock:
                delta = (queue._pushed - pushed0) - (queue._directed - directed0)
            if delta:
                totals[endpoint] = totals.get(endpoint, 0) + delta
        return totals

    def __call__(self):
        with self._lock:
            totals = self._totals()
        return (
            {("bus.routed", ep): total for ep, total in totals.items() if total},
            {},
        )


class SoftwareBus:
    """An in-process software bus whose modules are threads on simulated hosts.

    ``sleep_scale`` is forwarded to every module's
    :class:`~repro.runtime.mh.SleepPolicy`: examples use 1.0 (the paper's
    wall-clock pacing), tests and benchmarks use 0.0.

    A module added without a placement is a thread in this process.
    ``workers`` > 0 attaches an owned pool of worker processes
    (:class:`~repro.bus.transport.WorkerTransport`: machine daemons of
    ``worker_architecture``), making
    ``placement="worker"`` / ``"worker:<i>"`` available on
    :meth:`add_module`; further remote transports attach via
    :meth:`attach_transport`.  Modules placed on a transport appear in
    the topology as ordinary instances — bindings, replacement, and
    introspection treat them uniformly through their handles.
    """

    def __init__(
        self,
        sleep_scale: float = 1.0,
        workers: int = 0,
        worker_architecture: str = "modern-64",
    ):
        #: Machine name -> its profile: every machine a module was placed
        #: on, added by :meth:`add_host` or on first use.
        self.hosts: Dict[str, MachineProfile] = {}
        self.module_specs: Dict[str, ModuleSpec] = {}
        # Instance name -> the module that answers to it.  A replacement
        # swaps the entry in place (hand_over), so a name keeps its
        # bindings and its place in every table while its module changes.
        self._instances: Dict[str, ModuleInstance] = {}
        # Modules the bus owns that answer to no name: a clone not yet
        # handed over, and the module it replaced until commit or
        # rollback.  Routed nothing; shutdown() stops and discards them.
        self._unbound: List[ModuleInstance] = []
        # The binding table, in binding order (delivery order among the
        # destinations of one endpoint follows it).  An insertion-ordered
        # dict used as an ordered set: membership and removal are O(1),
        # a re-added binding goes to the end, exactly as in a list.
        self._bindings: Dict[BindingSpec, None] = {}
        self._lock = threading.RLock()
        # The published routing table: instance -> interface -> entry.
        # Replaced whole when an edit section ends (see editing()), never
        # edited in place, so readers take no lock.
        self._routing_table: Dict[str, Dict[str, _RouteEntry]] = {}
        # Nesting depth of edit sections, and whether an edit since the
        # last publication changed what the table is built from.
        self._edit_depth = 0
        self._routes_stale = False
        # Instance names a module has started under (start_module), and
        # the host-local routes of the last publication: (instance,
        # interface) -> the link they were pushed to.  Together they keep
        # a running sender from switching from the tunnel to its host.
        self._started: Set[str] = set()
        self._host_local: Dict[Tuple[str, str], object] = {}
        # The recorder of the last publication and its bus.routed
        # source (see _routed_for).
        self._routed_rec: Optional[telemetry.FlightRecorder] = None
        self._routed: Optional[_RoutedTotals] = None
        self._sleep_policy = SleepPolicy(scale=sleep_scale)
        self.application_name = ""
        self.trace: List[str] = []  # reconfiguration/audit log
        self._transports: Dict[str, RemoteTransport] = {}
        # Health plane (opt-in via enable_health; benchmarks measure the
        # heartbeat cost explicitly rather than paying it by default).
        self._health_monitor = None
        self._health_interval = 0.0
        with _live_buses_lock:
            _live_buses.add(self)
        if workers:
            from repro.bus.transport import WorkerTransport

            self.attach_transport(
                WorkerTransport(
                    machines=workers,
                    architecture=worker_architecture,
                    sleep_scale=sleep_scale,
                ),
            )

    def attach_transport(self, transport: RemoteTransport, owned: bool = True):
        """Register a remote transport under its own name; the bus serves
        it from now on and closes it at :meth:`shutdown`.

        A transport serves one bus: one that already serves a bus is
        refused with ``BusError``.  ``owned`` accepts only ``True`` and is
        kept for callers that still pass it.  The transport's hosts
        report to the recorder themselves, from the moment it started.
        """
        if owned is not True:
            raise ValueError(f"owned={owned!r}: only owned=True is accepted")
        with self._lock:
            if transport.name in self._transports:
                raise BusError(f"transport {transport.name!r} already attached")
            transport.attach_bus(self)
            self._transports[transport.name] = transport
            monitor = self._health_monitor
        if monitor is not None:
            try:
                transport.enable_health(monitor, self._health_interval)
            except Exception:  # noqa: BLE001 - heartbeats are best-effort
                pass
        return transport

    def transport(self, name: str) -> RemoteTransport:
        transport = self._transports.get(name)
        if transport is None:
            raise BusError(f"no transport {name!r} attached")
        return transport

    # ------------------------------------------------------------------
    # Hosts and module specifications
    # ------------------------------------------------------------------

    def add_host(
        self, name: str, profile: Optional[MachineProfile] = None
    ) -> MachineProfile:
        """Register machine ``name`` with ``profile``'s architecture (a
        little-endian default without one); return its profile."""
        with self._lock:
            if name in self.hosts:
                raise BusError(f"host {name!r} already registered")
            host = renamed(profile or MachineProfile(name, Endianness.LITTLE), name)
            self.hosts[name] = host
            return host

    def register_module_spec(self, spec: ModuleSpec) -> None:
        self.module_specs[spec.name] = spec

    # ------------------------------------------------------------------
    # Application launch
    # ------------------------------------------------------------------

    def launch(self, config: Configuration, default_host: str = "local") -> None:
        """Instantiate and start an application from a parsed MIL config."""
        config.validate()
        if config.application is None:
            raise BusError("configuration has no application specification")
        for spec in config.modules.values():
            self.register_module_spec(spec)
        self.application_name = config.application.name
        # One section, so the whole application is published once.
        with self.editing():
            for inst in config.application.instances:
                machine = inst.machine or default_host
                self.add_module(
                    config.modules[inst.module],
                    instance=inst.instance,
                    machine=machine,
                    attributes=inst.attributes,
                )
            for binding in config.application.bindings:
                self.add_binding(binding)
        for inst in config.application.instances:
            self.start_module(inst.instance)

    # ------------------------------------------------------------------
    # Reconfiguration primitives: modules (paper [9]: mh_chg_obj)
    # ------------------------------------------------------------------

    def add_module(
        self,
        spec: ModuleSpec,
        instance: Optional[str] = None,
        machine: str = "local",
        status: str = "original",
        start: bool = False,
        attributes: Optional[Dict[str, str]] = None,
        placement: Optional[str] = None,
    ):
        """Create a module instance (the ``add`` half of ``mh_chg_obj``).

        ``attributes`` are per-*instance* attributes (from the
        application spec's instance line); they merge over the module
        spec's attributes and therefore survive replacement, since
        ``obj_cap`` reads the merged spec back.

        ``placement`` selects where the instance executes:
        ``None``/``"inproc"`` is today's thread-in-the-bus-process path;
        ``"<transport>"`` lets the named transport pick a slot
        (round-robin); ``"<transport>:<slot>"`` pins one (e.g.
        ``"worker:0"``, ``"tcp:1"``).  A ``placement`` attribute
        on the (merged) spec supplies the default, so MIL instance lines
        can place modules declaratively.
        """
        name = instance or spec.name
        with self._lock:
            if name in self._instances:
                raise BusError(f"instance {name!r} already exists")
        module, where = self._build(spec, name, machine, status, attributes, placement)
        with self.editing():
            if name in self._instances:
                try:
                    module.remove()
                except (BusError, TransportError):
                    pass
                raise BusError(f"instance {name!r} already exists")
            self._instances[name] = module
            self._routes_stale = True
        self.trace.append(f"add module {name} on {where} (status={status})")
        if start:
            self.start_module(name)
        return module

    def build_clone(
        self,
        spec: ModuleSpec,
        instance: str,
        machine: str = "local",
        status: str = "clone",
        placement: Optional[str] = None,
    ):
        """Build the successor of ``instance``, under the same name.

        The clone answers to nothing yet: it is in no routing table and
        not in :meth:`instances`, so the module that answers to
        ``instance`` keeps serving while the clone loads.
        :meth:`hand_over` makes it the module that answers to the name.
        Until then the bus still owns it: :meth:`shutdown` stops and
        discards it like any module.
        """
        module, where = self._build(spec, instance, machine, status, None, placement)
        with self._lock:
            self._unbound.append(module)
        self.trace.append(f"build clone {instance} on {where} (status={status})")
        return module

    def _build(
        self,
        spec: ModuleSpec,
        name: str,
        machine: str,
        status: str,
        attributes: Optional[Dict[str, str]],
        placement: Optional[str],
    ) -> Tuple[ModuleInstance, str]:
        """Create and load module ``name`` where ``placement`` says, and say
        where (for the trace).  The caller decides what answers to it."""
        if attributes:
            spec = spec.with_attributes(**attributes)
        if placement is None:
            placement = spec.attributes.get("placement") or None
        if placement in (None, "", "inproc"):
            with self._lock:
                host = self.hosts.get(machine) or self.add_host(machine)
            module = ModuleInstance(
                name=name,
                spec=spec,
                host=host,
                bus=self,
                status=status,
                sleep_policy=self._sleep_policy,
            )
            module.load()
            return module, machine
        tname, _, slot = placement.partition(":")
        if tname == "inproc":
            raise BusError(f"placement {placement!r}: inproc takes no slot")
        transport = self.transport(tname)
        # The placement round-trip (the host compiles the module) holds
        # the bus lock only inside an edit section, as launch() does;
        # routing takes no lock, so tunneled writes keep flowing.
        module = transport.add_module(
            spec, instance=name, status=status, slot=slot or None
        )
        with self._lock:
            self.hosts.setdefault(module.host.name, module.host)
        return module, f"{module.host.name} via {tname}"

    def start_module(self, instance: str) -> None:
        # Recorded before the start request goes out, under the lock a
        # publication holds: a publication either sees the name started
        # or has queued its set_routes ahead of the start on the link.
        with self._lock:
            module = self.get_module(instance)
            self._started.add(instance)
        module.start()
        self.trace.append(f"start module {instance}")

    def remove_module(self, instance: str, timeout: float = 5.0) -> None:
        """Stop and delete an instance (the ``del`` half of ``mh_chg_obj``)."""
        with self._lock:
            module = self.get_module(instance)
            remaining = [b for b in self._bindings if b.involves(instance)]
        if remaining:
            raise BindingError(
                f"cannot remove {instance!r}: {len(remaining)} binding(s) "
                f"still attached — delete them first"
            )
        module.remove(timeout)
        with self.editing():
            del self._instances[instance]
            self._started.discard(instance)
            self._routes_stale = True
        self.trace.append(f"remove module {instance}")

    def discard_module(self, module: ModuleInstance, timeout: float = 5.0) -> None:
        """Stop and delete a module that answers to no name: the module a
        committed :meth:`hand_over` replaced, or a clone a rollback
        withdraws.  Nothing routes to it, so no binding is in the way."""
        with self._lock:
            if not any(m is module for m in self._unbound):
                raise BusError(f"{module.name!r} on {module.host.name}: not unbound")
        module.remove(timeout)
        with self._lock:
            self._unbound = [m for m in self._unbound if m is not module]
        self.trace.append(f"remove module {module.name} on {module.host.name}")

    def get_module(self, instance: str) -> ModuleInstance:
        with self._lock:
            try:
                return self._instances[instance]
            except KeyError:
                raise UnknownModuleError(f"no module instance {instance!r}") from None

    def has_module(self, instance: str) -> bool:
        with self._lock:
            return instance in self._instances

    def instances(self) -> List[str]:
        with self._lock:
            return sorted(self._instances)

    # ------------------------------------------------------------------
    # Reconfiguration primitives: bindings
    # ------------------------------------------------------------------

    def _check_binding(
        self, binding: BindingSpec, successor: Optional[ModuleInstance] = None
    ) -> None:
        """Raise unless both bound interfaces exist and are compatible;
        ``successor`` stands in for the module answering to its name
        (:meth:`hand_over`).  Caller holds the bus lock."""
        left, right = (
            successor
            if successor is not None and name == successor.name
            else self.get_module(name)
            for name, _ in binding.endpoints()
        )
        left_decl = left.spec.interface(binding.from_interface)
        right_decl = right.spec.interface(binding.to_interface)
        if not left_decl.compatible_with(right_decl):
            raise BindingError(
                f"{binding.describe()}: incompatible interfaces "
                f"({left_decl.describe()} vs {right_decl.describe()})"
            )

    def add_binding(self, binding: BindingSpec) -> None:
        with self.editing():
            self._check_binding(binding)
            if binding in self._bindings:
                raise BindingError(f"{binding.describe()}: already bound")
            self._bindings[binding] = None
            self._routes_stale = True
        self.trace.append(binding.describe())

    def remove_binding(self, binding: BindingSpec) -> None:
        # A binding is the same link regardless of endpoint order.
        flipped = BindingSpec(
            from_instance=binding.to_instance,
            from_interface=binding.to_interface,
            to_instance=binding.from_instance,
            to_interface=binding.from_interface,
        )
        with self.editing():
            table = self._bindings
            if binding in table and flipped in table:
                # Both orientations are bound: the earlier one goes.
                existing = next(b for b in table if b in (binding, flipped))
            elif binding in table:
                existing = binding
            elif flipped in table:
                existing = flipped
            else:
                raise BindingError(f"{binding.describe()}: no such binding")
            del table[existing]
            self._routes_stale = True
            self.trace.append(f"unbind {existing.describe()[5:]}")

    def bindings(self) -> List[BindingSpec]:
        with self._lock:
            return list(self._bindings)

    def bindings_of(self, instance: str) -> List[BindingSpec]:
        with self._lock:
            return [b for b in self._bindings if b.involves(instance)]

    # ------------------------------------------------------------------
    # Replacement: which module answers to a name
    # ------------------------------------------------------------------

    def hand_over(
        self,
        old: ModuleInstance,
        new: ModuleInstance,
        preserve_queues: bool = True,
    ) -> Dict[str, int]:
        """Make ``new`` the module that answers to ``old``'s name (rebind).

        One edit section (:meth:`editing`).  Every binding of the name is
        checked against ``new``'s interfaces first, so a successor that
        drops or changes a bound interface raises with nothing changed.
        Then ``new`` takes ``old``'s entry in place, the routes are
        published (``set_routes`` reaches every host ahead of the queue
        move, per-link FIFO), and Figure 5's ``cq``/``rmq`` run as one
        move (:meth:`_move_queues`): ``old``'s queues are sealed with a
        forward to ``new``'s, and what they held goes to the front of
        ``new``'s (``preserve_queues=False`` discards it, and every late
        put too).  Returns ``{interface: messages moved}``.  No binding
        is edited: a binding names an instance, and the instance is the
        same.  ``old`` stays owned by the bus, unbound, until
        :meth:`discard_module` or :meth:`hand_back`.
        """
        with self.editing():
            if preserve_queues:
                for decl in old.spec.interfaces:
                    if old.has_queue(decl.name):
                        new.queue(decl.name)  # raises before anything changed
            self._swap(old, new, "hand over")
            moved = self._move_queues(old, new, preserve_queues)
            return moved if preserve_queues else {}

    def hand_back(self, new: ModuleInstance, old: ModuleInstance) -> Dict[str, int]:
        """Undo :meth:`hand_over` (rollback): ``old`` answers to its name
        again, and the same move runs the other way — everything that
        reached ``new``'s queues, the moved messages and every later
        arrival, goes to the front of ``old``'s, and a put that still
        reaches ``new``'s is forwarded to ``old``'s."""
        with self.editing():
            self._swap(new, old, "hand back")
            return self._move_queues(new, old, True)

    def _move_queues(
        self,
        src: ModuleInstance,
        dst: Optional[ModuleInstance],
        preserve: bool,
        interface: Optional[str] = None,
    ) -> Dict[str, int]:
        """Figure 5's ``cq`` + ``rmq`` as one move, run where the queues live.

        Caller holds the bus lock.  Routes an edit section changed so far
        are published first, so on every link ``set_routes`` precedes the
        ``move_queues`` request.  In order:

        1. ``dst``'s queues are unsealed (a hand-back reopens what the
           hand-over sealed);
        2. ``src``'s queues are sealed, each with a forward to ``dst``'s
           queue of the same name (profiles transferred as by ``cq``), so
           a router still holding a routing entry taken before the
           hand-over reaches ``dst``, behind the moved prefix
           (:meth:`ModuleInstance.seal_queues`, also without ``preserve``);
        3. what the seals took goes to the front of ``dst``'s queues;
        4. ``{interface: moved (or discarded)}`` is returned.

        ``interface`` restricts the move to one queue: the literal ``cq``,
        or ``rmq`` (no ``dst``).

        A remote ``src`` is moved by its host, in one ``move_queues``
        request.  When ``dst`` shares the host all four steps run there;
        otherwise the host seals with no forward (a late delivery is a
        ``host.deliver_miss``) and returns the wires, and step 3 runs
        here.  A remote ``dst`` sealed that way is unsealed by a request
        of its own before ``src`` is sealed.
        """
        self._publish_routes()
        names = [
            decl.name
            for decl in src.spec.interfaces
            if (interface is None or decl.name == interface)
            and src.has_queue(decl.name)
            and (not preserve or dst.has_queue(decl.name))
        ]
        src_link = getattr(src, "link", None)
        dst_link = getattr(dst, "link", None)
        if dst_link is not None:
            if dst.sealed and dst_link is not src_link:
                dst_link.request(["move_queues", "", dst.key, preserve])
                dst.sealed = False
        elif dst is not None:
            dst.unseal_queues(interface)
        counts: Dict[str, int] = {}
        if src_link is None:
            for name, messages in src.seal_queues(
                names, preserve, lambda name: self._forward(src, name, dst)
            ):
                if preserve:
                    self._prepend(src, name, dst, messages)
                counts[name] = len(messages)
        else:
            shared = dst_link is src_link
            to = dst.key if shared else ""
            # Before the request: a host that ran the move but whose reply
            # was lost has sealed the queues all the same, and a hand-back
            # must unseal them (an unseal of open queues does nothing).
            src.sealed = not shared
            reply = src_link.request(
                ["move_queues", src.key, to, preserve, interface or ""]
            )
            for name, moved in dict(reply).items():  # type: ignore[call-overload]
                name = str(name)
                if name not in names:
                    continue
                if preserve and not shared:  # the wires, for step 3 here
                    messages = [
                        Message.from_wire(bytes(w), src.host) for w in moved
                    ]
                    self._prepend(src, name, dst, messages)
                    moved = len(messages)
                counts[name] = int(moved)
        counts = {name: counts.get(name, 0) for name in names}
        for name, count in counts.items():
            if preserve:
                self.trace.append(
                    f"cq {src.name}.{name} -> {dst.name} on {dst.host.name} "
                    f"({count} msgs)"
                )
            self.trace.append(
                f"rmq {src.name}.{name} on {src.host.name} ({count} msgs)"
            )
        return counts

    @staticmethod
    def _forward(
        src: ModuleInstance, interface: str, dst: ModuleInstance
    ) -> Callable[[List[Message]], None]:
        """What a put that finds ``src``'s sealed queue is handed to:
        ``dst``'s queue of the same name (a remote ``dst``'s through its
        routing put)."""
        sender, receiver = src.host, dst.host
        if getattr(dst, "link", None) is not None:
            put = dst.remote_put(interface, sender)
            receiver = sender  # the host decodes the wire under its own profile
        else:
            put = dst.queue(interface).put

        def forward(messages: List[Message]) -> None:
            for message in messages:
                put(message.transferred(sender, receiver))

        return forward

    @staticmethod
    def _prepend(
        src: ModuleInstance,
        interface: str,
        dst: ModuleInstance,
        messages: List[Message],
    ) -> None:
        """Put ``src``'s messages, transferred to ``dst``'s profile, at the
        front of ``dst``'s queue (step 3 of the move)."""
        if messages:
            dst.queue(interface).prepend(
                [m.transferred(src.host, dst.host) for m in messages]
            )

    def _swap(
        self, current: ModuleInstance, successor: ModuleInstance, verb: str
    ) -> None:
        """Make the unbound ``successor`` answer to ``current``'s name in
        its place, once every binding of the name fits it; ``current``
        becomes unbound.  Caller holds the bus lock."""
        name = current.name
        if self._instances.get(name) is not current:
            raise BusError(f"{name!r} is not answered by the module handing over")
        if successor.name != name or not any(m is successor for m in self._unbound):
            raise BusError(f"no unbound successor named {name!r} to hand over to")
        for binding in self._bindings:
            if binding.involves(name):
                self._check_binding(binding, successor)
        self._instances[name] = successor
        self._unbound = [m for m in self._unbound if m is not successor] + [current]
        self._routes_stale = True
        self.trace.append(
            f"{verb} {name}: {current.host.name} -> {successor.host.name}"
        )

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------

    @contextmanager
    def editing(self) -> Iterator[None]:
        """A topology edit section: the bus lock, held across every edit
        of one batch (sections nest).

        Routes change one way: when the outermost section ends, the
        routes its edits changed are published (:meth:`_publish_routes`),
        so a reader never sees a half-edited topology and never rebuilds
        one itself.  A queue move inside a section publishes first.
        """
        with self._lock:
            self._edit_depth += 1
            try:
                yield
            finally:
                self._edit_depth -= 1
                if not self._edit_depth:
                    self._publish_routes()

    def _publish_routes(self) -> None:
        """Publish the routes edited since the last publication, if any:
        rebuild the table, swap it in and push each host its slice.
        Caller holds the bus lock."""
        if not self._routes_stale:
            return
        self._routes_stale = False
        rec = telemetry.recorder
        if rec is not None:
            rec.count("bus.routing_rebuild")
        self._rebuild_routing()

    def _push_worker_routes(
        self, table: Dict[str, Dict[str, _RouteEntry]]
    ) -> None:
        """Ship each remote host its whole table of host-local routes,
        which it swaps in at once.

        An endpoint qualifies when *all* its destinations live on the
        sender's own link: the host then delivers those writes directly
        (same-process queue put, no encoding, no bus hop) — the fast
        path that lets pinned producer/consumer pairs scale with cores.
        A route names each destination by its host key and its instance
        name (the name is what ``route_to`` matches).  Recording does not
        change this: a host counts ``bus.routed`` /
        ``bus.directed`` for the writes it delivers itself, and its
        counters reach the bus recorder through its transport.

        A route only switches from the host to the tunnel, never back
        while its sender may have tunneled writes in flight, which a
        host-local write could overtake: a qualifying endpoint is pushed
        only if it was pushed to the same link by the last publication,
        or no module has started under its instance name yet.
        """
        if not self._transports:
            return
        routes_by_link: Dict[object, List[List[object]]] = {}
        pushed: Dict[Tuple[str, str], object] = {}
        for name, by_interface in table.items():
            sender = self._instances.get(name)
            link = getattr(sender, "link", None)
            if link is None:
                continue
            fresh = name not in self._started
            for ifname, entry in by_interface.items():
                targets = entry.targets
                if (
                    targets
                    and all(t[4] is link for t in targets)
                    and (fresh or self._host_local.get((name, ifname)) is link)
                ):
                    pushed[(name, ifname)] = link
                    routes_by_link.setdefault(link, []).append(
                        [
                            name,
                            ifname,
                            [[key, dest_if, dest] for dest, dest_if, *_, key in targets],
                        ]
                    )
        self._host_local = pushed
        for transport in self._transports.values():
            for link in transport.links():
                link.send_event(["set_routes", routes_by_link.get(link, [])])

    def _on_transport_write(
        self,
        instance: str,
        interface: str,
        destination: str,
        wire: bytes,
        profile: MachineProfile,
    ) -> None:
        """A remotely hosted module wrote on an endpoint without a
        host-local route: decode under the sender host's profile and
        route through the ordinary table (directed when ``destination``
        is non-empty).

        Inproc raises into the writer; across a process boundary there
        is no writer stack to raise into, so a write that cannot be
        routed is recorded instead — and the rest of the batch it
        arrived in still goes out.
        """
        message = Message.from_wire(wire, profile)
        try:
            if destination:
                self.route_to(instance, interface, destination, message)
            else:
                self.route(instance, interface, message)
        except (BindingError, UnknownModuleError) as exc:
            self.trace.append(
                f"drop write {instance}.{interface} -> "
                f"{destination or '*'}: {exc}"
            )
            telemetry.event(
                "bus.write_drop",
                instance=instance,
                interface=interface,
                destination=destination,
            )

    def _rebuild_routing(self) -> Dict[str, Dict[str, _RouteEntry]]:
        """Build the routing table from the current topology, publish it
        and push each host its host-local routes; return it.

        Every instance gets a row, and every interface that can send an
        entry in it (so a bound-or-not lookup is one dict hit; a
        receive-only interface routes nothing and has none, which
        ``route()`` reads as its no-op and ``route_to`` as no binding);
        receive-direction checks and host-profile comparisons happen
        here, once per publication, never on the per-message path.  The
        finished table replaces the published one in one assignment: a
        router sees the one or the other, both complete.
        """
        with self._lock:
            table: Dict[str, Dict[str, _RouteEntry]] = {}
            for name, module in self._instances.items():
                table[name] = {
                    decl.name: _RouteEntry(module.host)
                    for decl in module.spec.interfaces
                    if decl.direction.can_send
                }
            in_degree: Dict[Tuple[str, str], int] = {}
            for binding in self._bindings:
                (a_inst, a_if), (b_inst, b_if) = binding.endpoints()
                for src, src_if, dst, dst_if in (
                    (a_inst, a_if, b_inst, b_if),
                    (b_inst, b_if, a_inst, a_if),
                ):
                    peer = self._instances[dst]
                    if peer.has_queue(dst_if):  # a queue: it can receive
                        table[src][src_if].add(peer, dst_if)
                        key = (dst, dst_if)
                        in_degree[key] = in_degree.get(key, 0) + 1
            for by_interface in table.values():
                for entry in by_interface.values():
                    entry.finalize()
            rec = telemetry.recorder
            routed = self._routed_for(rec)
            if routed is not None:
                derived: Dict[str, MessageQueue] = {}
                for name, by_interface in table.items():
                    for ifname, entry in by_interface.items():
                        entry.instrument(rec, f"{name}.{ifname}", in_degree, derived)
                routed.restart(derived)
            self._routing_table = table
            self._push_worker_routes(table)
            return table

    def _routed_for(
        self, rec: Optional[telemetry.FlightRecorder]
    ) -> Optional[_RoutedTotals]:
        """The ``bus.routed`` source of ``rec`` (caller holds the bus lock).

        When the recorder has changed since the last publication, the old
        source is frozen first (its counts stop with its recorder) and a
        fresh recorder gets a source of its own, starting from zero.
        """
        if rec is not self._routed_rec:
            if self._routed is not None:
                self._routed.restart({})
            self._routed_rec = rec
            self._routed = None
            if rec is not None:
                self._routed = _RoutedTotals(self._lock)
                rec.add_source(self._routed)
        return self._routed

    def share_trace_context(self) -> None:
        """Hand the running reconfiguration's trace context to every
        remote host, so what they do during the transaction — deliveries
        to and from the replaced module's peers — joins its span tree.

        The coordinator calls this as ``replace()`` opens its root span,
        and :meth:`flush_remote_telemetry` drops the context again; a
        no-op with telemetry disabled, best-effort per transport.
        """
        self._each_recording_transport(lambda t: t.share_trace_context())

    def flush_remote_telemetry(self) -> None:
        """Pull buffered trace records home from every remote host.

        The coordinator calls this at commit and at rollback so the
        merged span tree for a reconfiguration is complete the moment
        ``replace()`` returns; it is a no-op with telemetry disabled and
        best-effort per transport (a dead host has nothing left to say).
        """
        self._each_recording_transport(lambda t: t.flush_telemetry())

    def _each_recording_transport(self, call) -> None:
        if telemetry.recorder is None:
            return
        with self._lock:
            transports = list(self._transports.values())
        for transport in transports:
            try:
                call(transport)
            except Exception:  # noqa: BLE001 - tracing must never break replace()
                continue

    # ------------------------------------------------------------------
    # Health plane
    # ------------------------------------------------------------------

    def enable_health(self, interval: float = 0.2, monitor=None, **thresholds):
        """Start heartbeats from every remote host into a HealthMonitor.

        Opt-in: heartbeats cost a timer thread per host plus one event
        per ``interval``, so benchmarks measure them explicitly instead
        of paying by default.  The monitor is also registered as the
        recorder's health provider, so ``telemetry.snapshot()["health"]``
        (and everything downstream: stats CLI, Prometheus exposition,
        chaos artifacts) carries the live verdicts.  Returns the monitor.
        """
        from repro.runtime.health import HealthMonitor

        if monitor is None:
            monitor = HealthMonitor(interval_hint=float(interval), **thresholds)
        with self._lock:
            self._health_monitor = monitor
            self._health_interval = float(interval)
            transports = list(self._transports.values())
        for transport in transports:
            try:
                transport.enable_health(monitor, float(interval))
            except Exception:  # noqa: BLE001 - a sick host beats later or never
                continue
        rec = telemetry.recorder
        if rec is not None:
            rec.set_health_provider(monitor.snapshot)
        return monitor

    def disable_health(self) -> None:
        with self._lock:
            monitor, self._health_monitor = self._health_monitor, None
            transports = list(self._transports.values())
        if monitor is None:
            return
        for transport in transports:
            try:
                transport.disable_health()
            except Exception:  # noqa: BLE001 - host may already be gone
                continue
        rec = telemetry.recorder
        if rec is not None:
            rec.set_health_provider(None)

    def health_verdict(self, placement: Optional[str]) -> Optional[str]:
        """Monitor verdict for a placement target, ``None`` when ungated.

        Ungated cases: no monitor enabled, inproc placement (the module
        would share our own process — if we are dead nobody is asking),
        or an unknown transport.  An explicit slot resolves to its exact
        host; a bare transport name (round-robin) reports the *best*
        status across that transport's hosts, since any live slot can
        take the module.
        """
        monitor = self._health_monitor
        if monitor is None or placement is None:
            return None
        name, _, slot = placement.partition(":")
        if name in ("", "inproc"):
            return None
        with self._lock:
            transport = self._transports.get(name)
        if transport is None:
            return None
        host = transport.peek_host(slot)
        if host is not None:
            return monitor.status_of(host)
        statuses = [monitor.status_of(link.name) for link in transport.links()]
        if not statuses:
            return None
        order = ["healthy", "unknown", "degraded", "suspect", "dead"]
        return min(statuses, key=order.index)

    def route(self, instance: str, interface: str, message: Message) -> None:
        """Deliver a message written on (instance, interface).

        Asynchronous: the message is enqueued at every bound peer whose
        interface can receive; a delivery that changes machine in process
        is carried once per distinct receiver profile, and one that leaves
        the process is encoded once per send, shared by every link.  The
        hot path is two dict lookups against the published table — no
        binding scan, no rebuild, and no bus lock.
        """
        by_interface = self._routing_table.get(instance)
        if by_interface is None:
            raise UnknownModuleError(f"no module instance {instance!r}")
        entry = by_interface.get(interface)
        if entry is None:
            return  # declared-interface misuse kept as the historical no-op
        for put in entry.puts:
            put(message)
        groups = entry.groups
        if groups is not None:
            # Carry once per distinct receiver profile; encode once, and
            # only for links, shipped once per link (the batch entry list
            # carries every same-host target of this wire).
            xfers, links = groups
            sender = entry.sender_profile
            for profile, puts in xfers:
                carried = message.transferred(sender, profile)
                for put in puts:
                    put(carried)
            if links:
                wire = message.to_wire(sender)
                for link, pairs in links:
                    link.send_deliver_shared(pairs, wire)

    def route_to(
        self, instance: str, interface: str, destination: str, message: Message
    ) -> None:
        """Directed delivery: only the named bound peer receives.

        Used for server replies on multi-client bindings.  The
        destination must actually be bound to (instance, interface) —
        an unbound directed send is a programming error, not a silent drop.
        """
        by_interface = self._routing_table.get(instance)
        if by_interface is None:
            raise UnknownModuleError(f"no module instance {instance!r}")
        entry = by_interface.get(interface)
        target = entry.by_dest.get(destination) if entry is not None else None
        if target is None:
            raise BindingError(
                f"directed send from {instance}.{interface} to "
                f"{destination!r}: no such binding"
            )
        put, profile = target
        if profile is None:
            put(message)
        else:
            put(message.transferred(entry.sender_profile, profile))

    # ------------------------------------------------------------------
    # Configuration introspection (paper: "obtaining the current
    # configuration of the application")
    # ------------------------------------------------------------------

    def interface_names(self, instance: str) -> List[str]:
        return self.get_module(instance).spec.interface_names()

    def _bound_peers(
        self, instance: str, interface: str
    ) -> List[Tuple[ModuleInstance, str]]:
        """Resolve the peers bound to (instance, interface).

        Runs entirely under the lock: resolving a peer *after* releasing
        it raced with concurrent ``remove_module`` (the peer could be
        gone by the time it was looked up, turning an introspection call
        into a spurious ``UnknownModuleError``).
        """
        with self._lock:
            result = []
            for binding in self._bindings:
                (a_inst, a_if), (b_inst, b_if) = binding.endpoints()
                if (a_inst, a_if) == (instance, interface):
                    result.append((self._instances[b_inst], b_if))
                elif (b_inst, b_if) == (instance, interface):
                    result.append((self._instances[a_inst], a_if))
            return result

    def destinations_of(self, instance: str, interface: str) -> List[Tuple[str, str]]:
        """Peers reached by messages written on (instance, interface)."""
        return [
            (peer.name, peer_if)
            for peer, peer_if in self._bound_peers(instance, interface)
            if peer.spec.interface(peer_if).direction.can_receive
        ]

    def sources_of(self, instance: str, interface: str) -> List[Tuple[str, str]]:
        """Peers whose writes arrive at (instance, interface)."""
        return [
            (peer.name, peer_if)
            for peer, peer_if in self._bound_peers(instance, interface)
            if peer.spec.interface(peer_if).direction.can_send
        ]

    def snapshot_configuration(self) -> ApplicationSpec:
        """The *current* application specification, reconfigurations included."""
        with self._lock:
            app = ApplicationSpec(name=self.application_name or "current")
            for name, module in sorted(self._instances.items()):
                app.instances.append(
                    InstanceSpec(
                        instance=name,
                        module=module.spec.name,
                        machine=module.host.name,
                    )
                )
            app.bindings = list(self._bindings)
            return app

    # ------------------------------------------------------------------
    # Module participation plumbing (paper [9]: mh_objstate_move)
    # ------------------------------------------------------------------

    def signal_reconfig(self, instance: str) -> None:
        """Deliver the reconfiguration signal (the paper's SIGHUP)."""
        self.get_module(instance).mh.request_reconfig()
        self.trace.append(f"signal reconfig {instance}")

    def objstate_move(
        self, old: str, new: str, timeout: float = 10.0
    ) -> bytes:
        """Signal ``old`` to divulge its state, wait, install it in ``new``;
        return the state's packet.

        The paper: "signals a module to divulge state information on a
        particular interface, then moves that state information to an
        interface of another module."  The divulged state crosses the
        two hosts' machine profiles like any other message: a target in
        this process resumes from the copy the divulge kept, one behind
        a link from the packet.  The target must exist before the signal,
        and the old module is joined once it has divulged.
        """
        target = self.get_module(new)
        if target.state not in (ModuleState.CREATED, ModuleState.LOADED):
            raise BusError(
                f"objstate_move target {new!r} already started; state must "
                f"be installed before the clone runs"
            )
        old_module = self.get_module(old)
        self.signal_reconfig(old)
        handoff = self.await_divulge(old_module, timeout)
        target.mh.incoming = handoff
        self.trace.append(f"objstate_move {old} -> {new} ({len(handoff.packet)} bytes)")
        old_module.join(timeout)
        return handoff.packet

    def await_divulge(self, module: ModuleInstance, timeout: float = 10.0) -> Handoff:
        """Wait for a signalled ``module`` to divulge; return its state.

        The module's own ``mh`` records the outcome (``divulge_settled``):
        the state it divulged (with the copy it kept, or as the packet
        its host pushed), or why the divulge failed, which raises here at once
        rather than at the deadline.  With neither by the deadline, the
        module's crash is raised if it crashed, else a timeout.  The
        caller installs the state where it goes (``mh.incoming``).
        """
        mh = module.mh
        deadline = time.monotonic() + timeout
        if mh.divulge_settled.wait(timeout):
            try:
                if mh.divulge_failed is not None:
                    raise mh.divulge_failed
                dropped = faults.fire("bus.stream_divulge")
            except Exception as exc:
                telemetry.event(
                    "bus.divulge_failed",
                    instance=module.name,
                    cause=type(exc).__name__,
                )
                raise
            if not dropped:
                handoff = mh.outgoing
                telemetry.event(
                    "bus.stream_divulge", instance=module.name, bytes=len(handoff.packet)
                )
                return handoff
            # A lost hand-off: only the deadline notices.
            telemetry.event("bus.divulge_dropped", instance=module.name)
            time.sleep(max(0.0, deadline - time.monotonic()))
        module.check_alive()
        raise ReconfigTimeoutError(
            f"{module.name}: no reconfiguration point reached within {timeout}s"
        )

    # ------------------------------------------------------------------
    # Queue transfer (Figure 5's ``cq`` / ``rmq`` bind commands)
    # ------------------------------------------------------------------

    def copy_queue(self, old: str, interface: str, new: str) -> int:
        """``cq``: :meth:`hand_over`'s queue move for one interface, which
        leaves the old queue empty, so it does the ``rmq`` too; returns
        how many messages went to the front of ``new``'s queue."""
        with self._lock:
            src, dst = self.get_module(old), self.get_module(new)
            return self._move_queues(src, dst, True, interface).get(interface, 0)

    def remove_queue(self, old: str, interface: str) -> int:
        """``rmq``: seal ``old``'s queue with a discard that counts; returns
        how many it discarded.  A queue a ``cq`` sealed keeps its forward."""
        with self._lock:
            module = self.get_module(old)
            return self._move_queues(module, None, False, interface).get(interface, 0)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        with self._lock:
            modules = list(self._instances.values()) + self._unbound
            monitor, self._health_monitor = self._health_monitor, None
        if monitor is not None:
            # Hosts are going away with their transports; just stop
            # exporting their (now meaningless) verdicts.
            rec = telemetry.recorder
            if rec is not None:
                rec.set_health_provider(None)
        for module in modules:
            module.request_stop()  # every thread is told before any join
        for module in modules:
            # As a commit removes the module it replaced (a remote one
            # from its host).
            try:
                module.remove(timeout)
            except (BusError, TransportError):
                pass  # host already gone
        with self.editing():
            self._instances.clear()
            self._unbound = []
            self._bindings.clear()
            self._routes_stale = True
            transports = list(self._transports.values())
            self._transports.clear()
        for transport in transports:
            transport.close()

    def check_health(self) -> None:
        """Raise the first crash found among running modules."""
        with self._lock:
            modules = list(self._instances.values())
        for module in modules:
            module.check_alive()

    def statics_of(self, instance: str) -> Dict[str, object]:
        """A snapshot of an instance's statics, wherever it runs.

        For inproc modules this is a plain dict copy; for remote ones a
        live round-trip to the hosting process.  The convenience for
        tests and benchmarks that read results out of module state.
        """
        return dict(self.get_module(instance).mh.statics)
