"""Pluggable transports: *where* a module executes, behind one interface.

POLYLITH's central claim is that composition is independent of where
code actually executes — the bus hides module location behind interface
bindings.  A :class:`Transport` answers "where does this instance run,
and how do messages reach it" for three placements, all on the one
:class:`~repro.bus.bus.SoftwareBus`:

``inproc``
    today's path — modules are threads in the bus process, delivery is
    a direct deque put with no encoding (kept allocation-free);
``worker`` (:mod:`repro.bus.procpool`)
    a pool of long-lived worker processes fed over ``multiprocessing``
    pipes, the wire format being the same canonical self-described
    encoding as state packets (the PR 2 compiled codecs);
``tcp`` (:class:`TcpTransport`, daemons in :mod:`repro.bus.tcp`)
    one machine-daemon process per simulated machine, each with its own
    architecture profile, reached over a TCP socket.

The pieces shared by every out-of-process placement live here:

:class:`Link`
    the bus-side end of a remote host's control/data channel — seq'd
    request/reply with a pump thread, plus fire-and-forget events.
    Events are dispatched from a *separate* thread so a request issued
    while holding the bus lock can always see its reply (the pump never
    blocks on bus internals).
:class:`ModuleHost`
    the remote-side core hosting real :class:`ModuleInstance` threads
    and serving the command protocol; :func:`serve_host` is the loop
    around it that pipe workers and TCP machine daemons both run.
:class:`RemoteModuleHandle`
    the bus-side stand-in for a remotely hosted module.  It duck-types
    the slice of :class:`ModuleInstance` the bus, the coordinator, and
    the Figure-5 primitives consume — including a proxy ``mh`` whose
    divulge/restore events are pushed by the remote host, so ``replace()``
    works unchanged when old module and clone live in different
    processes (the state packet simply travels over the transport).

Worker-local fan-out: the bus pushes per-host route tables to each link
(``set_routes``) covering endpoints whose *every* destination lives on
that same host; such writes are delivered host-locally without touching
the bus process at all, which is what lets pinned producer/consumer
pairs scale with cores.  Any topology change broadcasts ``clear_routes``
first (per-link FIFO makes subsequent queue snapshots/drains exact).
Routes are pushed whether or not telemetry records: a host counts the
writes it delivers itself, the bus the ones tunneled to it.
"""

from __future__ import annotations

import socket
import threading
import time
from queue import SimpleQueue
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.bus.batch import BatchPolicy, Coalescer, unpack_batch
from repro.bus.machine import Host
from repro.bus.message import Message
from repro.bus.module import ModuleInstance, ModuleState, prepared_source_for
from repro.bus.queues import MessageQueue
from repro.bus.spec import ModuleSpec, spec_from_abstract
from repro.errors import (
    BindingError,
    BusError,
    InjectedFault,
    ModuleCrashedError,
    ModuleLifecycleError,
    ReconfigTimeoutError,
    TransportError,
    UnknownInterfaceError,
    UnknownModuleError,
)
from repro.runtime import faults, telemetry
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MachineProfile, profile_from_abstract

if TYPE_CHECKING:
    import subprocess


class Transport:
    """Where a set of module instances executes.

    A transport is attached to one :class:`~repro.bus.bus.SoftwareBus`
    under a name; ``placement="<name>[:slot]"`` on ``add_module`` selects
    it.  ``close`` tears down whatever processes it owns.
    """

    name = "transport"

    def attach_bus(self, bus) -> None:
        self._bus = bus

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class InprocTransport(Transport):
    """Today's path: modules are threads in the bus process.

    Delivery stays the direct ``deque.append`` behind a precompiled
    routing entry — attaching other transports adds nothing to this hot
    path (remote deliveries compile into the routing table exactly like
    local ones, as bound callables).
    """

    name = "inproc"

    def __init__(self):
        self._bus = None

    def add_module(
        self,
        spec: ModuleSpec,
        instance: str,
        host: Host,
        status: str,
        state_packet: Optional[bytes],
        sleep_policy: SleepPolicy,
    ) -> ModuleInstance:
        module = ModuleInstance(
            name=instance,
            spec=spec,
            host=host,
            bus=self._bus,
            status=status,
            sleep_policy=sleep_policy,
        )
        if state_packet is not None:
            module.mh.incoming_packet = state_packet
        module.load()
        return module


# ---------------------------------------------------------------------------
# Bus-side link plumbing
# ---------------------------------------------------------------------------


class _Waiter:
    """One pending request awaiting its reply frame."""

    __slots__ = ("event", "kind", "value")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.kind = ""
        self.value: object = None

    def complete(self, kind: str, value: object) -> None:
        self.kind = kind
        self.value = value
        self.event.set()


#: Tag of the optional trace-context trailer a request frame may carry:
#: ``["tctx", recon_id, parent_span_id, lamport_tick]`` appended after
#: the command's own arguments.  Absence is the backward-compatible
#: default (events never carry one, old senders never append one).
TRACE_CONTEXT_TAG = "tctx"


def strip_trace_context(args: List[object]) -> List[object]:
    """Pop (and adopt) an optional trace-context trailer off request args.

    The receiving host calls this before dispatching a command: if the
    sender piggybacked a ``["tctx", recon, parent_sid, tick]`` trailer,
    spans opened while serving the command — and by module threads it
    wakes — record under that remote parent, and the local Lamport clock
    absorbs the sender's tick.  Without a trailer this is a pure
    pass-through, so hosts speaking the old frame shape are unaffected.
    """
    if args and isinstance(args[-1], (list, tuple)):
        trailer = args[-1]
        if len(trailer) == 4 and trailer[0] == TRACE_CONTEXT_TAG:
            recon = trailer[1]
            telemetry.adopt_trace_context(
                str(recon) if recon is not None else None,
                int(trailer[2]),  # type: ignore[arg-type]
                int(trailer[3]),  # type: ignore[arg-type]
            )
            return list(args[:-1])
    return list(args)


def _wire_safe(value: object) -> object:
    """Clamp a telemetry record value to canonically encodable types."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, dict):
        return {str(k): _wire_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire_safe(v) for v in value]
    return repr(value)


def _error_from(link_name: str, message: str) -> BusError:
    """Rehydrate a remote ``err`` reply into a useful exception type."""
    if "ReconfigTimeoutError" in message:
        return ReconfigTimeoutError(message)
    if "UnknownModuleError" in message:
        return UnknownModuleError(f"{link_name}: {message}")
    if "TransportError" in message or message == "link closed":
        return TransportError(f"{link_name}: {message}")
    return BusError(f"{link_name}: {message}")


def note_event_failed(
    host: str, command: str, exc: BaseException, first: bool
) -> None:
    """Account for an event whose handler raised, at either end of a link.

    Events have no reply to carry the error back, so the failure is
    counted (``link.event_errors``, keyed by host) and the first one of
    a streak raises a ``link.event_failed`` flare naming the command —
    the receive-side twin of ``link.send_failed``.
    """
    rec = telemetry.recorder
    if rec is not None:
        rec.count("link.event_errors", key=host)
    if first:
        telemetry.event(
            "link.event_failed",
            host=host,
            command=command,
            error=f"{type(exc).__name__}: {exc}",
        )


class Link:
    """Bus-side end of one remote module host's channel.

    The frame protocol is the machine-daemon one: ``[kind, seq,
    command, args...]`` with ``kind`` in ``req``/``rep``/``err``/``evt``.
    The *pump* thread only ever completes request waiters and enqueues
    events; events are handled on a dedicated dispatcher thread.  That
    split is load-bearing: the rebind batch issues queue-transfer
    requests while holding the bus lock, and an event handler may block
    on that same lock (tunneled writes route through the bus) — with a
    single thread the reply behind a blocked event could never be read.

    ``retry`` enables the lossy-channel request policy (used over TCP,
    where the chaos suite drops frames); pipes are loss-free and run
    single-attempt.

    Deliveries do not ship frame-per-message: :meth:`send_deliver` hands
    the encoded wire to a per-link :class:`~repro.bus.batch.Coalescer`
    whose flusher drains opportunistically, so a busy link ships many
    messages per ``deliver_batch`` frame.  Per-link FIFO survives
    because every *other* frame (requests, non-delivery events) drains
    the pending batch under the send lock before going out.
    """

    def __init__(
        self,
        name: str,
        profile: MachineProfile,
        channel,
        on_event: Optional[Callable[[str, List[object]], None]] = None,
        retry: Optional[RetryPolicy] = None,
        batch: Optional[BatchPolicy] = None,
    ):
        self.name = name
        self.profile = profile
        self.channel = channel
        self.on_event = on_event
        self.retry = retry
        self.closed = threading.Event()
        self._seq = 0
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: Dict[int, _Waiter] = {}
        self._events: SimpleQueue = SimpleQueue()
        self._send_failing = False
        self._coalescer = Coalescer(
            name,
            "deliver_batch",
            ship=self._ship_event,
            send_lock=self._send_lock,
            policy=batch or BatchPolicy(),
            notify_drop=self._note_send_failed,
            notify_ok=self._note_send_ok,
        )
        self._pump = threading.Thread(
            target=self._read_loop, name=f"link-pump-{name}", daemon=True
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"link-evt-{name}", daemon=True
        )
        self._pump.start()
        self._dispatcher.start()

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = self.channel.recv()
                except InjectedFault:
                    continue  # injected receive fault: frame lost; requests retry
                kind = frame[0]
                if kind in ("rep", "err"):
                    seq = int(frame[1])
                    with self._lock:
                        waiter = self._pending.pop(seq, None)
                    if waiter is not None:
                        waiter.complete(str(kind), frame[2])
                elif kind == "evt":
                    self._events.put((str(frame[2]), frame[3:]))
        except (TransportError, OSError, EOFError):
            pass
        finally:
            self.closed.set()
            self._coalescer.close()
            with self._lock:
                pending = list(self._pending.values())
                self._pending.clear()
            for waiter in pending:
                waiter.complete("err", "link closed")
            self._events.put(None)

    def _dispatch_loop(self) -> None:
        failing = False
        while True:
            item = self._events.get()
            if item is None:
                return
            handler = self.on_event
            if handler is None:
                continue
            try:
                handler(item[0], list(item[1]))
            except Exception as exc:  # noqa: BLE001 - a bad event must not kill the link
                note_event_failed(self.name, item[0], exc, first=not failing)
                failing = True
            else:
                failing = False

    def _ship_event(self, command: List[object]) -> None:
        """Raw event send — caller (coalescer flusher) holds the send lock."""
        self.channel.send(["evt", 0] + list(command))

    def _note_send_ok(self) -> None:
        if self._send_failing:
            self._send_failing = False

    def _note_send_failed(self, dropped: int, exc: BaseException) -> None:
        """Mark the link's send side as failing — one event per streak.

        Chaos-injected faults are deliberate single-frame losses, not an
        outage; they are counted (``link.events_dropped``) but do not
        raise the ``link.send_failed`` flare.
        """
        if isinstance(exc, InjectedFault):
            return
        if not self._send_failing:
            self._send_failing = True
            telemetry.event(
                "link.send_failed",
                host=self.name,
                error=f"{type(exc).__name__}: {exc}",
                dropped=int(dropped),
            )

    def send_event(self, command: List[object]) -> None:
        """Fire-and-forget frame (non-delivery events: route pushes, packets).

        Acts as a FIFO barrier: any coalesced deliveries pending on this
        link ship first, under the same send-lock hold, so the event is
        ordered behind every delivery appended before this call.  Failed
        sends are counted (``link.events_dropped``) instead of silently
        vanishing, and the first failure of a streak emits a
        ``link.send_failed`` event.
        """
        try:
            with self._send_lock:
                self._coalescer.drain_locked()
                self.channel.send(["evt", 0] + list(command))
        except (InjectedFault, TransportError, OSError) as exc:
            # A lost event is a lost frame; the host notices via FIFO
            # gaps — but the loss itself is now observable.
            rec = telemetry.recorder
            if rec is not None:
                rec.count("link.events_dropped", key=self.name)
            self._note_send_failed(1, exc)
        else:
            self._note_send_ok()

    def send_deliver(self, instance: str, interface: str, wire: bytes) -> None:
        """Queue one encoded message for coalesced delivery (hot path)."""
        self._coalescer.append(instance, interface, "", wire)

    def send_deliver_shared(self, pairs, wire: bytes) -> None:
        """Deliver one encoded wire to many ``(instance, interface)`` targets.

        The encode-once fan-out: the wire is embedded in the batch blob a
        single time and every entry references it by index.
        """
        self._coalescer.append_shared(
            [(instance, interface, "") for instance, interface in pairs], wire
        )

    def request(self, command: List[object], timeout: float = 30.0) -> object:
        """Round-trip one request frame.

        With a retry policy, lost frames are retried with fresh sequence
        numbers (the daemon-link semantics: ``err`` replies never retry,
        re-executed commands must be idempotent).  Without one — pipes —
        a single attempt either answers or raises ``TransportError``.
        """
        attempts = self.retry.attempts if self.retry is not None else 1
        delays = self.retry.delays() if self.retry is not None else []
        failure: Optional[Exception] = None
        payload = list(command)
        tctx = telemetry.trace_context()
        if tctx is not None:
            payload.append([TRACE_CONTEXT_TAG, tctx[0], tctx[1], tctx[2]])
        for attempt in range(attempts):
            if self.closed.is_set():
                raise TransportError(f"link {self.name}: closed")
            waiter = _Waiter()
            with self._lock:
                self._seq += 1
                seq = self._seq
                self._pending[seq] = waiter
            try:
                with self._send_lock:
                    # FIFO barrier: requests (queue snapshots, drains,
                    # transfers) must observe every delivery appended
                    # before them, so pending batches ship first.
                    self._coalescer.drain_locked()
                    self.channel.send(["req", seq] + payload)
            except InjectedFault as exc:
                with self._lock:
                    self._pending.pop(seq, None)
                failure = exc
            except (TransportError, OSError) as exc:
                with self._lock:
                    self._pending.pop(seq, None)
                raise TransportError(
                    f"link {self.name}: send failed: {exc}"
                ) from exc
            else:
                if waiter.event.wait(timeout):
                    if waiter.kind == "err":
                        raise _error_from(self.name, str(waiter.value))
                    return waiter.value
                with self._lock:
                    self._pending.pop(seq, None)
                failure = TransportError(
                    f"link {self.name}: no reply to {command[0]!r} in {timeout}s"
                )
            if attempt < len(delays):
                time.sleep(delays[attempt])
        assert failure is not None
        raise failure

    def close(self) -> None:
        self._coalescer.close()
        try:
            self.channel.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Remote-side core (shared by pipe workers and TCP machine daemons)
# ---------------------------------------------------------------------------


class ModuleHost:
    """Hosts real module threads inside a remote process.

    One instance per worker process / machine daemon.  The surrounding
    serve loop feeds frames in; :meth:`handle` executes commands; pushes
    back to the bus go through the injected ``send_event`` callable.
    Lifecycle, divulge, and restore transitions are *pushed* as events,
    so the bus-side handles mirror them without polling.

    The host is also what its modules see as "the bus" (:meth:`route`,
    :meth:`route_to`): a write on an endpoint with a pushed host-local
    route is put directly into the destination queue — same-process
    identity, no encoding, no bus involvement (the multi-core fast
    path); while recording, the host counts such a write as
    ``bus.routed`` (``bus.directed``) itself, so every write is counted
    exactly once.  Everything else tunnels to the bus, coalesced into
    ``write_batch`` frames; every *other* outbound event drains that
    tunnel first so divulge, lifecycle, and heartbeat events stay
    FIFO-ordered behind the writes that preceded them.

    A commit renames the clone ``X.new -> X`` while deliveries addressed
    to the old name may still be in flight; :attr:`renamed` remembers
    the last rename of each name so such a delivery lands at the renamed
    module (consulted only when the name is otherwise unknown, forgotten
    when that name is added again).
    """

    def __init__(
        self,
        machine_name: str,
        host: Host,
        sleep_policy: SleepPolicy,
        send_event: Callable[[List[object]], None],
    ):
        self.machine_name = machine_name
        self.host = host
        self.profile = host.profile
        self.sleep_policy = sleep_policy
        self._raw_send_event = send_event
        self._send_gate = threading.Lock()
        self._tunnel = Coalescer(
            machine_name,
            "write_batch",
            ship=send_event,
            send_lock=self._send_gate,
            policy=BatchPolicy(),
        )
        self.modules: Dict[str, ModuleInstance] = {}
        # Guards modules-dict mutations against concurrent deliveries
        # (events run inline in the serve loop while commands like
        # rename run on their own threads).
        self.modules_lock = threading.Lock()
        #: pre-rename name -> current name (see the class docstring).
        self.renamed: Dict[str, str] = {}
        # (instance, interface) -> ((dest, dest_if), ...) for endpoints
        # whose whole fan-out lives on this host.  Replaced atomically.
        self.routes: Dict[Tuple[str, str], Tuple] = {}
        #: instance -> monotonic time of the last delivery served through
        #: this host (host-local fast-path writes bypass it; the
        #: heartbeat reports the age as "last delivery the bus caused").
        self._last_delivery: Dict[str, float] = {}
        self._hb_lock = threading.Lock()
        self._hb_interval = 0.0
        self._hb_stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None

    # -- plumbing ----------------------------------------------------------

    def handle(self, command: str, args: List[object]) -> object:
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise BusError(f"host {self.machine_name}: unknown command {command!r}")
        return handler(*strip_trace_context(args))

    def send_event(self, command: List[object]) -> None:
        """Push one event to the bus, FIFO-ordered behind tunneled writes.

        When the write tunnel has coalesced frames pending, they ship
        first under the same send-gate hold — a ``divulged`` event must
        never overtake the writes the module issued before divulging.
        """
        with self._send_gate:
            self._tunnel.drain_locked()
            self._raw_send_event(command)

    # -- what hosted modules see as "the bus" --------------------------------

    def _count_miss(self, n: int) -> None:
        """Deliveries that found no module or queue (withdrawn in flight)."""
        rec = telemetry.recorder
        if rec is not None:
            rec.count("host.deliver_miss", n=n, key=self.machine_name)

    def _renamed_module(self, name: str, n: int = 1) -> Optional[ModuleInstance]:
        """Where ``n`` deliveries addressed to the unknown ``name`` belong:
        the module that bore the name before a rename, else a counted miss."""
        module = self.modules.get(self.renamed.get(name, ""))
        if module is None:
            self._count_miss(n)
        return module

    def route(self, instance: str, interface: str, message: Message) -> None:
        entry = self.routes.get((instance, interface))
        if entry is None:
            self._tunnel.append(
                instance, interface, "", message.to_wire(self.profile)
            )
            return
        rec = telemetry.recorder
        if rec is not None:
            rec.count("bus.routed", key=f"{instance}.{interface}")
        modules = self.modules
        for dest, dest_if in entry:
            module = modules.get(dest) or self._renamed_module(dest)
            if module is not None:
                module.queue(dest_if).put(message)

    def route_to(
        self, instance: str, interface: str, destination: str, message: Message
    ) -> None:
        entry = self.routes.get((instance, interface))
        if entry is None:
            self._tunnel.append(
                instance, interface, destination, message.to_wire(self.profile)
            )
            return
        for dest, dest_if in entry:
            if dest == destination:
                rec = telemetry.recorder
                if rec is not None:
                    rec.count("bus.directed", key=f"{instance}.{interface}")
                module = self.modules.get(dest) or self._renamed_module(dest)
                if module is not None:
                    module.queue(dest_if).put(message)
                return
        raise BindingError(
            f"directed send from {instance}.{interface} to "
            f"{destination!r}: no such binding"
        )

    def stop_all(self) -> None:
        """Serve-loop teardown: ask every hosted module thread to exit."""
        with self._hb_lock:
            if self._hb_stop is not None:
                self._hb_stop.set()
        with self.modules_lock:
            modules = list(self.modules.values())
        for module in modules:
            module.mh.stop()
        # Flush what the modules wrote before their threads exited, then
        # stop accepting appends.
        with self._send_gate:
            self._tunnel.drain_locked()
        self._tunnel.close()

    def _module(self, instance) -> ModuleInstance:
        try:
            return self.modules[str(instance)]
        except KeyError:
            raise UnknownModuleError(
                f"host {self.machine_name}: no instance {instance!r}"
            ) from None

    def _arm(self, module: ModuleInstance) -> None:
        """Point the module's divulge at the bus (push, don't poll)."""
        module.mh.set_divulge_callback(
            lambda packet, m=module: self.send_event(
                ["divulged", m.name, packet, m.mh.outgoing_frames]
            ),
            lambda failure, m=module: self.send_event(
                ["divulge_failed", m.name, f"{type(failure).__name__}: {failure}"]
            ),
        )

    def _watch(self, module: ModuleInstance) -> None:
        module.lifecycle_hook = self._push_lifecycle
        module.mh.on_restored = lambda m=module: self.send_event(
            ["restored", m.name]
        )

    def _push_lifecycle(self, module: ModuleInstance) -> None:
        crash = module.crash
        self.send_event(
            [
                "lifecycle",
                module.name,
                module.state.value,
                repr(crash) if crash is not None else "",
            ]
        )

    # -- module lifecycle commands -----------------------------------------

    def _cmd_add(self, instance, spec_raw, status, packet) -> bool:
        spec = spec_from_abstract(dict(spec_raw))
        module = ModuleInstance(
            name=str(instance),
            spec=spec,
            host=self.host,
            bus=self,
            status=str(status),
            sleep_policy=self.sleep_policy,
        )
        if packet is not None:
            module.mh.incoming_packet = bytes(packet)
        module.load()
        self._watch(module)
        with self.modules_lock:
            if str(instance) in self.modules:
                raise BusError(
                    f"host {self.machine_name}: instance {instance!r} "
                    f"already present"
                )
            self.modules[str(instance)] = module
            self.renamed.pop(str(instance), None)
        return True

    def _cmd_start(self, instance) -> bool:
        self._module(instance).start()
        return True

    def _cmd_signal(self, instance) -> bool:
        module = self._module(instance)
        self._arm(module)
        module.mh.request_reconfig()
        return True

    def _cmd_stop(self, instance) -> str:
        module = self._module(instance)
        module.stop()
        return module.state.value

    def _cmd_remove(self, instance) -> bool:
        with self.modules_lock:
            module = self.modules.pop(str(instance))
        # Withdrawn/migrated modules must not leak delivery stamps (or
        # report stale ages if the name is ever reused).
        self._last_delivery.pop(str(instance), None)
        module.stop()
        module.state = ModuleState.REMOVED
        module.retire()
        return True

    def _cmd_rename(self, old_name, new_name) -> bool:
        with self.modules_lock:
            module = self.modules.pop(str(old_name))
            module.rename(str(new_name))
            self.modules[str(new_name)] = module
            self.renamed[str(old_name)] = str(new_name)
        stamp = self._last_delivery.pop(str(old_name), None)
        if stamp is not None:
            self._last_delivery[str(new_name)] = stamp
        return True

    def _cmd_revive(self, instance, packet) -> str:
        module = self._module(instance)
        module.revive(bytes(packet))
        # revive() reset the divulge machinery; future captures must
        # push to the bus again.
        self._arm(module)
        return module.state.value

    # -- state move commands -----------------------------------------------

    def _cmd_install_packet(self, instance, packet) -> bool:
        self._module(instance).mh.incoming_packet = bytes(packet)
        return True

    def _cmd_abandon(self, instance) -> bool:
        self._module(instance).mh.abandon_divulge()
        return True

    def _cmd_clear_reconfig(self, instance) -> bool:
        self._module(instance).mh.reconfig = False
        return True

    # -- message delivery and queue transfer ---------------------------------

    def _cmd_deliver_batch(self, blob) -> bool:
        """Deliver a coalesced batch: one lock acquire, one telemetry span.

        Each distinct wire decodes once; when it fans out to several
        modules the same :class:`Message` object is shared — delivered
        messages are treated as immutable (``SoftwareBus.route`` shares
        them the same way), so same-host sharing is safe.  An entry
        flushed under a clone's temporary name and dispatched after the
        commit renamed it lands at the renamed module.  Modules withdrawn between flush and
        dispatch are skipped and counted, not raised: a batch is a run
        of fire-and-forget deliveries, and a miss on one entry must not
        discard the rest.
        """
        wires, entries = unpack_batch(bytes(blob))
        profile = self.profile
        with telemetry.span(
            "host.deliver_batch", n=len(entries), wires=len(wires)
        ):
            # Decode and bucket outside the modules lock: one frame often
            # names the same few queues over and over (a fan-out repeats
            # its receiver set per group), so deliveries collapse to one
            # ``put_many`` — one queue-lock acquire — per distinct queue.
            # Per-queue FIFO holds (buckets keep entry order); cross-queue
            # order within one batch is not observable, since any snapshot
            # or transfer rides a request ordered behind the whole frame.
            decoded: List[Optional[Message]] = [None] * len(wires)
            buckets: Dict[Tuple[str, str], List[Message]] = {}
            for instance, interface, _unused, widx in entries:
                message = decoded[widx]
                if message is None:
                    message = Message.from_wire(wires[widx], profile)
                    decoded[widx] = message
                key = (instance, interface)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [message]
                else:
                    bucket.append(message)
            touched = []
            with self.modules_lock:
                modules = self.modules
                for (instance, interface), run in buckets.items():
                    module = modules.get(instance) or self._renamed_module(
                        instance, len(run)
                    )
                    if module is None:
                        continue
                    try:
                        module.queue(interface).put_many(run)
                    except BusError:  # no such queue
                        self._count_miss(len(run))
                        continue
                    touched.append(module.name)
        now = time.monotonic()
        for instance in touched:
            self._last_delivery[instance] = now
        return True

    def _cmd_deliver_front(self, instance, interface, wires) -> bool:
        """Prepend a batch of (older) messages — the ``cq`` transfer."""
        messages = [Message.from_wire(bytes(w), self.profile) for w in wires]
        with self.modules_lock:
            self._module(instance).queue(str(interface)).prepend(messages)
        self._last_delivery[str(instance)] = time.monotonic()
        return True

    def _cmd_counts(self, instance) -> Dict[str, int]:
        return self._module(instance).queued_counts()

    def _cmd_snapshot_queue(self, instance, interface) -> List[bytes]:
        messages = self._module(instance).queue(str(interface)).snapshot()
        return [m.to_wire(self.profile) for m in messages]

    def _cmd_drain_queue(self, instance, interface) -> List[bytes]:
        messages = self._module(instance).queue(str(interface)).drain()
        return [m.to_wire(self.profile) for m in messages]

    def _cmd_discard_queue(self, instance, interface) -> int:
        """Drain and *discard* — returns only the count.

        ``remove_queue`` on a remote module only needs how many messages
        died with the queue; shipping every wire back just to count them
        (the old ``drain_queue`` round-trip) wastes the whole batch win.
        """
        return len(self._module(instance).queue(str(interface)).drain())

    # -- host-local routing ---------------------------------------------------

    def _cmd_set_routes(self, routes_raw) -> bool:
        table: Dict[Tuple[str, str], Tuple] = {}
        for entry in routes_raw:
            instance, interface, pairs = entry[0], entry[1], entry[2]
            table[(str(instance), str(interface))] = tuple(
                (str(dest), str(dest_if)) for dest, dest_if in pairs
            )
        self.routes = table
        return True

    def _cmd_clear_routes(self) -> bool:
        self.routes = {}
        return True

    # -- introspection ---------------------------------------------------------

    def _cmd_statics(self, instance) -> Dict[str, object]:
        # Test/debug introspection: only canonical-encodable statics travel.
        statics = self._module(instance).mh.statics
        return {k: v for k, v in statics.items()}

    def _cmd_ping(self) -> str:
        return self.machine_name

    # -- chaos / telemetry parity across the boundary --------------------------

    def _cmd_install_faults(self, plan_raw) -> bool:
        faults.uninstall()  # retried installs must not trip the nesting guard
        faults.install(FaultPlan.from_abstract(dict(plan_raw)))
        return True

    def _cmd_clear_faults(self) -> bool:
        faults.uninstall()
        return True

    def _cmd_telemetry_enable(self) -> bool:
        if telemetry.recorder is None:
            telemetry.enable()
        return True

    def _cmd_telemetry_disable(self) -> bool:
        if telemetry.recorder is not None:
            telemetry.disable()
        return True

    def _cmd_telemetry_counters(self) -> Dict[str, int]:
        rec = telemetry.recorder
        if rec is None:
            return {}
        return {
            f"{name}|{key or ''}": int(value)
            for (name, key), value in rec.counters().items()
        }

    def _cmd_telemetry_snapshot(self) -> Dict[str, object]:
        """Counters, gauges, and buffered trace records, wire-keyed.

        Counters/gauges are absolute totals — the bus-side aggregation
        source re-reads them on every merge, so repeated reads are
        idempotent.  ``records`` is different: the host's span/event
        ring is *drained* (shipped exactly once) so the bus recorder can
        merge remote halves of replace trees — see
        ``FlightRecorder.ingest_remote``.
        """
        rec = telemetry.recorder
        if rec is None:
            return {"counters": {}, "gauges": {}, "records": []}
        return {
            "counters": {
                f"{name}|{key or ''}": int(value)
                for (name, key), value in rec.counters().items()
            },
            "gauges": {
                f"{name}|{key or ''}": float(value)
                for (name, key), value in rec.gauges().items()
            },
            "records": [_wire_safe(record) for record in rec.drain_records()],
        }

    def _cmd_clear_trace_context(self) -> bool:
        """Drop the adopted ambient root (sent at commit/rollback)."""
        telemetry.clear_trace_context()
        return True

    # -- health plane -----------------------------------------------------------

    def _cmd_health_enable(self, interval) -> bool:
        """Start (or retune) the periodic heartbeat publisher."""
        with self._hb_lock:
            self._hb_interval = max(0.005, float(interval))
            if self._hb_thread is None or not self._hb_thread.is_alive():
                self._hb_stop = threading.Event()
                self._hb_thread = threading.Thread(
                    target=self._heartbeat_loop,
                    args=(self._hb_stop,),
                    name=f"heartbeat-{self.machine_name}",
                    daemon=True,
                )
                self._hb_thread.start()
        return True

    def _cmd_health_disable(self) -> bool:
        with self._hb_lock:
            if self._hb_stop is not None:
                self._hb_stop.set()
            self._hb_thread = None
            self._hb_stop = None
        return True

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        seq = 0
        while not stop.wait(self._hb_interval):
            seq += 1
            try:
                self.send_event(
                    ["heartbeat", self.machine_name, seq, self._health_payload()]
                )
            except Exception:  # noqa: BLE001 - a sick link must not kill the beat
                pass

    def _health_payload(self) -> Dict[str, object]:
        """Per-module liveness detail riding on each heartbeat."""
        now = time.monotonic()
        with self.modules_lock:
            items = list(self.modules.items())
        modules: Dict[str, object] = {}
        for name, module in items:
            try:
                counts = module.queued_counts()
                hwm = 0
                for decl in module.spec.interfaces:
                    if module.has_queue(decl.name):
                        cell = getattr(module.queue(decl.name), "_hwm", 0)
                        if cell > hwm:
                            hwm = int(cell)
                last = self._last_delivery.get(name)
                mh = module.mh
                modules[name] = {
                    "state": module.state.value,
                    "queued": int(sum(counts.values())),
                    "queue_hwm": hwm,
                    "divulging": bool(mh.reconfig and not mh.divulged.is_set()),
                    "last_delivery_age": (
                        now - last if last is not None else None
                    ),
                }
            except Exception:  # noqa: BLE001 - a module mid-teardown is skippable
                continue
        return {"modules": modules}


def serve_host(
    channel, name: str, profile: MachineProfile, sleep_scale: float
) -> None:
    """Host modules behind ``channel`` until shutdown or the bus goes away.

    The whole remote side of a link, for pipe workers and TCP daemons
    alike.  Events are handled inline: per-link FIFO is what makes queue
    snapshots exact w.r.t. prior deliveries.  Requests each run on their
    own thread, because several of them block on module progress
    (``stop``, ``revive``) while deliveries must keep flowing, and every
    outcome becomes a ``rep`` or ``err`` reply.
    """
    send_lock = threading.Lock()

    def send(frame: List[object]) -> None:
        try:
            with send_lock:
                channel.send(frame)
        except TransportError:
            pass  # bus side went away; the loop below notices on recv

    core = ModuleHost(
        name,
        Host(name=name, profile=profile),
        SleepPolicy(scale=sleep_scale),
        lambda command: send(["evt", 0] + list(command)),
    )

    def serve(seq: int, command: str, args: List[object]) -> None:
        try:
            reply: List[object] = ["rep", seq, core.handle(command, args)]
        except Exception as exc:  # noqa: BLE001 - every failure becomes an err reply
            reply = ["err", seq, f"{type(exc).__name__}: {exc}"]
        send(reply)

    failing = False
    try:
        while True:
            try:
                frame = channel.recv()
            except TransportError:
                break  # bus process closed the channel
            if not isinstance(frame, list) or len(frame) < 3:
                break  # not our protocol: nothing sane to reply to
            kind, seq, command = frame[0], frame[1], str(frame[2])
            if kind == "evt":
                try:
                    core.handle(command, frame[3:])
                except Exception as exc:  # noqa: BLE001 - a bad event must not kill the host
                    note_event_failed(name, command, exc, first=not failing)
                    failing = True
                else:
                    failing = False
            elif kind == "req":
                if command == "shutdown":
                    send(["rep", int(seq), True])
                    break
                threading.Thread(
                    target=serve,
                    args=(int(seq), command, frame[3:]),
                    name=f"serve-{command}",
                    daemon=True,
                ).start()
    finally:
        core.stop_all()


# ---------------------------------------------------------------------------
# Bus-side stand-ins for remotely hosted modules
# ---------------------------------------------------------------------------


class ProxyQueue:
    """Bus-side view of a remote module's per-interface queue.

    Hot-path delivery never passes through here (routing entries bind a
    direct wire-put); this covers the reconfiguration-time queue
    operations — ``cq``/``rmq`` snapshots, drains, and prepends — which
    travel as requests so their effects are ordered against prior
    deliveries by per-link FIFO.
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
            handle.name, self.interface, message.to_wire(handle.host.profile)
        )

    def peek_count(self) -> int:
        return int(self._handle.queued_counts().get(self.interface, 0))

    def __len__(self) -> int:
        return self.peek_count()

    def snapshot(self) -> List[Message]:
        wires = self._handle.link.request(
            ["snapshot_queue", self._handle.name, self.interface]
        )
        profile = self._handle.host.profile
        return [Message.from_wire(bytes(w), profile) for w in wires]  # type: ignore[union-attr]

    def drain(self) -> List[Message]:
        wires = self._handle.link.request(
            ["drain_queue", self._handle.name, self.interface]
        )
        profile = self._handle.host.profile
        return [Message.from_wire(bytes(w), profile) for w in wires]  # type: ignore[union-attr]

    def discard(self) -> int:
        """Drain remotely, returning only the count (no wires shipped back)."""
        return int(
            self._handle.link.request(
                ["discard_queue", self._handle.name, self.interface]
            )  # type: ignore[arg-type]
        )

    def prepend(self, messages: List[Message]) -> None:
        profile = self._handle.host.profile
        self._handle.link.request(
            [
                "deliver_front",
                self._handle.name,
                self.interface,
                [m.to_wire(profile) for m in messages],
            ]
        )

    def extend(self, messages: List[Message]) -> None:
        for message in messages:  # FIFO events append behind prior deliveries
            self.put(message)


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
        self.restored = threading.Event()
        self.outgoing_packet: Optional[bytes] = None
        self.outgoing_frames: Optional[int] = None
        self.divulge_failed: Optional[BaseException] = None
        self._incoming: Optional[bytes] = None
        self._reconfig_mirror = False
        self._divulge_callback: Optional[Callable[[bytes], None]] = None
        self._failure_callback: Optional[Callable[[BaseException], None]] = None
        self._cb_lock = threading.Lock()

    # -- status -------------------------------------------------------------

    def getstatus(self) -> str:
        return self._handle.status

    @property
    def statics(self) -> Dict[str, object]:
        """Live snapshot of the remote module's statics (one request)."""
        return dict(
            self._handle.link.request(["statics", self._handle.name])  # type: ignore[call-overload]
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
                ["install_packet", self._handle.name, packet]
            )

    def set_divulge_callback(
        self,
        callback: Optional[Callable[[bytes], None]] = None,
        on_failure: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        # Stored bus-side only; the remote host always pushes, and the
        # "divulged" event fans into whatever is registered here.
        with self._cb_lock:
            self._divulge_callback = callback
            self._failure_callback = on_failure

    def request_reconfig(self) -> None:
        self._handle.link.request(["signal", self._handle.name])
        self._reconfig_mirror = True

    def abandon_divulge(self) -> None:
        with self._cb_lock:
            self._divulge_callback = None
            self._failure_callback = None
        self._handle.link.request(["abandon", self._handle.name])

    @property
    def reconfig(self) -> bool:
        return self._reconfig_mirror

    @reconfig.setter
    def reconfig(self, value: bool) -> None:
        self._reconfig_mirror = bool(value)
        command = "signal" if value else "clear_reconfig"
        self._handle.link.request([command, self._handle.name])

    # -- event sinks (called from the link dispatcher thread) -------------------

    def _on_divulged(self, packet: bytes, frames: int) -> None:
        self.outgoing_packet = packet
        self.outgoing_frames = frames
        with self._cb_lock:
            callback = self._divulge_callback
        self.divulged.set()  # same order as MH.encode: event, then callback
        if callback is not None:
            callback(packet)

    def _on_divulge_failed(self, text: str) -> None:
        failure = TransportError(text)
        self.divulge_failed = failure
        with self._cb_lock:
            on_failure = self._failure_callback
        if on_failure is not None:
            on_failure(failure)


class RemoteModuleHandle:
    """Bus-side stand-in for a module hosted by a remote transport.

    Duck-types the platform-facing surface of
    :class:`~repro.bus.module.ModuleInstance`: the routing rebuild, the
    coordinator, the Figure-5 primitives, and the health checks all
    operate on it unchanged.  ``thread`` is always ``None`` (the real
    thread lives remotely); liveness is mirrored from pushed lifecycle
    events instead.
    """

    is_remote = True

    def __init__(
        self,
        name: str,
        spec: ModuleSpec,
        host: Host,
        link: Link,
        transport: "RemoteTransport",
        placement: str,
        status: str = "original",
    ):
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
        raw = self.link.request(["counts", self.name])
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
            _name=self.name,
            _interface=interface,
            _profile=sender_profile,
        ) -> None:
            _link.send_deliver(_name, _interface, message.to_wire(_profile))

        return put

    # -- lifecycle -----------------------------------------------------------

    def load(self) -> None:
        pass  # loaded remotely at add time

    def start(self) -> None:
        self.link.request(["start", self.name])
        self.state = ModuleState.RUNNING

    def stop(self, timeout: float = 5.0) -> None:
        value = self.link.request(["stop", self.name], timeout=timeout + 30.0)
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
        self.mh.restored.clear()
        self.mh.outgoing_packet = None
        self.mh.outgoing_frames = None
        value = self.link.request(
            ["revive", self.name, pkt], timeout=timeout + 30.0
        )
        self.crash = None
        self.state = ModuleState(str(value))

    def check_alive(self) -> None:
        if self.state is ModuleState.CRASHED and self.crash is not None:
            raise ModuleCrashedError(self.name, self.crash)

    def discard(self) -> None:
        """Remove the module from its remote host (bus-side bookkeeping too)."""
        self.transport._forget(self.name)
        self.link.request(["remove", self.name])
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


class RemoteTransport(Transport):
    """Shared bus-side logic for transports hosting modules out of process."""

    def __init__(self):
        self._bus = None
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
        self._health_interval = 0.0

    def attach_bus(self, bus) -> None:
        self._bus = bus

    def links(self) -> List[Link]:  # pragma: no cover - overridden
        raise NotImplementedError

    def _place(self, slot: Optional[str]) -> Tuple[Link, Host, str]:
        raise NotImplementedError

    # -- remote telemetry ------------------------------------------------------

    def enable_telemetry(self) -> None:
        """Install a flight recorder in every live remote host.

        Enable-if-absent on the host side, so the bus may call this on
        every routing rebuild to catch hosts spawned after ``enable()``.
        """
        self._hosts_recording = True
        for link in self.links():
            link.request(["telemetry_enable"])

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
        for link in self.links():
            try:
                link.request(["telemetry_disable"], timeout=5)
            except (BusError, OSError):
                pass

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
        except (BusError, OSError) as exc:
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

    def flush_telemetry(self) -> None:
        """Pull buffered remote trace records home and drop contexts.

        Called by the coordinator after commit *and* after rollback so
        the merged tree for the reconfiguration is complete the moment
        ``replace()`` returns.  Best-effort per link: a dead host simply
        has nothing left to say.
        """
        self.telemetry_snapshot()
        for link in self.links():
            try:
                link.request(["clear_trace_context"], timeout=5)
            except (BusError, OSError):
                pass

    # -- health plane ----------------------------------------------------------

    def enable_health(self, monitor, interval: float) -> None:
        """Point heartbeats from every live host at ``monitor``."""
        self._health_monitor = monitor
        self._health_interval = float(interval)
        for link in self.links():
            monitor.register_host(link.name, transport=self.name)
            link.request(["health_enable", float(interval)])

    def disable_health(self) -> None:
        monitor, self._health_monitor = self._health_monitor, None
        for link in self.links():
            try:
                link.request(["health_disable"])
            except (BusError, OSError):
                pass

    def _sync_health(self, link: Link) -> None:
        """Arm heartbeats on a host spawned after ``enable_health``."""
        monitor = self._health_monitor
        if monitor is not None:
            monitor.register_host(link.name, transport=self.name)
            link.request(["health_enable", self._health_interval])

    # -- handle bookkeeping ----------------------------------------------------

    def _register(self, handle: RemoteModuleHandle) -> None:
        with self._handles_lock:
            self._handles[handle.name] = handle

    def _forget(self, name: str) -> None:
        with self._handles_lock:
            self._handles.pop(name, None)

    def rename(self, handle: RemoteModuleHandle, new_name: str) -> None:
        handle.link.request(["rename", handle.name, new_name])
        with self._handles_lock:
            self._handles.pop(handle.name, None)
            handle.name = new_name
            self._handles[new_name] = handle

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
        link.request(
            ["add", instance, spec.to_abstract(prepared), status, state_packet]
        )
        handle = RemoteModuleHandle(
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

    Spawns one ``python -m repro.bus.tcp`` daemon per machine and speaks
    to it through the shared :class:`Link`/:class:`ModuleHost` protocol
    — so a module placed with ``placement="tcp:<machine>"`` participates
    in the ordinary :class:`~repro.bus.bus.SoftwareBus` topology (mixed
    bindings with inproc and worker modules included).  ``machines`` is
    a count (named ``<host_prefix><i>``), a list of names, or a mapping
    ``name -> architecture`` for daemons of different architectures;
    ``architecture`` is the profile of every machine not given one.  TCP
    frames are lossy under the chaos suite, so requests run under the
    retrying policy.
    """

    name = "tcp"

    def __init__(
        self,
        machines=1,
        architecture: str = "modern-64",
        sleep_scale: float = 0.0,
        host_prefix: str = "tcphost-",
    ):
        super().__init__()
        import subprocess

        from repro.bus import tcp as tcpmod  # late: tcp.py imports this module
        from repro.state.machine import MACHINES

        if isinstance(machines, int):
            machines = [f"{host_prefix}{i}" for i in range(machines)]
        if not isinstance(machines, dict):
            machines = dict.fromkeys(machines, architecture)
        #: machine name -> daemon process, in declared order.
        self._processes: Dict[str, subprocess.Popen] = {}
        self._machines: List[Tuple[str, Link, Host]] = []
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        links: Dict[str, Link] = {}
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(("127.0.0.1", 0))
            self._listener.listen(16)
            address: Tuple[str, int] = self._listener.getsockname()
            # Every daemon is started before any hello is awaited, so
            # their interpreter start-ups overlap.
            for name, machine_architecture in machines.items():
                base = MACHINES[machine_architecture]
                profile = MachineProfile(
                    name=name,
                    endianness=base.endianness,
                    int_bits=base.int_bits,
                    long_bits=base.long_bits,
                    float_bits=base.float_bits,
                )
                self._processes[name] = subprocess.Popen(
                    tcpmod._daemon_argv(name, profile, address, sleep_scale)
                )
            deadline = time.monotonic() + 60.0
            while len(links) < len(self._processes):
                link = self._next_hello(
                    {n: p for n, p in self._processes.items() if n not in links},
                    deadline,
                )
                links[link.name] = link
        except BaseException:
            # The caller gets no object to close(): leave nothing behind.
            for link in links.values():
                link.close()
            self._reap(grace=0.0)
            raise
        # Declared order, not hello order: round-robin and ``tcp:<index>``
        # placement count along it.
        self._machines = [
            (name, links[name], Host(name=name, profile=links[name].profile))
            for name in self._processes
        ]

    def _next_hello(
        self, waiting: Dict[str, subprocess.Popen], deadline: float
    ) -> Link:
        """The link of the next daemon to connect and say hello.

        Daemons come up in any order, so the name in the hello — not the
        accept order — says which machine a connection is; it must be one
        of ``waiting`` (name -> child process still owing its hello).  A
        child found dead while nobody connects fails the start at once.
        """
        from repro.bus import tcp as tcpmod  # late: tcp.py imports this module

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
                        f"tcp daemon {name!r} exited with status "
                        f"{child.returncode} before its hello"
                    )
            if time.monotonic() > deadline:
                raise TransportError(
                    f"no hello from tcp daemon(s) {sorted(waiting)} within 60s"
                )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(max(0.1, deadline - time.monotonic()))
            hello = tcpmod.recv_frame(sock)
            sock.settimeout(None)
            if not (
                isinstance(hello, list) and len(hello) >= 5 and hello[2] == "hello"
            ):
                raise TransportError(f"unexpected first frame {hello!r}")
            name = str(hello[3])
            if name not in waiting:
                raise TransportError(f"hello from unexpected tcp daemon {name!r}")
            profile = profile_from_abstract(dict(hello[4]))
        except BaseException:
            sock.close()
            raise
        link = Link(
            name,
            profile,
            tcpmod.SocketChannel(sock),
            retry=RetryPolicy(attempts=3, backoff=0.05),
        )
        link.on_event = self._make_on_event(link)
        return link

    def links(self) -> List[Link]:
        return [link for _, link, _ in self._machines]

    def peek_host(self, slot: Optional[str]) -> Optional[str]:
        """Resolve a slot to its daemon name without advancing round-robin."""
        if not slot:
            return None
        for name, _, _ in self._machines:
            if name == slot:
                return name
        try:
            index = int(slot)
        except ValueError:
            return None
        if 0 <= index < len(self._machines):
            return self._machines[index][0]
        return None

    def _place(self, slot: Optional[str]) -> Tuple[Link, Host, str]:
        if not slot:
            with self._rr_lock:
                index = self._rr % len(self._machines)
                self._rr += 1
        else:
            index = next(
                (i for i, (name, _, _) in enumerate(self._machines) if name == slot),
                -1,
            )
            if index < 0:
                try:
                    index = int(slot)
                except ValueError:
                    raise BusError(
                        f"tcp transport has no machine {slot!r}"
                    ) from None
                if not 0 <= index < len(self._machines):
                    raise BusError(f"tcp transport slot {slot!r} out of range")
        name, link, host = self._machines[index]
        return link, host, f"{self.name}:{name}"

    def close(self) -> None:
        for _, link, _ in self._machines:
            try:
                link.request(["shutdown"], timeout=5)
            except (BusError, TransportError):
                pass
            link.close()
        self._reap(grace=5.0)

    def _reap(self, grace: float) -> None:
        """Give every daemon ``grace`` seconds to exit, stop the ones
        that do not, and close the listener."""
        import subprocess

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
