"""The module host: the remote end of a link, and nothing else.

Every pipe worker and TCP machine daemon runs :func:`serve_host` around
one :class:`ModuleHost`, which hosts real
:class:`~repro.bus.module.ModuleInstance` threads and serves the command
protocol (docs/tcp-protocol.md).  A host process imports this file and
its channel module — :class:`PipeChannel` here for a worker,
:class:`~repro.bus.tcp.SocketChannel` for a daemon — and not the
bus-side half of the stack (:mod:`repro.bus.link`,
:mod:`repro.bus.transport`, :mod:`repro.bus.procpool`): modules arrive
prepared, so a host loads what it runs.

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

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bus.batch import BatchPolicy, Coalescer, unpack_batch
from repro.bus.machine import Host
from repro.bus.message import Message
from repro.bus.module import ModuleInstance, ModuleState
from repro.bus.spec import spec_from_abstract
from repro.errors import BindingError, BusError, TransportError, UnknownModuleError
from repro.runtime import faults, telemetry
from repro.runtime.faults import FaultPlan
from repro.runtime.mh import SleepPolicy
from repro.state.encoding import decode_any, encode_any
from repro.state.machine import MachineProfile, profile_from_abstract


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


class PipeChannel:
    """A ``multiprocessing`` pipe as a frame channel.

    Pipes are loss-free and ordered, so links over them run without a
    retry policy; a failed pipe operation means the peer process died,
    which surfaces as :class:`TransportError`.
    """

    __slots__ = ("_conn",)

    def __init__(self, conn):
        self._conn = conn

    def send(self, value) -> None:
        try:
            self._conn.send_bytes(encode_any(value))
        except (OSError, ValueError, EOFError) as exc:
            raise TransportError(f"pipe send failed: {exc}") from exc

    def recv(self):
        try:
            data = self._conn.recv_bytes()
        except (OSError, EOFError) as exc:
            raise TransportError(f"pipe closed: {exc}") from exc
        return decode_any(data)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


def worker_main(conn, name: str, profile_raw: Dict[str, object], sleep_scale: float) -> None:
    """Entry point of one pipe worker process (must stay module-level:
    ``spawn`` pickles it by qualified name, so a worker imports this
    file and never :mod:`repro.bus.procpool`)."""
    serve_host(
        PipeChannel(conn), name, profile_from_abstract(profile_raw), float(sleep_scale)
    )
