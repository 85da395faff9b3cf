"""The module host: the remote end of a link, and nothing else.

Every machine daemon — a worker of the pool or a TCP machine — runs
:func:`serve_host` around one :class:`ModuleHost`, which hosts real
:class:`~repro.bus.module.ModuleInstance` threads and serves the command
protocol (docs/tcp-protocol.md).  A host process imports this file and
its channel module (:class:`~repro.bus.tcp.SocketChannel`), and not the
bus-side half of the stack (:mod:`repro.bus.link`,
:mod:`repro.bus.transport`): modules arrive prepared, so a host loads
what it runs.

Worker-local fan-out: the bus pushes per-host route tables to each link
(``set_routes``) covering endpoints whose *every* destination lives on
that same host; such writes are delivered host-locally without touching
the bus process at all, which is what lets pinned producer/consumer
pairs scale with cores.  Every topology edit ends by pushing each host
its new table, which the host swaps in whole, so a pinned sender keeps
its route through edits that do not change it; per-link FIFO puts the
push ahead of a hand-over's queue move.  Routes are pushed whether or
not telemetry records: a host counts the writes it delivers itself, the
bus the ones tunneled to it.

A replace moves the old module's queues where they live, in one
command (``move_queues``): each old queue is sealed with a forward to
the clone's queue of the same name when the clone is hosted here, and
with no forward when it is not, and what it held goes to the clone's
front — here, or through the bus.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.bus.batch import Coalescer, unpack_batch
from repro.bus.message import Message
from repro.bus.module import ModuleInstance
from repro.bus.spec import spec_from_abstract
from repro.errors import BindingError, BusError, TransportError, UnknownModuleError
from repro.runtime import telemetry
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MachineProfile


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


def _snapshot(value: object) -> object:
    """``value`` with each list and dict in it copied by one C-level call
    before it is walked, so a module thread editing them cannot tear the
    reply the serve thread encodes."""
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.copy().items()}
    if isinstance(value, list):
        return [_snapshot(v) for v in value.copy()]
    return value


def failure_fields(exc: BaseException) -> Tuple[str, str]:
    """A failure as it crosses a link: its type name and its text (an
    ``err`` reply, a ``divulge_failed`` or a crash in ``lifecycle``).
    The bus rebuilds it with :func:`repro.bus.link.remote_error`."""
    return type(exc).__name__, str(exc)


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

    A hosted module is addressed by the key the bus gave it at ``add``
    (``<instance>#<n>``): :attr:`modules`, deliveries, commands and
    events all use the key, while the instance name is only what the
    module writes under.  A replaced module and its clone can therefore
    share one host and one name; a delivery reaches the module it was
    addressed to, or is counted as a miss once that module is removed.
    """

    def __init__(
        self,
        profile: MachineProfile,
        sleep_policy: SleepPolicy,
        send_event: Callable[[List[object]], None],
    ):
        #: The machine this host is: its modules run under this profile.
        self.profile = profile
        self.sleep_policy = sleep_policy
        self._send_gate = threading.Lock()
        self._tunnel = Coalescer(
            profile.name,
            "write_batch",
            ship=send_event,
            send_lock=self._send_gate,
        )
        #: key -> hosted module.
        self.modules: Dict[str, ModuleInstance] = {}
        # Guards modules-dict mutations against concurrent deliveries
        # (events run inline in the serve loop while commands like
        # add and remove run on their own threads).
        self.modules_lock = threading.Lock()
        # (instance, interface) -> ((dest key, dest_if, dest name), ...)
        # for endpoints whose whole fan-out lives on this host.  Replaced
        # atomically.
        self.routes: Dict[Tuple[str, str], Tuple] = {}
        self._hb_lock = threading.Lock()
        self._hb_interval = 0.0
        self._hb_stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None

    # -- plumbing ----------------------------------------------------------

    def handle(self, command: str, args: List[object]) -> object:
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise BusError(f"host {self.profile.name}: unknown command {command!r}")
        return handler(*strip_trace_context(args))

    def send_event(self, command: List[object]) -> None:
        """Push one event to the bus, FIFO-ordered behind tunneled writes.

        When the write tunnel has coalesced frames pending, they ship
        first under the same send-gate hold — a ``divulged`` event must
        never overtake the writes the module issued before divulging.
        A failed send is counted, as on the bus side
        (:meth:`~repro.bus.batch.Coalescer.send`).
        """
        self._tunnel.send(command)

    # -- what hosted modules see as "the bus" --------------------------------

    def _count_miss(self, n: int) -> None:
        """Deliveries that found no module or queue (withdrawn in flight)."""
        rec = telemetry.recorder
        if rec is not None:
            rec.count("host.deliver_miss", n=n, key=self.profile.name)

    def _put_local(self, key: str, interface: str, message: Message) -> None:
        """A host-local write; a module withdrawn in flight, or one whose
        queue is sealed for a successor on another host, is a miss."""
        module = self.modules.get(key)
        if module is not None:
            try:
                module.queue(interface).put(message)
                return
            except TransportError:
                pass
        self._count_miss(1)

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
        for key, dest_if, _ in entry:
            self._put_local(key, dest_if, message)

    def route_to(
        self, instance: str, interface: str, destination: str, message: Message
    ) -> None:
        entry = self.routes.get((instance, interface))
        if entry is None:
            self._tunnel.append(
                instance, interface, destination, message.to_wire(self.profile)
            )
            return
        for key, dest_if, dest in entry:
            if dest == destination:
                rec = telemetry.recorder
                if rec is not None:
                    rec.count("bus.directed", key=f"{instance}.{interface}")
                self._put_local(key, dest_if, message)
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
            module.request_stop()
        # Flush what the modules wrote before their threads exited, then
        # stop accepting appends.
        with self._send_gate:
            self._tunnel.drain_locked()
        self._tunnel.close()

    def _module(self, key) -> ModuleInstance:
        try:
            return self.modules[str(key)]
        except KeyError:
            raise UnknownModuleError(
                f"host {self.profile.name}: no module {key!r}"
            ) from None

    def _watch(self, key: str, module: ModuleInstance) -> None:
        module.lifecycle_hook = lambda m: self._push_lifecycle(key, m)
        module.mh.on_divulge_settled = lambda: self._push_divulge(key, module)
        module.mh.on_restored = lambda: self.send_event(["restored", key])

    def _push_divulge(self, key: str, module: ModuleInstance) -> None:
        """The outcome of a divulge, pushed to the bus (push, don't poll)."""
        mh = module.mh
        failure = mh.divulge_failed
        if failure is None:
            self.send_event(["divulged", key, mh.outgoing_packet, mh.outgoing_frames])
        else:
            self.send_event(["divulge_failed", key, *failure_fields(failure)])

    def _push_lifecycle(self, key: str, module: ModuleInstance) -> None:
        crash = module.crash
        self.send_event(
            [
                "lifecycle",
                key,
                module.state.value,
                *(failure_fields(crash) if crash is not None else ("", "")),
            ]
        )

    # -- module lifecycle commands -----------------------------------------

    def _cmd_add(self, key, instance, spec_raw, status) -> bool:
        """Host module ``key``, named ``instance`` (what it writes under)."""
        key = str(key)
        spec = spec_from_abstract(dict(spec_raw))
        module = ModuleInstance(
            name=str(instance),
            spec=spec,
            host=self.profile,
            bus=self,
            status=str(status),
            sleep_policy=self.sleep_policy,
        )
        module.load()
        self._watch(key, module)
        with self.modules_lock:
            if key in self.modules:
                raise BusError(
                    f"host {self.profile.name}: module {key!r} already present"
                )
            self.modules[key] = module
        return True

    def _cmd_start(self, key) -> bool:
        self._module(key).start()
        return True

    def _cmd_signal(self, key) -> bool:
        self._module(key).mh.request_reconfig()
        return True

    def _cmd_stop(self, key) -> str:
        module = self._module(key)
        module.stop()
        return module.state.value

    def _cmd_remove(self, key) -> bool:
        with self.modules_lock:
            module = self.modules.pop(str(key))
        module.remove()
        return True

    def _cmd_revive(self, key, packet) -> str:
        module = self._module(key)
        module.revive(bytes(packet))
        return module.state.value

    # -- state move commands -----------------------------------------------

    def _cmd_install_packet(self, key, packet) -> bool:
        self._module(key).mh.incoming_packet = bytes(packet)
        return True

    def _cmd_abandon(self, key) -> bool:
        self._module(key).mh.abandon_divulge()
        return True

    # -- message delivery and queue transfer ---------------------------------

    def _cmd_deliver_batch(self, blob) -> bool:
        """Deliver a coalesced batch: one lock acquire, one telemetry span.

        Each distinct wire decodes once; when it fans out to several
        modules the same :class:`Message` object is shared — delivered
        messages are treated as immutable (``SoftwareBus.route`` shares
        them the same way), so same-host sharing is safe.  Entries are
        addressed by module key.  Modules withdrawn between flush and
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
            for key, interface, _unused, widx in entries:
                message = decoded[widx]
                if message is None:
                    message = Message.from_wire(wires[widx], profile)
                    decoded[widx] = message
                bucket = buckets.get((key, interface))
                if bucket is None:
                    buckets[(key, interface)] = [message]
                else:
                    bucket.append(message)
            with self.modules_lock:
                modules = self.modules
                for (key, interface), run in buckets.items():
                    module = modules.get(key)
                    if module is None:
                        self._count_miss(len(run))
                        continue
                    try:
                        module.queue(interface).put_many(run)
                    except BusError:  # no such queue
                        self._count_miss(len(run))
        return True

    def _cmd_deliver_front(self, key, interface, wires) -> bool:
        """Prepend a batch of (older) messages: a moved prefix from
        another host."""
        messages = [Message.from_wire(bytes(w), self.profile) for w in wires]
        with self.modules_lock:
            self._module(key).queue(str(interface)).prepend(messages)
        return True

    def _cmd_move_queues(
        self, src_key, dst_key, preserve, interface=""
    ) -> Dict[str, object]:
        """The host's half of ``SoftwareBus._move_queues``: Figure 5's
        ``cq`` + ``rmq`` as one move, run where the queues live.

        ``dst_key``'s queues are unsealed; ``src_key``'s are sealed, each
        forwarding to ``dst_key``'s queue of the same name, and what they
        held goes to its front; the reply is ``{interface: moved}``.  An
        empty ``dst_key`` means the successor lives elsewhere: the queues
        are sealed with no forward (a later delivery is a
        ``host.deliver_miss``) and the reply carries their wires for the
        bus to prepend.  An empty ``src_key`` only unseals.  Without
        ``preserve`` every message is discarded and counted, and the
        reply gives the counts, leaving a queue already sealed as it is.
        A non-empty ``interface`` restricts the move to that queue.
        """
        interface = str(interface)
        with self.modules_lock:
            dst = self._module(dst_key) if dst_key else None
            if dst is not None:
                dst.unseal_queues(interface)
            if not src_key:
                return {}
            src = self._module(src_key)
            names = [
                decl.name
                for decl in src.spec.interfaces
                if (not interface or decl.name == interface)
                and src.has_queue(decl.name)
                and (not preserve or dst is None or dst.has_queue(decl.name))
            ]
            reply: Dict[str, object] = {}
            for name, messages in src.seal_queues(
                names,
                preserve,
                lambda name: None if dst is None else dst.queue(name).put_many,
            ):
                if not preserve:
                    reply[name] = len(messages)
                elif dst is None:
                    reply[name] = [m.to_wire(self.profile) for m in messages]
                else:
                    dst.queue(name).prepend(messages)
                    reply[name] = len(messages)
        return reply

    def _cmd_counts(self, key) -> Dict[str, int]:
        return self._module(key).queued_counts()

    def _cmd_discard_queue(self, key, interface) -> int:
        """Drain and *discard* — returns only the count (the link
        benchmarks' delivered count, without shipping every wire back)."""
        return len(self._module(key).queue(str(interface)).drain())

    # -- host-local routing ---------------------------------------------------

    def _cmd_set_routes(self, routes_raw) -> bool:
        table: Dict[Tuple[str, str], Tuple] = {}
        for entry in routes_raw:
            instance, interface, pairs = entry[0], entry[1], entry[2]
            table[(str(instance), str(interface))] = tuple(
                (str(key), str(dest_if), str(dest)) for key, dest_if, dest in pairs
            )
        self.routes = table
        return True

    # -- introspection ---------------------------------------------------------

    def _cmd_statics(self, key) -> Dict[str, object]:
        # Test/debug introspection: only canonical-encodable statics travel.
        return _snapshot(self._module(key).mh.statics)

    def _cmd_ping(self) -> str:
        return self.profile.name

    # -- telemetry parity across the boundary ---------------------------------

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
                    name=f"heartbeat-{self.profile.name}",
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
                    ["heartbeat", self.profile.name, seq, self._health_payload()]
                )
            except Exception:  # noqa: BLE001 - a sick link must not kill the beat
                pass

    def _health_payload(self) -> Dict[str, object]:
        """Per-module liveness detail riding on each heartbeat, by instance
        name (a clone sharing the host with the module it replaces
        reports last).  ``queue_hwm`` is the depth of the module's
        deepest queue at the beat, with or without a recorder."""
        with self.modules_lock:
            hosted = list(self.modules.values())
        modules: Dict[str, object] = {}
        for module in hosted:
            try:
                counts = module.queued_counts()
                mh = module.mh
                modules[module.name] = {
                    "state": module.state.value,
                    "queued": int(sum(counts.values())),
                    "queue_hwm": int(max(counts.values(), default=0)),
                    "divulging": bool(mh.reconfig and not mh.divulged.is_set()),
                }
            except Exception:  # noqa: BLE001 - a module mid-teardown is skippable
                continue
        return {"modules": modules}


def serve_host(channel, profile: MachineProfile, sleep_scale: float) -> None:
    """Host modules behind ``channel`` until shutdown or the bus goes away.

    The whole remote side of a link, for every machine daemon.  Events
    are handled inline: per-link FIFO is what makes a queue move exact
    w.r.t. prior deliveries.  Requests each run on their
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
        profile,
        SleepPolicy(scale=sleep_scale),
        lambda command: send(["evt", 0] + list(command)),
    )

    def serve(seq: int, command: str, args: List[object]) -> None:
        try:
            reply: List[object] = ["rep", seq, core.handle(command, args)]
        except Exception as exc:  # noqa: BLE001 - every failure becomes an err reply
            reply = ["err", seq, *failure_fields(exc)]
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
                    note_event_failed(profile.name, command, exc, first=not failing)
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
