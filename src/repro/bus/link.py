"""The bus-side end of a remote host's channel.

A :class:`Link` is what the bus process holds per machine daemon:
seq'd request/reply with a pump thread, plus fire-and-forget events,
over a frame channel (``send``/``recv``/``close``:
:class:`~repro.bus.tcp.SocketChannel`).  The other end is
:func:`~repro.bus.host.serve_host`.  Hosts never import this file.
"""

from __future__ import annotations

import threading
from queue import SimpleQueue
from typing import Callable, Dict, List, Optional

from repro.bus.batch import Coalescer
from repro.bus.host import TRACE_CONTEXT_TAG, note_event_failed
from repro.errors import (
    BusError,
    InjectedFault,
    ReconfigTimeoutError,
    TransportError,
)
from repro.runtime import telemetry
from repro.state.machine import MachineProfile


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


def _with_subclasses(cls: type) -> List[type]:
    return [cls] + [
        sub for child in cls.__subclasses__() for sub in _with_subclasses(child)
    ]


#: The failures a host sends that the bus raises as their own type: every
#: ``BusError``, a deadline and an injected fault.
_REMOTE_ERRORS: Dict[str, type] = {
    cls.__name__: cls
    for cls in (*_with_subclasses(BusError), ReconfigTimeoutError, InjectedFault)
}


def remote_error(kind: str, text: str) -> BaseException:
    """A host's failure, rebuilt from its type name and its text
    (:func:`~repro.bus.host.failure_fields`).

    A known type is rebuilt around the host's text as it is, without its
    constructor (which formats a message from arguments, such as a
    crash's cause, that stayed on the host); anything else is a
    ``BusError`` naming its type, so ``except BusError`` still catches it.
    """
    cls = _REMOTE_ERRORS.get(kind)
    if cls is None:
        return BusError(f"{kind}: {text}")
    error = cls.__new__(cls)
    Exception.__init__(error, text)
    return error


class Link:
    """Bus-side end of one remote module host's channel.

    The frame protocol is the machine-daemon one: ``[kind, seq,
    command, args...]`` with ``kind`` in ``req``/``rep``/``err``/``evt``.
    The *pump* thread only ever completes request waiters and enqueues
    events; events are handled on a dedicated dispatcher thread.  That
    split is load-bearing: the hand-over (``SoftwareBus.hand_over``)
    issues its queue-move request while holding the bus lock, and an
    event handler may block on that same lock (tunneled writes route
    through the bus) — with a single thread the reply behind a blocked
    event could never be read.

    A request is sent once: the channel delivers each frame once or
    fails, so a lost send or a missed deadline is a ``TransportError``,
    never a re-send.

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
    ):
        self.name = name
        self.profile = profile
        self.channel = channel
        self.on_event = on_event
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
        why = "link closed"
        try:
            while True:
                try:
                    frame = self.channel.recv()
                except InjectedFault:
                    continue  # injected before any byte was read: nothing lost
                kind = frame[0]
                if kind in ("rep", "err"):
                    seq = int(frame[1])
                    with self._lock:
                        waiter = self._pending.pop(seq, None)
                    if waiter is not None:
                        waiter.complete(
                            kind,
                            frame[2]
                            if kind == "rep"
                            else remote_error(str(frame[2]), str(frame[3])),
                        )
                elif kind == "evt":
                    self._events.put((str(frame[2]), frame[3:]))
        except (TransportError, OSError) as exc:
            why = f"link closed: {exc}"
        finally:
            self.closed.set()
            self._coalescer.close()
            with self._lock:
                pending = list(self._pending.values())
                self._pending.clear()
            for waiter in pending:
                waiter.complete("err", TransportError(f"{self.name}: {why}"))
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

        Chaos-injected faults are deliberate single-frame failures, not
        an outage; they are counted (``link.events_dropped``) but do not
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
        """Round-trip one request frame, sent once.

        A failed send (injected or real), no reply within ``timeout`` or
        a link that closes first raises ``TransportError``; an ``err``
        reply raises the host's failure (:func:`remote_error`).
        """
        if self.closed.is_set():
            raise TransportError(f"link {self.name}: closed")
        payload = list(command)
        tctx = telemetry.trace_context()
        if tctx is not None:
            payload.append([TRACE_CONTEXT_TAG, tctx[0], tctx[1], tctx[2]])
        waiter = _Waiter()
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._pending[seq] = waiter
        try:
            with self._send_lock:
                # FIFO barrier: requests (queue moves among them) must
                # observe every delivery appended before them, so
                # pending batches ship first.
                self._coalescer.drain_locked()
                self.channel.send(["req", seq] + payload)
        except (InjectedFault, TransportError, OSError) as exc:
            with self._lock:
                self._pending.pop(seq, None)
            raise TransportError(f"link {self.name}: send failed: {exc}") from exc
        if not waiter.event.wait(timeout):
            with self._lock:
                self._pending.pop(seq, None)
            raise TransportError(
                f"link {self.name}: no reply to {command[0]!r} in {timeout}s"
            )
        if waiter.kind == "err":
            raise waiter.value  # type: ignore[misc]
        return waiter.value

    def close(self) -> None:
        self._coalescer.close()
        try:
            self.channel.close()
        except OSError:
            pass
