"""The bus-side end of a remote host's channel.

A :class:`Link` is what the bus process holds per machine daemon:
seq'd request/reply with a pump thread, plus fire-and-forget events,
over a frame channel (``send``/``recv``/``close``:
:class:`~repro.bus.tcp.SocketChannel`).  The other end is
:func:`~repro.bus.host.serve_host`.  Hosts never import this file.
"""

from __future__ import annotations

import threading
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
    One *pump* thread handles the frames in the order they arrive: a
    reply completes its request's waiter, an event runs ``on_event``
    inline.  So a request never returns before an event its host sent
    ahead of the reply has been handled.

    That holds only while no event handler takes the bus lock or waits
    on a request: ``SoftwareBus.hand_over`` holds the lock while it waits
    for a ``move_queues`` reply that only the pump can read.  The
    handlers (``RemoteTransport._make_on_event``) route through the
    lock-free table, set flags and record heartbeats.  The one place a
    handler can block is a coalescer's high-water mark, and that always
    drains: a host's serve loop never blocks on a send, and a flusher
    pops its chunk even when the send fails.  A handler that raises is
    counted (:func:`~repro.bus.host.note_event_failed`, one flare per
    streak) and never ends the link.

    A request is sent once: the channel delivers each frame once or
    fails, so a lost send or a missed deadline is a ``TransportError``,
    never a re-send.

    Deliveries do not ship frame-per-message: :meth:`send_deliver` hands
    the encoded wire to a per-link :class:`~repro.bus.batch.Coalescer`
    whose flusher drains opportunistically, so a busy link ships many
    messages per ``deliver_batch`` frame.  Per-link FIFO survives
    because every *other* frame (requests, non-delivery events) drains
    the pending batch under the send lock before going out.  The
    coalescer sends every event frame and counts each one lost.
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
        self._coalescer = Coalescer(
            name,
            "deliver_batch",
            ship=lambda command: channel.send(["evt", 0, *command]),
            send_lock=self._send_lock,
        )
        threading.Thread(
            target=self._read_loop, name=f"link-pump-{name}", daemon=True
        ).start()

    def _read_loop(self) -> None:
        why = "link closed"
        failing = False
        try:
            while True:
                try:
                    frame = self.channel.recv()
                except InjectedFault:
                    continue  # injected before any byte was read: nothing lost
                kind = frame[0]
                if kind == "evt":
                    handler = self.on_event
                    if handler is None:
                        continue
                    command = str(frame[2])
                    try:
                        handler(command, frame[3:])
                    except Exception as exc:  # noqa: BLE001 - a bad event must not end the link
                        note_event_failed(self.name, command, exc, first=not failing)
                        failing = True
                    else:
                        failing = False
                elif kind in ("rep", "err"):
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

    def send_event(self, command: List[object]) -> None:
        """Fire-and-forget frame (non-delivery events: route pushes, packets).

        Acts as a FIFO barrier: any coalesced deliveries pending on this
        link ship first, under the same send-lock hold, so the event is
        ordered behind every delivery appended before this call.  A
        failed send is counted (``link.events_dropped``), and the first
        failure of a streak raises a ``link.send_failed`` flare
        (:meth:`~repro.bus.batch.Coalescer.send`).
        """
        self._coalescer.send(command)

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
