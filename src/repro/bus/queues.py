"""Thread-safe per-interface message queues.

The reconfiguration script of Figure 5 issues ``cq`` (copy queue) and
``rmq`` (remove queue) bind commands so messages queued at the old
module's interfaces are not lost during a replacement.  A replacement
runs the pair as one move (``SoftwareBus.hand_over``): :meth:`seal`
takes everything queued and, in the same lock hold, turns the queue
into a forward to its successor, so a router still holding a routing
entry taken before the hand-over reaches the successor — behind what
was moved — instead of a queue nobody reads.  The literal ``cq`` is the
same move for one interface, and ``rmq`` a seal whose forward discards.
A queue sealed with no successor is closed: a put raises.

Wakeup protocol (see ``docs/bus-internals.md``): ``get`` parks on a
condition variable with a ``time.monotonic()`` deadline — there is no
polling loop.  Waiters are woken by ``put``/``put_many``/``prepend`` (only
when someone is actually waiting), by a seal with no successor, and by
:meth:`MessageQueue.wake`: a stop sets the module's stop flag and then
wakes each of the module's own queues
(:meth:`repro.bus.module.ModuleInstance.request_stop`), and ``get``
tests the flag under the queue's lock, so a blocked read sees the stop
at once.

Telemetry
---------

Delivery accounting lives *in the queue class*, not in wrappers around
``put``: while a flight recorder is installed, every live queue's
``__class__`` is swapped to :class:`RecordingMessageQueue`, whose ``put``
bumps plain integer cells (``_pushed``, ``_hwm``) inside the lock it
already holds — exact under concurrency, no extra lock, no tuple
hashing, no wrapper call.  ``disable()`` swaps the class back, so the
disabled ``put`` is byte-identical to the uninstrumented one (both
classes use ``__slots__``, which also keeps the swapped instances'
attribute access on the fast path).  A lazily-read aggregation source
registered on the recorder turns the cells into ``bus.delivered{queue}``
counters and ``queue.hwm{queue}`` gauges; ``bus.routed`` is *derived*
from the same cells by the routing table (see ``bus.py``).

While recording, queues are held strongly (``_tracked``) so a queue
destroyed mid-session — e.g. a replaced module's — keeps contributing
its delivery counts until the recorder is uninstalled.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.bus.message import Message
from repro.errors import TransportError
from repro.runtime import telemetry


class MessageQueue:
    """Unbounded FIFO of :class:`Message` with stop-aware blocking get."""

    __slots__ = (
        "name",
        "_items",
        "_lock",
        "_not_empty",
        "_sealed",
        "_forward",
        "_waiters",
        "_pushed",
        "_directed",
        "_hwm",
        "__weakref__",
    )

    def __init__(self, name: str = ""):
        self.name = name
        self._items: Deque[Message] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # Sealed: every put goes to ``_forward`` (None: the put raises).
        self._sealed = False
        self._forward: Optional[Callable[[List[Message]], None]] = None
        self._waiters = 0
        # Telemetry cells: total puts, puts via route_to, sampled depth
        # high-water mark.  Written only by RecordingMessageQueue (under
        # the queue lock), read lock-free by the aggregation source.
        self._pushed = 0
        self._directed = 0
        self._hwm = 0
        with _registry_lock:
            _queues.add(self)
            if telemetry.recorder is not None:
                _tracked.add(self)
                self.__class__ = RecordingMessageQueue

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(self, message: Message) -> None:
        with self._lock:
            if self._sealed:
                forward = self._forward
            else:
                self._items.append(message)
                if self._waiters:
                    self._not_empty.notify()
                return
        self._hand_on(forward, [message])

    def put_directed(self, message: Message) -> None:
        """``route_to`` delivery — identical to ``put`` when disabled.

        The recording subclass additionally tags the delivery in its
        ``_directed`` cell so directed traffic is excluded from the
        routed-count derivation in ``bus.py``.
        """
        self.put(message)

    def put_many(self, messages: List[Message]) -> None:
        """The bulk arm of ``put``: one lock acquire for a whole run.

        Used by coalesced ``deliver_batch`` dispatch, where one frame
        often carries many messages for the same queue.  Unlike
        ``prepend`` (the prefix a queue move takes over) these are
        fresh deliveries, so the recording subclass counts them in
        ``_pushed``.
        """
        with self._lock:
            if self._sealed:
                forward = self._forward
            else:
                self._items.extend(messages)
                if self._waiters:
                    self._not_empty.notify_all()
                return
        self._hand_on(forward, messages)

    def get(
        self,
        timeout: Optional[float] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> Message:
        """Block for the next message.

        Raises :class:`TransportError` on timeout, close, or stop (a
        stopping module must not stay parked on an empty queue).  The
        stop flag is tested under the queue's lock, and whoever sets it
        calls :meth:`wake` afterwards, so a read parked here sees the
        stop at once.  The deadline is computed from ``time.monotonic()``,
        so notify-heavy queues neither overshoot nor undershoot the
        timeout.
        """
        deadline = None
        if timeout is not None and timeout >= 0:
            deadline = time.monotonic() + timeout
        with self._not_empty:
            items = self._items
            if items:
                return items.popleft()
            self._waiters += 1
            try:
                while not items:
                    if stop_event is not None and stop_event.is_set():
                        raise TransportError(
                            f"queue {self.name!r}: read interrupted by stop"
                        )
                    if self._sealed and self._forward is None:
                        raise TransportError(f"queue {self.name!r} is closed")
                    if deadline is None:
                        self._not_empty.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TransportError(
                                f"queue {self.name!r}: read timed out "
                                f"after {timeout}s"
                            )
                        self._not_empty.wait(remaining)
                return items.popleft()
            finally:
                self._waiters -= 1

    def wake(self) -> None:
        """Wake every blocked reader to re-test its stop flag."""
        with self._lock:
            self._not_empty.notify_all()

    def peek_count(self) -> int:
        return len(self)

    def snapshot(self) -> List[Message]:
        """Atomic copy of the queued messages, for inspection."""
        with self._lock:
            return list(self._items)

    def drain(self) -> List[Message]:
        """Atomically remove and return everything."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
        return items

    def prepend(self, messages: List[Message]) -> None:
        """Insert moved messages at the *front*, preserving their order.

        A queue move runs after the successor answers to the name, so
        fresh messages may already sit in its queue; the moved ones are
        strictly older and must be consumed first.
        """
        with self._lock:
            self._items.extendleft(reversed(messages))
            depth = len(self._items)
            if self._waiters:
                self._not_empty.notify_all()
        rec = telemetry.recorder
        if rec is not None and messages:
            rec.count("queue.copied_in", n=len(messages), key=self.name)
            rec.gauge_max("queue.hwm", depth, key=self.name)

    def seal(
        self, forward: Optional[Callable[[List[Message]], None]] = None
    ) -> List[Message]:
        """Take everything queued and seal the queue, in one lock hold.

        From then on every put arm hands its messages to ``forward``
        (always a list), called after this queue's lock is released, so
        no thread waits on a second queue's lock while holding this one.
        A put that found the queue sealed therefore reaches the
        successor's tail, behind whatever the caller moves to its front.
        With no ``forward`` the queue is closed: a put raises, and so
        does a read of the empty queue.  :meth:`unseal` reopens it.
        """
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._sealed = True
            self._forward = forward
            self._not_empty.notify_all()
        return items

    @property
    def sealed(self) -> bool:
        return self._sealed

    def unseal(self) -> None:
        with self._lock:
            self._sealed = False
            self._forward = None

    def _hand_on(
        self,
        forward: Optional[Callable[[List[Message]], None]],
        messages: List[Message],
    ) -> None:
        """Deliver a put that found the queue sealed (lock released)."""
        if forward is None:
            raise TransportError(f"queue {self.name!r} is closed")
        forward(messages)


class RecordingMessageQueue(MessageQueue):
    """A :class:`MessageQueue` whose ``put`` keeps delivery counts.

    Installed by swapping ``__class__`` on live instances at telemetry
    enable time (and back at disable): the object's state is untouched,
    only the method table changes.  Counting happens inside the lock
    ``put`` already takes, so the cells are exact under any number of
    producer threads.  ``put`` itself pays for exactly one extra
    increment — the depth high-water mark comes from the read-time
    probe in the aggregation source (plus exact updates on the rare
    paths: directed puts, ``prepend``), so it is a *sampled*
    gauge: a queue drained between reads may under-report its peak.
    """

    __slots__ = ()

    def put(self, message: Message) -> None:
        with self._lock:
            if self._sealed:
                forward = self._forward
            else:
                self._items.append(message)
                self._pushed += 1
                if self._waiters:
                    self._not_empty.notify()
                return
        self._hand_on(forward, [message])

    def put_directed(self, message: Message) -> None:
        with self._lock:
            if self._sealed:
                forward = self._forward
            else:
                items = self._items
                items.append(message)
                self._pushed += 1
                self._directed += 1
                depth = len(items)
                if depth > self._hwm:
                    self._hwm = depth
                if self._waiters:
                    self._not_empty.notify()
                return
        self._hand_on(forward, [message])

    def put_many(self, messages: List[Message]) -> None:
        with self._lock:
            if self._sealed:
                forward = self._forward
            else:
                self._items.extend(messages)
                self._pushed += len(messages)
                if self._waiters:
                    self._not_empty.notify_all()
                return
        self._hand_on(forward, messages)


def discarding(name: str) -> Callable[[List[Message]], None]:
    """The forward of a sealed queue whose messages die with it (``rmq``,
    or a move with ``preserve_queues=False``): each is counted as
    ``queue.discarded``."""

    def discard(messages: List[Message]) -> None:
        telemetry.count("queue.discarded", n=len(messages), key=name)

    return discard


#: All live queues (weak — discovery only) and, while a recorder is
#: installed, strong references so destroyed queues keep contributing
#: their counts until disable().  Guarded by ``_registry_lock`` because
#: queues are created from module/worker threads while the aggregation
#: source iterates.
_queues: "weakref.WeakSet[MessageQueue]" = weakref.WeakSet()
_tracked: Set[MessageQueue] = set()
_registry_lock = threading.Lock()


def _cell_source(tracked: Set[MessageQueue]) -> Tuple[Dict[Tuple[str, Optional[str]], int], Dict[Tuple[str, Optional[str]], float]]:
    """Aggregate queue cells into ``bus.delivered`` / ``queue.hwm``.

    Absolute totals re-read on every merge (idempotent).  The read-time
    ``len(_items)`` probe catches high-water marks the every-64th-put
    sampling missed on lightly-loaded queues.  ``tracked`` is the set
    captured for one recorder: ``disable()`` freezes rather than clears
    it, so a detached recorder still exports its final totals (the
    cells stop moving once the classes swap back).
    """
    counters: Dict[Tuple[str, Optional[str]], int] = {}
    gauges: Dict[Tuple[str, Optional[str]], float] = {}
    with _registry_lock:
        queues = list(tracked)
    for q in queues:
        name = q.name
        pushed = q._pushed
        # A queue with no puts this session reports nothing — stale
        # pre-enable queues (e.g. left over from a finished bus) must
        # not surface their old backlog as fresh gauges.
        if not name or not pushed:
            continue
        k = ("bus.delivered", name)
        counters[k] = counters.get(k, 0) + pushed
        hwm = q._hwm
        depth = len(q._items)
        if depth > hwm:
            hwm = depth
        if hwm:
            k = ("queue.hwm", name)
            current = gauges.get(k)
            if current is None or hwm > current:
                gauges[k] = hwm
    return counters, gauges


@telemetry.on_activation
def _on_telemetry_activation(rec: Optional[telemetry.FlightRecorder]) -> None:
    """Swap live queues to/from the recording class at enable/disable.

    Each enable captures a *fresh* tracked set (published as the global
    so ``MessageQueue.__init__`` keeps feeding it) and registers a
    source bound to that set on the new recorder.  Disable swaps the
    classes back but leaves the set with the old recorder's source:
    its cells are frozen, so post-disable exports stay correct, and the
    strong references die with the recorder.
    """
    global _tracked
    if rec is not None:
        tracked: Set[MessageQueue] = set()
        with _registry_lock:
            for q in list(_queues):
                q._pushed = 0
                q._directed = 0
                q._hwm = 0
                q.__class__ = RecordingMessageQueue
                tracked.add(q)
            _tracked = tracked
        rec.add_source(lambda: _cell_source(tracked))
    else:
        with _registry_lock:
            for q in list(_queues):
                q.__class__ = MessageQueue
