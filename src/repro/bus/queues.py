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

Wakeup protocol (see ``docs/bus-internals.md``): the messages live in
one :class:`queue.SimpleQueue` per queue, so a blocked ``get`` is handed
its message inside that store's C ``get`` — one call, no Python
condition variable — and a ``put`` that finds a parked reader wakes it
from C too.  A plain lock guards only the seal state: each put arm tests
it and enqueues under that lock, so a seal orders against every put.
``get`` takes no lock: it tests the module's stop flag and the closed
state, then blocks in the store's ``get(timeout)``.  What must interrupt
a parked read puts a private wake token that ``get`` swallows before it
tests both again: :meth:`MessageQueue.wake` (a stop sets the module's
stop flag, then wakes each of the module's own queues,
:meth:`repro.bus.module.ModuleInstance.request_stop`) and a seal with
no successor.  Tokens are counted, so the length is exact while the
queue is quiet.  ``seal``, ``drain``, ``prepend`` and ``snapshot`` take
the messages out under the lock and put back what stays, each in one
C-level pass; they run on hand-over and inspection paths.

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

import sys
import threading
import time
import weakref
from itertools import repeat
from queue import Empty, SimpleQueue
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bus.message import Message
from repro.errors import TransportError
from repro.runtime import telemetry

#: The wake token: put by :meth:`MessageQueue.wake` and by a closing
#: seal, swallowed by ``get``, never handed to a reader.
_WAKE = object()


class MessageQueue:
    """Unbounded FIFO of :class:`Message` with stop-aware blocking get."""

    __slots__ = (
        "name",
        "_store",
        "_lock",
        "_sealed",
        "_forward",
        "_tokens",
        "_pushed",
        "_directed",
        "_hwm",
        "__weakref__",
    )

    def __init__(self, name: str = ""):
        self.name = name
        # The messages, and any wake tokens among them.
        self._store: "SimpleQueue[object]" = SimpleQueue()
        self._lock = threading.Lock()
        # Sealed: every put goes to ``_forward`` (None: the put raises).
        self._sealed = False
        self._forward: Optional[Callable[[List[Message]], None]] = None
        # Wake tokens in the store, changed under the lock.
        self._tokens = 0
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
            # A read that has taken a token but not yet counted it off
            # makes the difference -1 for a moment.
            return max(0, self._store.qsize() - self._tokens)

    def put(self, message: Message) -> None:
        # The put arms take the lock by hand: the message's hand-off to a
        # parked read waits for what the putter runs before ``put``, and
        # ``with`` on the lock read about a tenth slower on the two-thread
        # round trip (benchmarks/bench_q1_queue_handoff.py).
        lock = self._lock
        lock.acquire()
        try:
            if not self._sealed:
                self._store.put(message)
                return
            forward = self._forward
        finally:
            lock.release()
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
        lock = self._lock
        lock.acquire()
        try:
            if not self._sealed:
                # ``put`` returns None, so ``any`` runs the map to its
                # end in C.
                any(map(self._store.put, messages))
                return
            forward = self._forward
        finally:
            lock.release()
        self._hand_on(forward, messages)

    def get(
        self,
        timeout: Optional[float] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> Message:
        """Block for the next message.

        Raises :class:`TransportError` on timeout, close, or stop (a
        stopping module must not stay parked on an empty queue).  The
        stop flag is tested before the read blocks, and whoever sets it
        calls :meth:`wake` afterwards, so a read parked here sees the
        stop at once.  A negative ``timeout`` waits without limit.  The
        deadline is computed from ``time.monotonic()``, so wake-heavy
        queues neither overshoot nor undershoot the timeout.
        """
        wait = timeout
        if timeout is not None:
            if timeout < 0:
                wait = None
            else:
                deadline = time.monotonic() + timeout
        while True:
            if stop_event is not None and stop_event.is_set():
                raise TransportError(f"queue {self.name!r}: read interrupted by stop")
            if self._sealed and self._forward is None:
                raise TransportError(f"queue {self.name!r} is closed")
            try:
                message = self._store.get(True, wait)
            except Empty:
                raise TransportError(
                    f"queue {self.name!r}: read timed out after {timeout}s"
                ) from None
            if message is not _WAKE:
                return message  # type: ignore[return-value]
            with self._lock:
                self._tokens -= 1
            if wait is not None:
                wait = max(0.0, deadline - time.monotonic())

    def wake(self) -> None:
        """Wake every blocked reader to re-test its stop flag."""
        with self._lock:
            self._wake_locked()

    def _wake_locked(self) -> None:
        self._tokens += 1
        self._store.put(_WAKE)

    @property
    def readers(self) -> int:
        """Threads in :meth:`get` on this queue now; a read of an empty
        queue stays counted while it is parked.

        An inspection (tests wait on it to know a module is parked in
        its read), taken from the threads' current frames, so the read
        path pays nothing for it: a count kept by ``get`` itself cost
        measurably on the two-thread hand-off
        (benchmarks/bench_q1_queue_handoff.py).
        """
        code = MessageQueue.get.__code__
        return sum(
            1
            for frame in sys._current_frames().values()
            if frame.f_code is code and frame.f_locals.get("self") is self
        )

    def peek_count(self) -> int:
        return len(self)

    def snapshot(self) -> List[Message]:
        """Atomic copy of the queued messages, for inspection."""
        with self._lock:
            taken = self._take_all()
            any(map(self._store.put, taken))
        return [m for m in taken if m is not _WAKE]  # type: ignore[misc]

    def drain(self) -> List[Message]:
        """Atomically remove and return everything."""
        with self._lock:
            return self._take()

    def prepend(self, messages: List[Message]) -> None:
        """Insert moved messages at the *front*, preserving their order.

        A queue move runs after the successor answers to the name, so
        fresh messages may already sit in its queue; the moved ones are
        strictly older and must be consumed first.
        """
        with self._lock:
            queued = self._take_all()
            put = self._store.put
            any(map(put, messages))
            any(map(put, queued))
            depth = self._store.qsize() - self._tokens
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
        does a read of the empty queue, a parked one at once.
        :meth:`unseal` reopens it.
        """
        with self._lock:
            messages = self._take()
            self._sealed = True
            self._forward = forward
            if forward is None:
                self._wake_locked()
        return messages

    @property
    def sealed(self) -> bool:
        return self._sealed

    def unseal(self) -> None:
        with self._lock:
            self._sealed = False
            self._forward = None

    def _take_all(self) -> List[object]:
        """Take everything out of the store, wake tokens too, in order
        (caller holds the lock).

        The store is emptied in one C-level pass, which runs no Python
        code, so a read on another thread cannot take from its middle
        (with a Python loop it could, and what is put back would be out
        of order).  What is put back keeps its tokens where they were:
        moved to the front, tokens that keep coming would hold a reader
        off the messages behind them.
        """
        store = self._store
        taken: List[object] = []
        try:
            taken.extend(map(store.get, repeat(False, store.qsize())))
        except Empty:  # should a read ever take from it mid-pass, keep what was taken
            pass
        return taken

    def _take(self) -> List[Message]:
        """Take every message out of the store, in order (caller holds
        the lock); wake tokens go back in, so a read parked for a wake
        still gets it."""
        taken = self._take_all()
        if not self._tokens:
            return taken  # type: ignore[return-value]
        messages = [m for m in taken if m is not _WAKE]
        any(map(self._store.put, repeat(_WAKE, len(taken) - len(messages))))
        return messages  # type: ignore[return-value]

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
        lock = self._lock
        lock.acquire()
        try:
            if not self._sealed:
                self._store.put(message)
                self._pushed += 1
                return
            forward = self._forward
        finally:
            lock.release()
        self._hand_on(forward, [message])

    def put_directed(self, message: Message) -> None:
        lock = self._lock
        lock.acquire()
        try:
            if not self._sealed:
                store = self._store
                store.put(message)
                self._pushed += 1
                self._directed += 1
                depth = store.qsize() - self._tokens
                if depth > self._hwm:
                    self._hwm = depth
                return
            forward = self._forward
        finally:
            lock.release()
        self._hand_on(forward, [message])

    def put_many(self, messages: List[Message]) -> None:
        lock = self._lock
        lock.acquire()
        try:
            if not self._sealed:
                any(map(self._store.put, messages))
                self._pushed += len(messages)
                return
            forward = self._forward
        finally:
            lock.release()
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
    depth probe catches high-water marks the every-64th-put
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
        depth = q._store.qsize() - q._tokens
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
