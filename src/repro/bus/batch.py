"""Send-side frame coalescing for cross-process delivery.

A frame-per-message link pays one canonical frame encode, one syscall,
and one reader wakeup **per delivered message** — measured at ~20 us on
the dev container, an order of magnitude more than the delivery itself.
This module makes busy links batch-cheap without adding latency to quiet
ones:

:class:`Coalescer`
    a per-channel pending buffer plus a flusher thread.  Deliveries
    *append* (cheap: a lock, a list append, a counter); the flusher
    drains opportunistically — the moment the channel is idle it ships
    whatever accumulated, so a sparse sender sees one thread wakeup of
    added latency, while a busy sender's messages pile up naturally
    during the previous ``send`` and ship many-per-frame.  A single
    flush is bounded by :data:`MAX_ENTRIES`/:data:`MAX_BYTES`.
    Pending bytes are bounded by :data:`PENDING_HWM`: appenders *block* when
    a slow receiver lets the backlog grow, so backpressure propagates to
    senders instead of OOMing the bus process.

Batch wire layout (one ``deliver_batch``/``write_batch`` event frame
carries one opaque ``bytes`` blob; already-encoded message wires are
embedded as raw bytes — nothing is re-encoded):

```
blob    := u32 group_count  group*
           u32 string_count string*
           u32 entry_count  entry*
group   := u32 wire_len wire_bytes             # one canonical message wire
string  := u16 len utf8_bytes                  # deduplicated name table
entry   := u16 a  u16 b  u16 c  u16 group_index   # 8 bytes, fixed
```

Entries are *dictionary-coded*: instance/interface names repeat heavily
inside a batch (a fan-out names the same eight receivers in every
group), so each distinct string is sent once in the table and entries
are four fixed-width indexes — the receiver decodes the whole entry
array with one ``Struct.iter_unpack`` instead of per-entry length
parsing, which measurably matters at millions of deliveries per second.
Entries reference their wire by group index, so a message fanning out to
several modules on the same host is encoded **once** and shipped once
(``append_shared``).  For ``deliver_batch`` an entry is ``(instance,
interface, "")``; for ``write_batch`` (host -> bus tunneled writes) it is
``(instance, interface, destination-or-"")``.

All integers are big-endian and length-prefixed, matching the TCP
framing convention (docs/tcp-protocol.md).  The u16 indexes cap one
blob at 65,535 distinct strings and wire groups — far above any flush
cap (:data:`MAX_ENTRIES`); :func:`pack_batch` raises rather
than silently truncating if a caller exceeds them.
"""

from __future__ import annotations

import struct
import threading
from collections import deque
from typing import Callable, List, Tuple

from repro.errors import InjectedFault, TransportError
from repro.runtime import telemetry

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_ENTRY = struct.Struct(">HHHH")

#: Fixed per-entry overhead charged against the pending-byte budget
#: (names + length prefixes + bookkeeping), besides the wire itself.
_ENTRY_COST = 32


# ---------------------------------------------------------------------------
# Batch blob codec
# ---------------------------------------------------------------------------


def pack_batch(groups: List[Tuple[bytes, List[Tuple[str, str, str]]]]) -> bytes:
    """Pack ``[(wire, [(a, b, c), ...]), ...]`` into one batch blob."""
    if len(groups) > 0xFFFF:
        raise TransportError(f"batch of {len(groups)} groups exceeds u16 index")
    buf = bytearray()
    buf += _U32.pack(len(groups))
    for wire, _pairs in groups:
        buf += _U32.pack(len(wire))
        buf += wire
    table: dict = {}
    entries = bytearray()
    total = 0
    for index, (_wire, pairs) in enumerate(groups):
        for a, b, c in pairs:
            ia = table.get(a)
            if ia is None:
                ia = table[a] = len(table)
            ib = table.get(b)
            if ib is None:
                ib = table[b] = len(table)
            ic = table.get(c)
            if ic is None:
                ic = table[c] = len(table)
            entries += _ENTRY.pack(ia, ib, ic, index)
            total += 1
    if len(table) > 0xFFFF:
        raise TransportError(
            f"batch names {len(table)} distinct strings, exceeds u16 index"
        )
    buf += _U32.pack(len(table))
    for text in table:  # dicts preserve insertion order == index order
        raw = text.encode("utf-8")
        buf += _U16.pack(len(raw))
        buf += raw
    buf += _U32.pack(total)
    buf += entries
    return bytes(buf)


def unpack_batch(
    blob: bytes,
) -> Tuple[List[bytes], List[Tuple[str, str, str, int]]]:
    """Decode a batch blob into ``(wires, [(a, b, c, wire_index), ...])``.

    A blob that is not exactly one batch is refused with
    ``TransportError``: one cut short anywhere (a wire or a name that
    runs past its end leaves the next count unreadable), bytes left
    over, a name that is not UTF-8 or an index past its table.
    """
    try:
        offset = 0
        (n_wires,) = _U32.unpack_from(blob, offset)
        offset += 4
        wires: List[bytes] = []
        for _ in range(n_wires):
            (length,) = _U32.unpack_from(blob, offset)
            offset += 4
            wires.append(blob[offset : offset + length])
            offset += length
        (n_strings,) = _U32.unpack_from(blob, offset)
        offset += 4
        strings: List[str] = []
        for _ in range(n_strings):
            (length,) = _U16.unpack_from(blob, offset)
            offset += 2
            strings.append(str(blob[offset : offset + length], "utf-8"))
            offset += length
        (n_entries,) = _U32.unpack_from(blob, offset)
    except struct.error:
        raise TransportError("batch blob is truncated") from None
    except UnicodeDecodeError as exc:
        raise TransportError(f"batch name is not UTF-8: {exc}") from None
    offset += 4
    end = offset + n_entries * _ENTRY.size
    if end != len(blob):
        raise TransportError(
            f"batch claims {n_entries} entries in {len(blob) - offset} bytes"
        )
    try:
        entries = [
            (strings[ia], strings[ib], strings[ic], widx)
            for ia, ib, ic, widx in _ENTRY.iter_unpack(blob[offset:end])
        ]
    except IndexError:
        raise TransportError(
            f"batch entry references a string past the {n_strings}-name table"
        ) from None
    if any(entry[3] >= n_wires for entry in entries):
        raise TransportError(f"batch entry references wire >= {n_wires}")
    return wires, entries


# ---------------------------------------------------------------------------
# Caps (every coalescer, bus side and host side, uses the same)
# ---------------------------------------------------------------------------

#: Most entries a single batch frame carries.
MAX_ENTRIES = 128
#: Most pending-budget bytes a single batch frame carries.
MAX_BYTES = 256 * 1024
#: Pending-byte high-watermark: appenders block above this, so a slow
#: receiver backpressures its senders instead of OOMing them.
PENDING_HWM = 4 * 1024 * 1024


def batch_settings() -> dict:
    """The caps every link and host coalesces under, for bench meta blocks.

    ``perf/compare.py`` refuses to compare runs whose meta differ, so the
    keys and values here are part of the benchmark's contract — which is
    why the key of a flush delay that was never enabled still reads 0.
    """
    return {
        "enabled": True,
        "max_entries": MAX_ENTRIES,
        "max_bytes": MAX_BYTES,
        "pending_hwm": PENDING_HWM,
        "linger_s": 0.0,
    }


# ---------------------------------------------------------------------------
# The coalescer
# ---------------------------------------------------------------------------


class Coalescer:
    """Pending delivery buffer + flusher thread for one frame channel.

    ``ship([command, blob])`` sends one event frame and may raise
    transport errors; ``send_lock`` is the channel's frame send lock —
    the flusher takes it per flush, and owners call :meth:`drain_locked`
    *while holding it* just before any frame whose FIFO position matters
    (requests), so batching never reorders a link.  A non-delivery event
    goes out through :meth:`send`, which does both.

    Every event frame this coalescer ships is accounted: a failed send
    counts its entries as ``link.events_dropped``, and the first failure
    of a streak raises one ``link.send_failed`` flare.  Chaos-injected
    faults are deliberate single-frame failures, not an outage; they are
    counted but raise no flare.

    Appends never ship inline: even a lone message is handed to the
    flusher (one thread wakeup), which is what lets a single fast sender
    batch naturally — the messages it appends while the flusher is mid-
    ``send`` form the next batch.
    """

    def __init__(
        self,
        name: str,
        command: str,
        ship: Callable[[List[object]], None],
        send_lock: threading.Lock,
    ):
        self.name = name
        self.command = command
        self.ship = ship
        self.send_lock = send_lock
        self._send_failing = False  # in a failure streak (flare raised)
        self._lock = threading.Lock()
        self._data = threading.Condition(self._lock)  # flusher waits here
        self._space = threading.Condition(self._lock)  # HWM waiters
        self._groups: deque = deque()  # (wire, [(a, b, c), ...], cost)
        self._entries = 0
        self._bytes = 0
        self._space_waiters = 0
        self._closed = False
        self._flusher = threading.Thread(
            target=self._flush_loop, name=f"batch-flush-{name}", daemon=True
        )
        self._flusher.start()

    # -- producer side -------------------------------------------------------

    def append(self, a: str, b: str, c: str, wire: bytes) -> None:
        self.append_shared(((a, b, c),), wire)

    def append_shared(self, pairs, wire: bytes) -> None:
        """Queue one encoded wire for delivery to every ``(a, b, c)`` entry.

        Blocks while pending bytes sit at the high-watermark; on a closed
        channel the entries are dropped (counted like any lost event).
        """
        pairs = list(pairs)
        cost = len(wire) + _ENTRY_COST * len(pairs)
        with self._lock:
            while not self._closed and self._bytes >= PENDING_HWM:
                self._space_waiters += 1
                try:
                    self._space.wait()
                finally:
                    self._space_waiters -= 1
            if self._closed:
                dropped = len(pairs)
            else:
                dropped = 0
                self._groups.append((wire, pairs, cost))
                self._entries += len(pairs)
                self._bytes += cost
                self._data.notify()
        if dropped:
            self._count_drop(dropped)

    def pending_entries(self) -> int:
        with self._lock:
            return self._entries

    # -- consumer side -------------------------------------------------------

    def _pop_chunk(self) -> Tuple[List[Tuple[bytes, List]], int]:
        """Slice one batch off the buffer (caller holds ``self._lock``)."""
        groups: List[Tuple[bytes, List]] = []
        entries = 0
        nbytes = 0
        while self._groups:
            wire, pairs, cost = self._groups[0]
            if groups and (
                entries + len(pairs) > MAX_ENTRIES
                or nbytes + cost > MAX_BYTES
            ):
                break
            self._groups.popleft()
            groups.append((wire, pairs))
            entries += len(pairs)
            nbytes += cost
        if entries:
            self._entries -= entries
            self._bytes -= nbytes
            if self._space_waiters:
                self._space.notify_all()
        return groups, entries

    def drain_locked(self) -> None:
        """Ship everything pending.  Caller HOLDS the channel send lock.

        This is the FIFO barrier: a request (queue snapshot/transfer) or
        a non-delivery event sent right after it is ordered behind every
        delivery appended before the call.  Ship failures are swallowed
        into the drop accounting — lost events were always lost frames.
        """
        while True:
            with self._lock:
                groups, entries = self._pop_chunk()
            if not entries:
                return
            self._ship_chunk(groups, entries)

    def send(self, command: List[object]) -> None:
        """Ship one non-delivery event behind every pending delivery.

        The FIFO barrier for events (route pushes, packets, divulge
        outcomes): under one send-lock hold the pending batches ship
        first, then ``command``.  A failed send is counted like a lost
        batch, never raised.
        """
        with self.send_lock:
            self.drain_locked()
            self._ship(command, 1)

    def _ship_chunk(self, groups, entries: int) -> None:
        if self._ship([self.command, pack_batch(groups)], entries):
            rec = telemetry.recorder
            if rec is not None:
                rec.count("link.batches", key=self.name)
                rec.count("link.batched_messages", n=entries, key=self.name)

    def _ship(self, command: List[object], entries: int) -> bool:
        """Send one frame carrying ``entries`` deliveries or events;
        caller holds the send lock.  False when it was lost (counted)."""
        try:
            self.ship(command)
        except (InjectedFault, TransportError, OSError) as exc:
            self._count_drop(entries)
            if not isinstance(exc, InjectedFault) and not self._send_failing:
                self._send_failing = True
                telemetry.event(
                    "link.send_failed",
                    host=self.name,
                    error=f"{type(exc).__name__}: {exc}",
                    dropped=entries,
                )
            return False
        self._send_failing = False
        return True

    def _flush_loop(self) -> None:
        while True:
            with self._lock:
                while not self._groups and not self._closed:
                    self._data.wait()
                if self._closed:
                    return  # pending entries die with the channel
            with self.send_lock:
                with self._lock:
                    groups, entries = self._pop_chunk()
                if entries:
                    self._ship_chunk(groups, entries)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._data.notify_all()
            self._space.notify_all()

    def _count_drop(self, n: int) -> None:
        rec = telemetry.recorder
        if rec is not None:
            rec.count("link.events_dropped", n=n, key=self.name)
