"""Flight recorder for reconfiguration: spans, counters, and an event log.

The paper's economic argument is that *preparing* a module for
replacement costs almost nothing at steady state ("the run-time cost is
merely that of periodically testing the flags") while reconfiguration
itself is a short, bounded interruption.  This module makes both halves
of that claim observable:

- **Trace spans.**  Every coordinator stage (``clone_build``,
  ``signal``, ``wait_point``, ``rebind``, ``start_clone``,
  ``health_check``, ``commit``/``rollback``), every MH
  capture/encode/decode/restore, every TCP frame, and every module load
  opens a :class:`Span` with monotonic timestamps and a parent link, so
  a whole ``replace()`` renders as one tree (``python -m
  repro.tools.stats trace.jsonl --tree``).
- **Counters and gauges.**  Bus messages routed/delivered/dropped per
  binding, queue-depth high-water marks, routing-cache rebuilds
  (= cache misses), fault-injection fires, retries, rollbacks.  The
  link plane adds per-host keys: ``link.batches`` /
  ``link.batched_messages`` (coalesced-delivery efficiency — messages
  per frame is their ratio), ``link.events_dropped`` (frames lost on a
  failing or injected-fault send, paired with one ``link.send_failed``
  event per failure streak), and ``host.deliver_miss`` (batch entries
  whose module was withdrawn between flush and dispatch).
- **A bounded ring-buffer event log** (completed spans + point events)
  with JSON-lines export keyed by a reconfiguration id, so a failed
  chaos run dumps the exact interleaving that killed it next to the
  ``FaultPlan`` schedule.

Overhead discipline
-------------------

The recorder is a single module-global, ``recorder``, which is ``None``
when telemetry is disabled (the default).  Hot code guards every
instrumentation site with::

    rec = telemetry.recorder
    if rec is not None:
        rec.count("tcp.frames_sent")

so the disabled cost is one attribute load plus one branch — the same
idiom as :mod:`repro.runtime.faults`.  The bus goes further: a queue
counts each put with one in-lock increment whether or not a recorder is
installed (``queues.MessageQueue``; a price within noise end to end),
and the rest of its per-message accounting is compiled into the routing
table whenever the recorder changes (see
``SoftwareBus._rebuild_routing``), so the disabled ``route()`` fast path
holds the raw bound ``MessageQueue.put`` and tests no flag.
``bench_o1_telemetry_overhead`` proves both the disabled-mode (<3%) and
enabled-mode (<10%) overhead bounds.

Enabled-mode cost model (see docs/telemetry.md for the full writeup):

- **Counters are per-thread shards.**  ``count()`` increments a plain
  dict owned by the calling thread — no lock, no contention — and reads
  (``counters()``/``counter()``/``snapshot()``) merge the shards lazily;
  a read folds the shards of exited threads into one retired total.
  External *sources* (``add_source``) contribute absolute totals the
  same way: the bus registers one that derives ``bus.routed`` from queue
  cells, and one that pulls counters back from remote ``ModuleHost``
  processes, so reads are always a fresh, idempotent aggregation.
- **One record path.**  A span is a fresh :class:`Span`; closing it,
  or calling ``event()``, appends one record to the bounded ring (a
  ``deque`` append, atomic under the GIL — no lock, no per-thread
  buffer).  Every span is recorded: the only spans that recur at
  steady state are one per TCP frame sent or received and one per
  ``host.deliver_batch`` (``route()`` opens none), so a sampler or a
  free list has nothing to save, and a lost frame can be explained from
  the ring.  ``drain_records`` pops the ring until it is empty, so a
  record ships once.

Threading model
---------------

Span parenting is thread-local (nested spans on one thread form a
chain), with one escape hatch: a span opened with ``ambient=True``
advertises itself process-globally as the current reconfiguration root,
so spans opened by *other* threads with no local parent — the old
module's capture/encode, the clone's decode/restore, TCP frame
handlers — attach to the in-flight ``replace()`` tree and inherit its
reconfiguration id.  One reconfiguration at a time is in flight per
coordinator, matching the paper's sequential scripts.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import IO, Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "FlightRecorder",
    "Span",
    "NOOP_SPAN",
    "recorder",
    "enable",
    "disable",
    "enabled",
    "on_activation",
    "span",
    "count",
    "gauge_max",
    "event",
    "next_reconfiguration_id",
    "trace_context",
    "adopt_trace_context",
    "clear_trace_context",
]

#: Reconfiguration ids are process-unique and independent of whether a
#: recorder is installed: ``ReconfigurationAborted`` carries one even
#: when telemetry is off.
_recon_ids = itertools.count(1)


def next_reconfiguration_id() -> str:
    return "rc-%04d" % next(_recon_ids)


class Span:
    """A started span.  Closing it appends a record to the event log.

    Usable as a context manager (the common case) or held and closed
    manually (``mh.capture`` opens at ``begin_reconfig_capture`` and
    closes inside ``encode``, on the same module thread).  Closing is
    idempotent.
    """

    __slots__ = (
        "_recorder",
        "sid",
        "parent",
        "name",
        "recon",
        "attrs",
        "thread",
        "t0",
        "t1",
        "l0",
        "_ambient_prev",
        "_restore_ambient",
    )

    def __init__(
        self,
        recorder: "FlightRecorder",
        name: str,
        *,
        recon: Optional[str] = None,
        parent: Optional[int] = None,
        ambient: bool = False,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self._recorder = recorder
        self.sid = next(recorder._ids)
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.thread = threading.current_thread().name
        self.t1 = None

        stack = recorder._stack()
        if parent is not None:
            self.parent = parent
        elif stack:
            self.parent = stack[-1].sid
        else:
            current = recorder._ambient
            self.parent = current[1] if current is not None else None

        if recon is not None:
            self.recon = recon
        elif stack:
            self.recon = stack[-1].recon
        else:
            current = recorder._ambient
            self.recon = current[0] if current is not None else None

        self._restore_ambient = ambient
        if ambient:
            self._ambient_prev = recorder._ambient
            recorder._ambient = (self.recon, self.sid)
        else:
            self._ambient_prev = None
        stack.append(self)
        # Lamport stamp at open: causally after whatever set the clock
        # (including an adopted cross-process trace context), so on every
        # parent->child edge of a merged tree child.l0 > parent.l0 holds
        # even when the two halves ran on machines with unrelated wall
        # clocks.
        self.l0 = recorder._tick()
        self.t0 = time.monotonic()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-flight; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def close(self) -> None:
        if self.t1 is not None:  # idempotent
            return
        self.t1 = time.monotonic()
        rec = self._recorder
        stack = rec._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # closed out of order; be forgiving
            stack.remove(self)
        if self._restore_ambient:
            rec._ambient = self._ambient_prev
        rec._events.append(
            {
                "type": "span",
                "sid": self.sid,
                "parent": self.parent,
                "name": self.name,
                "recon": self.recon,
                "thread": self.thread,
                "t0": self.t0,
                "t1": self.t1,
                "ms": (self.t1 - self.t0) * 1000.0,
                "l0": self.l0,
                "lamport": rec._tick(),
                "attrs": self.attrs,
            }
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.t1 is None else "closed"
        return f"<Span {self.name!r} sid={self.sid} parent={self.parent} {state}>"


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def close(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NoopSpan>"


NOOP_SPAN = _NoopSpan()


_CounterKey = Tuple[str, Optional[str]]
#: An external aggregation source: returns ``(counters, gauges)`` as
#: *absolute totals* keyed ``(name, key)``.  Called outside the recorder
#: lock on every read; counters are summed in, gauges max-merged.
Source = Callable[[], Tuple[Dict[_CounterKey, int], Dict[_CounterKey, float]]]


def _stable_list(items: Iterable[Any]) -> List[Any]:
    """Copy a live shard's items, or the ring, while others write to it.

    Shard owners insert keys, and span closes append records, without a
    lock.  A copy that a writer interleaves with raises ``RuntimeError``
    (a dict changed size, a deque mutated during iteration); retry until
    a consistent copy lands (writes are single C-level operations, so it
    converges immediately).
    """
    while True:
        try:
            return list(items)
        except RuntimeError:
            continue


def _add_counters(
    into: Dict[_CounterKey, int], items: Iterable[Tuple[_CounterKey, int]]
) -> None:
    for k, v in items:
        into[k] = into.get(k, 0) + v


def _max_gauges(
    into: Dict[_CounterKey, float], items: Iterable[Tuple[_CounterKey, float]]
) -> None:
    for k, v in items:
        current = into.get(k)
        if current is None or v > current:
            into[k] = v


class FlightRecorder:
    """Process-global trace-span + counter + event-log sink.

    The event log is a bounded ring (``capacity`` most recent records):
    old traffic falls off the back, the reconfiguration that just failed
    stays in.  Counters and gauges are unbounded but tiny (one slot per
    name/key pair per live thread, plus one retired total) and survive
    ring overflow.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._ids = itertools.count(1)
        #: Guards shard/source registration and slow-path reads only —
        #: never taken on the per-message hot path.
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        #: (thread, counter shard, gauge shard) per live recording thread.
        self._shards: List[
            Tuple[threading.Thread, Dict[_CounterKey, int], Dict[_CounterKey, float]]
        ] = []
        #: Totals folded in from the shards of threads that have exited.
        self._retired_counters: Dict[_CounterKey, int] = {}
        self._retired_gauges: Dict[_CounterKey, float] = {}
        self._sources: List[Source] = []
        self._tls = threading.local()
        #: (recon_id, root span id) of the in-flight reconfiguration.
        #: A *negative* root id means the root lives in another process
        #: (an adopted trace context carries the bus-side span id); the
        #: merge flips the sign back — see :meth:`ingest_remote`.
        self._ambient: Optional[Tuple[Optional[str], int]] = None
        #: Lamport logical clock.  Wall clocks across processes are not
        #: comparable; this is the honest cross-process ordering.
        self._lamport = 0
        self._lamport_lock = threading.Lock()
        #: host name -> {remote sid -> local sid}, persistent across
        #: ingests so a parent shipped in a later batch than its child
        #: still lands on the same local id.
        self._remote_maps: Dict[str, Dict[int, int]] = {}
        self._health_provider: Optional[Callable[[], Dict[str, Any]]] = None

    # -- lamport clock -------------------------------------------------

    def _tick(self) -> int:
        """Advance and return the logical clock (a local event).

        Deliberately lock-free: under the GIL a racing pair of ticks can
        collapse into one (both read v, both write v+1), but a duplicate
        tick never breaks the ordering contract — parent/child on one
        thread are sequenced by program order, ambient children only
        ever attach to an already-ticked root, and every cross-process
        edge goes through the locked :meth:`observe_tick` max-merge,
        which emits a strictly larger value.  This runs on the recorded
        span open/close fast path, where a lock acquisition is the
        single most expensive instruction.
        """
        value = self._lamport + 1
        self._lamport = value
        return value

    def observe_tick(self, remote: int) -> int:
        """Merge a tick received from another process (Lamport receive).

        Locked (rare: context adoption and batch ingest, never the span
        fast path).  A concurrent lock-free ``_tick`` cannot regress the
        clock: both writes are strictly greater than the value each side
        read.
        """
        with self._lamport_lock:
            self._lamport = max(self._lamport, int(remote)) + 1
            return self._lamport

    # -- per-thread registration ---------------------------------------

    def _register_thread(self) -> Any:
        """First telemetry touch from a thread: allocate its shards."""
        tls = self._tls
        tls.counters = counters = {}
        tls.gauges = gauges = {}
        tls.stack = []
        with self._lock:
            self._shards.append((threading.current_thread(), counters, gauges))
        return tls

    def _stack(self) -> List[Span]:
        try:
            return self._tls.stack
        except AttributeError:
            return self._register_thread().stack

    # -- spans ---------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        recon: Optional[str] = None,
        parent: Optional[int] = None,
        ambient: bool = False,
        **attrs: Any,
    ) -> Span:
        """Open (and start) a span.  Close it to record it."""
        return Span(self, name, recon=recon, parent=parent, ambient=ambient, attrs=attrs)

    # -- counters / gauges ---------------------------------------------

    def count(self, name: str, n: int = 1, key: Optional[str] = None) -> None:
        """Increment a counter: one dict op on this thread's shard."""
        try:
            shard = self._tls.counters
        except AttributeError:
            shard = self._register_thread().counters
        k = (name, key)
        shard[k] = shard.get(k, 0) + n

    def gauge_max(self, name: str, value: float, key: Optional[str] = None) -> None:
        """High-water-mark gauge: keeps the maximum value ever seen."""
        try:
            shard = self._tls.gauges
        except AttributeError:
            shard = self._register_thread().gauges
        k = (name, key)
        current = shard.get(k)
        if current is None or value > current:
            shard[k] = value

    def add_source(self, source: Source) -> None:
        """Register an external aggregation source (see :data:`Source`).

        Sources must return *absolute* totals — they are re-read in full
        on every merge, which makes reads idempotent (a remote host's
        counters are never "consumed", so repeated reads cannot double
        count and a missed read loses nothing).
        """
        with self._lock:
            self._sources.append(source)

    def _merged(self) -> Tuple[Dict[_CounterKey, int], Dict[_CounterKey, float]]:
        """Fresh aggregation of all shards + sources.

        Under the lock, the shards of threads that have exited fold into
        the retired totals and are dropped, so a recorder that outlives
        many short threads (clone threads, host request threads) keeps
        one shard per live thread.  The live shards and the sources are
        walked outside it: sources may take their own locks (the bus
        lock, a transport link), and must never be called with ours held.
        """
        with self._lock:
            live = []
            for entry in self._shards:
                thread, counter_shard, gauge_shard = entry
                if thread.is_alive():
                    live.append(entry)
                    continue
                _add_counters(self._retired_counters, counter_shard.items())
                _max_gauges(self._retired_gauges, gauge_shard.items())
            self._shards = live
            counters = dict(self._retired_counters)
            gauges = dict(self._retired_gauges)
            sources = list(self._sources)
        for _thread, counter_shard, gauge_shard in live:
            _add_counters(counters, _stable_list(counter_shard.items()))
            _max_gauges(gauges, _stable_list(gauge_shard.items()))
        for source in sources:
            try:
                extra_counters, extra_gauges = source()
            except Exception:
                continue  # a dead worker/link must not poison local reads
            _add_counters(counters, extra_counters.items())
            _max_gauges(gauges, extra_gauges.items())
        return counters, gauges

    def counters(self) -> Dict[_CounterKey, int]:
        return self._merged()[0]

    def gauges(self) -> Dict[_CounterKey, float]:
        return self._merged()[1]

    def counter(self, name: str, key: Optional[str] = None) -> int:
        return self._merged()[0].get((name, key), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all keys."""
        return sum(v for (n, _), v in self._merged()[0].items() if n == name)

    # -- events --------------------------------------------------------

    def event(self, kind: str, *, recon: Optional[str] = None, **fields: Any) -> None:
        """Record a point event (fault fired, abort, crash, ...)."""
        if recon is None:
            stack = self._stack()
            if stack:
                recon = stack[-1].recon
            else:
                current = self._ambient
                recon = current[0] if current is not None else None
        self._events.append(
            {
                "type": "event",
                "kind": kind,
                "recon": recon,
                "thread": threading.current_thread().name,
                "t": time.monotonic(),
                "lamport": self._tick(),
                "attrs": fields,
            }
        )

    def events(self, recon: Optional[str] = None) -> List[Dict[str, Any]]:
        """Ring contents, oldest-completion first across all threads."""
        records = _stable_list(self._events)
        records.sort(key=lambda r: r.get("t1") or r.get("t") or 0.0)
        if recon is not None:
            records = [r for r in records if r.get("recon") == recon]
        return records

    def spans(self, recon: Optional[str] = None, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Completed span records, optionally filtered."""
        records = [r for r in self.events(recon) if r["type"] == "span"]
        if name is not None:
            records = [r for r in records if r["name"] == name]
        return records

    # -- cross-process trace merge -------------------------------------

    def drain_records(self) -> List[Dict[str, Any]]:
        """Pop every span/event record in the ring (remote-side shipping).

        A worker/daemon recorder calls this when the bus asks for a
        ``telemetry_snapshot``: records ship exactly once (counters stay
        put — they are absolute totals, re-read idempotently).  The bus
        recorder never drains itself.  Pops until the ring is empty, so
        a record appended while a drain runs ships in this drain or the
        next, never twice.
        """
        pop = self._events.popleft
        records: List[Dict[str, Any]] = []
        try:
            while True:
                records.append(pop())
        except IndexError:
            return records

    def ingest_remote(self, host: str, records: List[Dict[str, Any]]) -> int:
        """Merge records drained from another process into this ring.

        Remote span ids live in that process's id space; each gets a
        fresh local sid via a per-``host`` persistent map (so a parent
        arriving in a later batch than its child still joins up).
        Parent links are rewritten the same way, with one special case:
        a *negative* parent is "minus the bus-side sid" stamped by
        :func:`adopt_trace_context`, so flipping the sign reattaches the
        remote subtree to the local span that caused it.  Every record
        is tagged ``host`` for per-hop annotations, and the local
        Lamport clock absorbs the remote ticks.
        """
        if not records:
            return 0
        with self._lock:
            mapping = self._remote_maps.setdefault(host, {})
        max_tick = 0
        # First pass: allocate local sids for every remote sid referenced
        # (record sids *and* positive parents — ring order is completion
        # order, so a child record precedes its parent's).
        for record in records:
            if record.get("type") != "span":
                continue
            for remote_sid in (record.get("sid"), record.get("parent")):
                if isinstance(remote_sid, int) and remote_sid > 0 and remote_sid not in mapping:
                    mapping[remote_sid] = next(self._ids)
        merged: List[Dict[str, Any]] = []
        for record in records:
            rec = dict(record)
            rec["host"] = host
            for field in ("l0", "lamport"):
                tick = rec.get(field)
                if isinstance(tick, int) and tick > max_tick:
                    max_tick = tick
            if rec.get("type") == "span":
                rec["sid"] = mapping.get(rec.get("sid"), rec.get("sid"))
                parent = rec.get("parent")
                if isinstance(parent, int):
                    rec["parent"] = -parent if parent < 0 else mapping.get(parent)
            merged.append(rec)
        if max_tick:
            self.observe_tick(max_tick)
        self._events.extend(merged)
        return len(merged)

    # -- health plane --------------------------------------------------

    def set_health_provider(
        self, provider: Optional[Callable[[], Dict[str, Any]]]
    ) -> None:
        """Install the callable behind ``snapshot()["health"]``.

        The bus registers its :class:`~repro.runtime.health.HealthMonitor`
        here when heartbeats are enabled, so exports and the stats CLI
        see liveness next to the counters without new plumbing.
        """
        self._health_provider = provider

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Counters + gauges with ``name{key}``-style string keys.

        Also carries a ``telemetry`` block recording how the numbers
        were produced (ring capacity, live shard and source counts), so
        exported artifacts are self-describing.
        """

        def flatten(table: Dict[_CounterKey, Any]) -> Dict[str, Any]:
            out: Dict[str, Any] = {}
            for (name, key), value in sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
                out[name if key is None else f"{name}{{{key}}}"] = value
            return out

        counters, gauges = self._merged()
        with self._lock:
            meta = {
                "capacity": self.capacity,
                "counter_shards": len(self._shards),
                "sources": len(self._sources),
            }
        snap = {"counters": flatten(counters), "gauges": flatten(gauges), "telemetry": meta}
        provider = self._health_provider
        if provider is not None:
            try:
                snap["health"] = provider()
            except Exception:
                pass  # a wedged monitor must not poison counter reads
        return snap

    def export_jsonl(
        self, target: Union[str, "IO[str]"], recon: Optional[str] = None
    ) -> int:
        """Dump the event log (oldest first) as JSON lines.

        Ends with one ``{"type": "counters", ...}`` record holding the
        counter/gauge snapshot.  Returns the number of lines written.
        ``target`` is a path or an open text file.
        """
        records = self.events(recon)
        records.append({"type": "counters", **self.snapshot()})
        if hasattr(target, "write"):
            out = target
            close = False
        else:
            out = open(target, "w", encoding="utf-8")
            close = True
        try:
            for record in records:
                out.write(json.dumps(record, default=repr) + "\n")
        finally:
            if close:
                out.close()
        return len(records)


#: THE flight recorder, or ``None`` when telemetry is disabled.  Hot
#: paths read this exactly once per site: one attribute load + branch.
recorder: Optional[FlightRecorder] = None

#: Activation hooks: called with the new recorder on ``enable()`` and
#: with ``None`` on a ``disable()`` that removed one — only when the
#: recorder actually changes.  The queue layer uses this to give a new
#: recorder its source over the queue cells (and freeze the old one's),
#: the bus to recompile its routing tables; registration is import-time only (no unregistration
#: — modules live as long as the process).
_activation_hooks: List[Callable[[Optional[FlightRecorder]], None]] = []


def on_activation(hook: Callable[[Optional[FlightRecorder]], None]) -> Callable:
    """Register ``hook(recorder_or_None)`` to run at enable()/disable()."""
    _activation_hooks.append(hook)
    return hook


def enable(capacity: int = 4096, sample: int = 1) -> FlightRecorder:
    """Install (and return) a fresh recorder, replacing any current one.

    Every span is recorded; ``sample`` accepts only 1 and is kept for
    callers that still pass it.
    """
    if sample != 1:
        raise ValueError(
            f"sample={sample!r}: every span is recorded, only sample=1 is accepted"
        )
    global recorder
    recorder = rec = FlightRecorder(capacity=capacity)
    for hook in _activation_hooks:
        hook(rec)
    return rec


def disable() -> Optional[FlightRecorder]:
    """Uninstall the recorder; returns it so callers can still export."""
    global recorder
    current, recorder = recorder, None
    if current is not None:
        for hook in _activation_hooks:
            hook(None)
    return current


def enabled() -> bool:
    return recorder is not None


# -- module-level conveniences (each is a no-op when disabled) ---------


def span(
    name: str,
    *,
    recon: Optional[str] = None,
    parent: Optional[int] = None,
    ambient: bool = False,
    **attrs: Any,
) -> Union[Span, _NoopSpan]:
    rec = recorder
    if rec is None:
        return NOOP_SPAN
    return Span(rec, name, recon=recon, parent=parent, ambient=ambient, attrs=attrs)


def count(name: str, n: int = 1, key: Optional[str] = None) -> None:
    rec = recorder
    if rec is not None:
        rec.count(name, n, key=key)


def gauge_max(name: str, value: float, key: Optional[str] = None) -> None:
    rec = recorder
    if rec is not None:
        rec.gauge_max(name, value, key=key)


def event(kind: str, *, recon: Optional[str] = None, **fields: Any) -> None:
    rec = recorder
    if rec is not None:
        rec.event(kind, recon=recon, **fields)


# -- cross-process trace context ---------------------------------------


def trace_context() -> Optional[Tuple[Optional[str], int, int]]:
    """The ``(recon_id, parent_span_id, lamport_tick)`` to propagate.

    ``None`` when telemetry is off or nothing trace-worthy is in flight
    (no open span on this thread, no ambient reconfiguration root) —
    which is also the wire format's backward-compatible absence.  The
    tick is taken at call time, i.e. at *send* time, so the receiver's
    clock lands causally after the sender's.
    """
    rec = recorder
    if rec is None:
        return None
    stack = rec._stack()
    if stack:
        top = stack[-1]
        return (top.recon, top.sid, rec._tick())
    current = rec._ambient
    if current is not None:
        return (current[0], current[1], rec._tick())
    return None


def adopt_trace_context(
    recon: Optional[str], parent_sid: int, tick: int
) -> None:
    """Receiver side: record subsequent spans under a remote parent.

    Sets the process-global ambient root to ``(recon, -parent_sid)`` —
    the sign marks "this sid belongs to the sending process", and
    ``FlightRecorder.ingest_remote`` flips it back when the records ship
    home — and merges the sender's Lamport tick so ordering stays
    honest.  No-op while telemetry is disabled.
    """
    rec = recorder
    if rec is None:
        return
    rec.observe_tick(tick)
    rec._ambient = (recon, -int(parent_sid))


def clear_trace_context() -> None:
    """Receiver side: drop the adopted ambient root (commit/rollback)."""
    rec = recorder
    if rec is not None:
        rec._ambient = None
