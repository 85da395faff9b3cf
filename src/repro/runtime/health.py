"""Module-host health plane: heartbeats in, liveness verdicts out.

The paper's position is that the *system*, not the programmer, decides
when a module can be swapped — and "Reconfigurable State Machine
Replication from Non-Reconfigurable Building Blocks" (PAPERS.md) extends
that to fleets: you cannot health-gate a rolling replacement without a
failure-detection signal.  This module is that signal for our bus.

Every remote :class:`~repro.bus.host.ModuleHost` publishes periodic
``heartbeat`` events over its existing link (no extra sockets): liveness
plus per-module queue depth, queue high-water mark, last-delivery age,
and whether a divulge is in flight.  The bus-side :class:`HealthMonitor`
turns the arrival stream into a per-host status using a phi-style
accrual detector (Hayashibara et al., simplified): the suspicion level
is the age of the newest heartbeat divided by the observed mean
inter-arrival time, so a host that beats every 50 ms is suspected after
a few hundred milliseconds of silence while a 5 s cadence tolerates
proportionally more.  Thresholds are configurable; the defaults map

- ``phi < 2``  -> ``healthy``   (on schedule)
- ``phi < 4``  -> ``degraded``  (late, still plausible)
- ``phi < 8``  -> ``suspect``   (missed several beats)
- otherwise    -> ``dead``      (give up)

plus a hard ``dead_after`` wall-clock override so a brand-new host that
beat once and vanished is still condemned.  ``coordinator.replace()``
consults the monitor as a pre-flight gate — refusing to target a
``suspect``/``dead`` host unless forced — and the verdict is recorded in
the :class:`~repro.reconfig.coordinator.ReconfigurationReport`.

The monitor never calls out: heartbeat events are pushed into
:meth:`record_heartbeat` by each transport's link pumps, and a
transport that notices a closed link calls :meth:`mark_dead` directly.
All verdicts are recomputed at read time from arrival timestamps, so a
wedged publisher cannot freeze the bus's view of it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = [
    "HealthMonitor",
    "STATUS_UNKNOWN",
    "STATUS_HEALTHY",
    "STATUS_DEGRADED",
    "STATUS_SUSPECT",
    "STATUS_DEAD",
]

STATUS_UNKNOWN = "unknown"
STATUS_HEALTHY = "healthy"
STATUS_DEGRADED = "degraded"
STATUS_SUSPECT = "suspect"
STATUS_DEAD = "dead"

#: How many inter-arrival samples feed the mean.  Small: the detector
#: should adapt within a second or two of a cadence change.
_WINDOW = 16


class _HostRecord:
    __slots__ = (
        "name",
        "transport",
        "interval_hint",
        "last_seen",
        "last_seq",
        "beats",
        "intervals",
        "modules",
        "condemned",
    )

    def __init__(self, name: str, transport: Optional[str], interval_hint: float):
        self.name = name
        self.transport = transport
        self.interval_hint = interval_hint
        self.last_seen: Optional[float] = None
        self.last_seq = 0
        self.beats = 0
        self.intervals: Deque[float] = deque(maxlen=_WINDOW)
        self.modules: Dict[str, Dict[str, Any]] = {}
        self.condemned: Optional[str] = None  # mark_dead reason

    def mean_interval(self) -> float:
        if self.intervals:
            return sum(self.intervals) / len(self.intervals)
        return self.interval_hint


class HealthMonitor:
    """Bus-side per-host/per-module liveness from heartbeat arrivals."""

    def __init__(
        self,
        *,
        interval_hint: float = 0.2,
        healthy_phi: float = 2.0,
        degraded_phi: float = 4.0,
        suspect_phi: float = 8.0,
        dead_after: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not healthy_phi < degraded_phi < suspect_phi:
            raise ValueError(
                "phi thresholds must increase: healthy < degraded < suspect"
            )
        self.interval_hint = float(interval_hint)
        self.healthy_phi = float(healthy_phi)
        self.degraded_phi = float(degraded_phi)
        self.suspect_phi = float(suspect_phi)
        #: Hard wall-clock condemnation, defaulting to the suspect
        #: threshold doubled so it only fires when phi would anyway.
        self.dead_after = dead_after
        self._clock = clock
        self._lock = threading.Lock()
        self._hosts: Dict[str, _HostRecord] = {}

    # -- ingestion -----------------------------------------------------

    def register_host(self, host: str, transport: Optional[str] = None) -> None:
        """Announce a host before its first beat (status ``unknown``)."""
        with self._lock:
            record = self._hosts.get(host)
            if record is None:
                self._hosts[host] = _HostRecord(
                    host, transport, self.interval_hint
                )
            elif transport is not None:
                record.transport = transport
                record.condemned = None  # re-registered: give it a chance

    def record_heartbeat(
        self, host: str, seq: int, payload: Dict[str, Any]
    ) -> None:
        """One heartbeat arrived (called from link pump threads)."""
        now = self._clock()
        with self._lock:
            record = self._hosts.get(host)
            if record is None:
                record = self._hosts[host] = _HostRecord(
                    host, None, self.interval_hint
                )
            if record.last_seen is not None:
                delta = now - record.last_seen
                if delta > 0:
                    record.intervals.append(delta)
            record.last_seen = now
            record.last_seq = int(seq)
            record.beats += 1
            record.condemned = None  # it spoke: un-condemn
            modules = payload.get("modules")
            if isinstance(modules, dict):
                record.modules = {
                    str(name): dict(detail)
                    for name, detail in modules.items()
                    if isinstance(detail, dict)
                }

    def mark_dead(self, host: str, reason: str = "link closed") -> None:
        """Condemn a host out-of-band (its link closed, process exited)."""
        with self._lock:
            record = self._hosts.get(host)
            if record is None:
                record = self._hosts[host] = _HostRecord(
                    host, None, self.interval_hint
                )
            record.condemned = reason

    def forget(self, host: str) -> None:
        with self._lock:
            self._hosts.pop(host, None)

    # -- verdicts ------------------------------------------------------

    def _status_locked(self, record: _HostRecord, now: float) -> str:
        if record.condemned is not None:
            return STATUS_DEAD
        if record.last_seen is None:
            return STATUS_UNKNOWN
        age = now - record.last_seen
        if self.dead_after is not None and age >= self.dead_after:
            return STATUS_DEAD
        phi = age / max(record.mean_interval(), 1e-9)
        if phi < self.healthy_phi:
            return STATUS_HEALTHY
        if phi < self.degraded_phi:
            return STATUS_DEGRADED
        if phi < self.suspect_phi:
            return STATUS_SUSPECT
        return STATUS_DEAD

    def status_of(self, host: str) -> str:
        """Current verdict for one host (``unknown`` if never seen)."""
        now = self._clock()
        with self._lock:
            record = self._hosts.get(host)
            if record is None:
                return STATUS_UNKNOWN
            return self._status_locked(record, now)

    def hosts(self) -> List[str]:
        with self._lock:
            return sorted(self._hosts)

    def wait_for_status(
        self, host: str, statuses, timeout: float = 5.0, poll: float = 0.02
    ) -> str:
        """Block until ``host`` reaches one of ``statuses`` (test helper)."""
        deadline = self._clock() + timeout
        while True:
            status = self.status_of(host)
            if status in statuses:
                return status
            if self._clock() >= deadline:
                return status
            time.sleep(poll)

    def snapshot(self) -> Dict[str, Any]:
        """The ``telemetry.snapshot()["health"]`` block: hosts + modules."""
        now = self._clock()
        with self._lock:
            hosts: Dict[str, Any] = {}
            modules: Dict[str, Any] = {}
            for name, record in sorted(self._hosts.items()):
                status = self._status_locked(record, now)
                hosts[name] = {
                    "status": status,
                    "transport": record.transport,
                    "beats": record.beats,
                    "last_seq": record.last_seq,
                    "age_s": (
                        now - record.last_seen
                        if record.last_seen is not None
                        else None
                    ),
                    "mean_interval_s": (
                        record.mean_interval() if record.beats else None
                    ),
                    "condemned": record.condemned,
                }
                for mod_name, detail in sorted(record.modules.items()):
                    entry = dict(detail)
                    entry["host"] = name
                    entry["host_status"] = status
                    modules[mod_name] = entry
        return {"hosts": hosts, "modules": modules}
