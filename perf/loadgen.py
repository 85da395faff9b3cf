"""Pacing and the replace timetable: the only threads the benchmark owns.

At most two generator threads run beside the program under test — two
closed-loop sessions, or one open-loop sender plus its collector — and
the timetable runs on the caller's thread.  Nothing here raises on an
anomaly in the traffic: sessions count failures (``perf/workloads.py``)
and a failed ``replace()`` is recorded and the timetable moves on.  A
generator thread that dies of anything else is a broken benchmark, kept
in ``crashes`` for the caller to turn into a non-zero exit.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.reconfig.coordinator import (
    ReconfigurationCoordinator,
    ReconfigurationReport,
)

from perf.metrics import Sample

#: Seeded jitter of each replace slot, as a share of the slot period.
SLOT_JITTER = 0.2


#: Iterations of the host-speed reference loop: about 0.3 ms of bytecode.
HOST_UNIT_ITERATIONS = 20000


def host_unit_s() -> float:
    """CPU seconds the calling thread needs for a fixed piece of bytecode.

    The speed of a shared host drifts by tens of percent from minute to
    minute, and every time the benchmark measures drifts with it.  This
    is the yardstick taken beside those times, on the same CPU and in
    the same interpreter: an empty loop, clocked in the thread's own CPU
    time so that waiting for the interpreter lock does not count.  The
    timetable thread takes it between two replaces, when it holds the
    lock anyway, so no thread is added to the run.
    """
    start = time.thread_time()
    for _ in range(HOST_UNIT_ITERATIONS):
        pass
    return time.thread_time() - start


class _Threads:
    def __init__(self) -> None:
        self.stopping = threading.Event()
        self.crashes: List[BaseException] = []
        self._threads: List[threading.Thread] = []

    def spawn(self, target: Callable[[], None], name: str) -> None:
        def run() -> None:
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - reported by the caller
                self.crashes.append(exc)

        thread = threading.Thread(target=run, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def join(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        for thread in self._threads:
            if thread.is_alive():
                self.crashes.append(RuntimeError(f"thread {thread.name} wedged"))


class _Times:
    """Send and completion times of one session, 16 bytes per operation.

    Kept as two flat arrays rather than a list of tuples so that the
    benchmark's own memory stays small beside the program's in
    ``peak_rss_mb`` (a closed loop completes half a million operations).
    """

    def __init__(self, sid: int):
        self.sid = sid
        self.sent = array("d")
        self.done = array("d")

    def samples(self) -> List[Sample]:
        return [(self.sid, t_send, t_recv) for t_send, t_recv in zip(self.sent, self.done)]


class ClosedLoop:
    """One thread per session, each keeping one request in flight."""

    def __init__(self, sessions):
        self.sessions = list(sessions)
        self._pool = _Threads()
        self._times = [_Times(session.sid) for session in self.sessions]
        #: ``(scheduled, lag)`` per paced send; closed loops have no schedule.
        self.send_lags: List[Tuple[float, float]] = []

    @property
    def crashes(self) -> List[BaseException]:
        return self._pool.crashes

    def start(self) -> None:
        for session, times in zip(self.sessions, self._times):
            self._pool.spawn(
                lambda s=session, out=times: self._drive(s, out),
                f"closed-loop-{session.sid}",
            )

    def _drive(self, session, out: _Times) -> None:
        stopping = self._pool.stopping
        clock = time.monotonic
        sent, done = out.sent.append, out.done.append
        while not stopping.is_set():
            t_send = clock()
            if session.roundtrip():
                sent(t_send)
                done(clock())

    def finish(self, timeout: float) -> None:
        """Stop issuing; every session completes its request in flight."""
        self._pool.stopping.set()
        self._pool.join(timeout)

    def samples(self) -> List[Sample]:
        return [sample for times in self._times for sample in times.samples()]


class OpenLoop:
    """A paced sender and a collector for one echo session.

    Requests go out on a fixed schedule whatever the completions do, the
    backlog is issued at once when the sender falls behind, and every
    latency is charged from the *scheduled* send, so a stall costs every
    request that queued behind it.  ``send_lags`` is how late each send
    actually left — the check that the numbers measure the program and
    not this scheduler.
    """

    def __init__(self, session, rate: float, drain_timeout: float = 5.0):
        self.session = session
        self.interval = 1.0 / rate
        #: How long the collector waits in silence for missing echoes
        #: once sending is over, before it gives them up as lost.
        self.drain_timeout = drain_timeout
        self._pool = _Threads()
        self._sending_done = threading.Event()
        self._times = _Times(session.sid)
        self.send_lags: List[Tuple[float, float]] = []

    @property
    def crashes(self) -> List[BaseException]:
        return self._pool.crashes

    def start(self) -> None:
        self._pool.spawn(self._send_paced, "open-loop-send")
        self._pool.spawn(self._collect, "open-loop-recv")

    def _send_paced(self) -> None:
        stopping = self._pool.stopping
        session, lags = self.session, self.send_lags
        start = time.monotonic()
        for issued in itertools.count():
            scheduled = start + issued * self.interval
            if stopping.wait(max(0.0, scheduled - time.monotonic())):
                break
            lags.append((scheduled, time.monotonic() - scheduled))
            session.send(scheduled)
        self._sending_done.set()

    def _collect(self) -> None:
        session, out = self.session, self._times
        quiet_deadline: Optional[float] = None
        while True:
            t_scheduled = session.recv(timeout=0.25)
            if t_scheduled is not None:
                out.sent.append(t_scheduled)
                out.done.append(time.monotonic())
                quiet_deadline = None
            if not self._sending_done.is_set():
                continue
            if session.outstanding() <= 0:
                return
            # Sending is over and echoes are missing: give up once the
            # drain has been silent for its whole deadline.
            now = time.monotonic()
            if quiet_deadline is None:
                quiet_deadline = now + self.drain_timeout
            elif now >= quiet_deadline:
                return

    def finish(self, timeout: float) -> None:
        """Stop the schedule, then wait for the outstanding echoes."""
        self._pool.stopping.set()
        self._pool.join(timeout)

    def samples(self) -> List[Sample]:
        return self._times.samples()


# -- the replace timetable -----------------------------------------------------


@dataclass
class ReplaceRecord:
    """One ``replace()`` fired by the timetable."""

    index: int
    move: str  # where the target was sent: a machine or a placement
    t_call: float
    t_return: float
    report: Optional[ReconfigurationReport] = None
    error: str = ""  # repr of whatever made it fail; "" = committed

    @property
    def committed(self) -> bool:
        return not self.error


def slot_times(
    t0: float, seconds: float, period: float, rng: random.Random
) -> List[float]:
    """One slot per ``period`` inside ``[t0, t0 + seconds)``, jittered.

    Slot *k* sits at the middle of its period, moved by a seeded
    +-``SLOT_JITTER`` share of it, so slots neither collide nor leave
    the measured interval.
    """
    return [
        t0 + (k + 0.5 + rng.uniform(-SLOT_JITTER, SLOT_JITTER)) * period
        for k in range(int(seconds / period))
    ]


#: Every other replace lands on the other machine, so every state packet
#: is translated across byte order and word size.
MACHINE_MOVES = ({"machine": "beta"}, {"machine": "alpha"})


def run_timetable(
    bus,
    target: str,
    slots: List[float],
    on_slot: Callable[[float], None] = lambda t: None,
    moves: Sequence[Dict[str, str]] = MACHINE_MOVES,
    timeout: float = 20.0,
) -> "tuple[List[ReplaceRecord], int]":
    """Fire one move of ``target`` per slot; returns (records, skipped).

    ``moves`` are cycled through, each the keyword arguments that tell
    ``replace()`` where the clone goes.  A slot whose time has passed
    while the previous replace was still running is skipped and counted,
    never fired late: a late replace would bunch up with the next one.
    ``on_slot(t)`` runs before each wait (the traced run flips telemetry
    on there, between replaces).
    """
    cycle = itertools.cycle(moves)
    coordinator = ReconfigurationCoordinator(bus)
    records: List[ReplaceRecord] = []
    skipped = 0
    busy_until = 0.0
    for slot in slots:
        on_slot(slot)
        if slot < busy_until:
            skipped += 1
            continue
        delay = slot - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        move = next(cycle)
        t_call = time.monotonic()
        report, error = None, ""
        try:
            report = coordinator.replace(target, timeout=timeout, kind="move", **move)
        except Exception as exc:  # noqa: BLE001 - counted as a failed replace
            error = repr(exc)
            report = getattr(exc, "report", None)
        busy_until = time.monotonic()
        where = next(iter(move.values()))
        records.append(
            ReplaceRecord(len(records), where, t_call, busy_until, report, error)
        )
    return records, skipped
