"""Deterministic fault injection for reconfiguration transactions.

A :class:`FaultPlan` arms named *injection sites* threaded through the
platform's replacement path — the coordinator stages, the state packet's
hand-off, clone preparation, capture/restore in the MH runtime, and TCP
framing.  Each armed site can

``crash``
    raise :class:`~repro.errors.InjectedFault` at the site,
``delay``
    sleep for a configured interval before the guarded operation, or
``drop``
    make the site lose its unit of work (a divulge, a state packet, a
    captured frame) silently — :func:`fire` returns True and the caller
    skips the operation.  A site whose work cannot be lost silently (a TCP
    frame: a connection delivers it or fails) fires with
    :func:`fire_hard`, where a drop is a crash.

Sites fire exactly once by default (``times=1``); a schedule can arm a
site persistently (``times`` larger than the coordinator's retry budget)
to force an abort of an otherwise-retryable stage.  Plans are installed
process-globally with :func:`fault_plan` so faults reach module threads
and bus internals without any plumbing through call signatures; with no
plan installed every site is a no-op costing one attribute read.

Every firing is logged with a monotonically increasing sequence number,
and :meth:`FaultPlan.dump` writes the schedule plus the firing log as
JSON — the artifact CI uploads when a chaos run goes red, sufficient to
replay the failure with the same seed.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import InjectedFault
from repro.runtime import telemetry

MODES = ("crash", "delay", "drop")

# Every injection site the platform declares, in path order.  Kept as a
# single tuple so the chaos suite can parametrize over the closed set and
# a typo in a schedule is caught by FaultPlan.schedule().
SITES = (
    "coordinator.clone_build",  # building the (unbound) clone
    "coordinator.rebind",  # handing the instance name over to the clone
    "coordinator.start_clone",  # starting the clone's thread
    "module.load",  # resolving/transforming clone source
    "bus.stream_divulge",  # divulged-packet hand-off (where the packet is taken)
    "mh.capture",  # entering the capture sequence at a point
    "mh.encode",  # after the state packet is built, before divulge
    "mh.decode",  # clone parsing the incoming packet
    "mh.restore",  # clone popping a captured frame
    "tcp.send_frame",  # one outbound wire frame
    "tcp.recv_frame",  # one inbound wire frame
)


@dataclass
class FaultAction:
    """One armed fault: what happens at ``site``, and when."""

    site: str
    mode: str
    delay: float = 0.005
    after: int = 0  # skip this many hits of the site before firing
    times: int = 1  # how many firings before the action is spent
    fired: int = 0

    def spent(self) -> bool:
        return self.fired >= self.times

    def to_abstract(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "mode": self.mode,
            "delay": self.delay,
            "after": self.after,
            "times": self.times,
            "fired": self.fired,
        }


def _ambient_seed() -> Optional[int]:
    """The chaos seed of the surrounding run (``REPRO_CHAOS_SEED``).

    Plans built from an explicit schedule used to dump ``seed: null``,
    which made their artifacts non-replayable when the schedule itself
    was derived from seeded randomness (hypothesis, the chaos matrix).
    Recording the ambient seed keeps every dumped artifact replayable.
    """
    raw = os.environ.get("REPRO_CHAOS_SEED", "")
    try:
        return int(raw) if raw else None
    except ValueError:
        return None


class FaultPlan:
    """A deterministic schedule of faults over the injection sites."""

    def __init__(self, name: str = "faultplan", seed: Optional[int] = None):
        self.name = name
        self.seed = seed if seed is not None else _ambient_seed()
        self._actions: List[FaultAction] = []
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.log: List[Dict[str, object]] = []

    # -- construction ------------------------------------------------------

    def schedule(
        self,
        site: str,
        mode: str,
        delay: float = 0.005,
        after: int = 0,
        times: int = 1,
    ) -> "FaultPlan":
        if site not in SITES:
            raise ValueError(f"unknown injection site {site!r}")
        if mode not in MODES:
            raise ValueError(f"unknown fault mode {mode!r}")
        self._actions.append(
            FaultAction(site=site, mode=mode, delay=delay, after=after, times=times)
        )
        return self

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float = 0.2,
        sites: Sequence[str] = SITES,
        modes: Sequence[str] = MODES,
        delay: float = 0.01,
        max_after: int = 1,
    ) -> "FaultPlan":
        """Arm each site independently with probability ``rate``.

        The same seed always produces the same schedule, so a red chaos
        run is replayable from its uploaded artifact alone.
        """
        rng = random.Random(seed)
        plan = cls(name=f"seeded-{seed}", seed=seed)
        for site in sites:
            if rng.random() < rate:
                plan.schedule(
                    site,
                    rng.choice(list(modes)),
                    delay=delay,
                    after=rng.randint(0, max_after),
                )
        return plan

    # -- firing ------------------------------------------------------------

    def fire(self, site: str) -> bool:
        """Called by an instrumented site.  Returns True for ``drop``."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            action = None
            for candidate in self._actions:
                if (
                    candidate.site == site
                    and not candidate.spent()
                    and hit >= candidate.after
                ):
                    action = candidate
                    break
            if action is None:
                return False
            action.fired += 1
            self.log.append(
                {
                    "seq": len(self.log),
                    "site": site,
                    "mode": action.mode,
                    "hit": hit,
                    "thread": threading.current_thread().name,
                }
            )
            mode, delay = action.mode, action.delay
        telemetry.count("faults.fired", key=site)
        telemetry.event("fault.fired", site=site, mode=mode, hit=hit)
        if mode == "crash":
            raise InjectedFault(site, "crash")
        if mode == "delay":
            time.sleep(delay)
            return False
        return True  # drop

    def fired(self, site: Optional[str] = None) -> int:
        with self._lock:
            return sum(
                1 for entry in self.log if site is None or entry["site"] == site
            )

    # -- artifacts ---------------------------------------------------------

    def to_abstract(self) -> Dict[str, object]:
        with self._lock:
            return {
                "name": self.name,
                "seed": self.seed,
                "schedule": [action.to_abstract() for action in self._actions],
                "log": list(self.log),
            }

    def dump(self, path: str) -> None:
        """Write the schedule + firing log as JSON (the CI artifact)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_abstract(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_install_lock = threading.Lock()


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block.

    Plans do not nest: installing while another plan is active is almost
    certainly two tests interfering, so it is an error.
    """
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError(
                f"fault plan {_active.name!r} is already installed"
            )
        _active = plan
    try:
        yield plan
    finally:
        with _install_lock:
            _active = None


def fire(site: str) -> bool:
    """Site hook: no-op (False) unless a plan armed this site.

    Returns True when the site's unit of work should be dropped; raises
    :class:`InjectedFault` for a crash; sleeps for a delay.
    """
    plan = _active
    if plan is None:
        return False
    return plan.fire(site)


def fire_hard(site: str) -> None:
    """Site hook for operations with no meaningful drop: drop ⇒ crash."""
    if fire(site):
        raise InjectedFault(site, "drop")


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures."""

    attempts: int = 3
    backoff: float = 0.01
    multiplier: float = 2.0

    def delays(self) -> List[float]:
        """Sleep lengths between attempts (``attempts - 1`` entries)."""
        out: List[float] = []
        delay = self.backoff
        for _ in range(max(0, self.attempts - 1)):
            out.append(delay)
            delay *= self.multiplier
        return out
