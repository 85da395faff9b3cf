"""Process worker pool: modules in long-lived worker processes.

The GIL caps a single bus process at roughly one core of module work no
matter how many module threads it hosts.  :class:`ProcessTransport`
breaks that ceiling with a pool of long-lived worker processes fed over
``multiprocessing`` pipes: each worker runs
:func:`~repro.bus.host.worker_main`, a :class:`~repro.bus.host.ModuleHost`
serving the same frame protocol as the TCP machine daemons, with the
canonical self-described encoding (:func:`~repro.state.encoding.encode_any`
— the PR 2 compiled codecs) as the wire format.  No sockets, no framing
headers: a frame is one ``send_bytes`` on the pipe.  A worker imports
:mod:`repro.bus.host`, never this file.

Deliveries are *coalesced*: a busy link ships ``deliver_batch`` frames
carrying many already-encoded message wires per ``send_bytes`` (see
:mod:`repro.bus.batch`), and the worker dispatches the whole batch
inline in the serve loop (:func:`~repro.bus.host.serve_host`) — one
frame decode, one modules-lock acquire — so per-message pipe overhead
is amortized away.

Placement is ``placement="worker"`` (round-robin over the pool) or
``placement="worker:<slot>"`` (pinned to one slot, by index or host
name; recorded as ``worker:<index>``).  Workers spawn lazily on first
placement, so buses that never leave the process pay nothing.  Workers
always use the ``spawn`` start method: the bus process is full of
threads holding locks, which ``fork`` would duplicate mid-flight.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Dict, Optional, Tuple

from repro.bus.host import PipeChannel, worker_main
from repro.bus.link import Link
from repro.bus.machine import Host
from repro.bus.transport import RemoteTransport, host_profile
from repro.errors import BusError, TransportError


class _Spawn:
    """A slot whose worker is starting: the placement that reserved it
    spawns, placements arriving meanwhile wait for its outcome."""

    __slots__ = ("done", "slot", "error")

    def __init__(self):
        self.done = threading.Event()
        self.slot: Optional[Tuple[Link, Host]] = None
        self.error: Optional[BaseException] = None


class ProcessTransport(RemoteTransport):
    """A fixed-size pool of worker processes as a bus transport."""

    name = "worker"

    def __init__(
        self,
        workers: int = 2,
        architecture: str = "modern-64",
        sleep_scale: float = 0.0,
    ):
        if workers < 1:
            raise BusError("worker pool needs at least one slot")
        super().__init__([f"worker-{i}" for i in range(workers)])
        self._ctx = multiprocessing.get_context("spawn")
        self._architecture = architecture
        self._sleep_scale = sleep_scale
        #: host name -> its worker process, once spawned.
        self._processes: Dict[str, object] = {}
        #: index -> the spawn in progress for that (still empty) slot.
        self._spawning: Dict[int, _Spawn] = {}

    def _label(self, index: int) -> str:
        return str(index)

    # -- pool management -------------------------------------------------------

    def _slot(self, index: int) -> Tuple[Link, Host]:
        """The worker of slot ``index``, spawned on first placement.

        Reserve under the lock, spawn and shake hands outside it, publish
        under it: a lazy spawn takes hundreds of milliseconds, during
        which routing rebuilds and topology edits keep listing the
        workers that are already up.
        """
        with self._slots_lock:
            slot = self._slots[index]
            if slot is not None:
                return slot
            spawn = self._spawning.get(index)
            reserved = spawn is None
            if reserved:
                spawn = self._spawning[index] = _Spawn()
        if not reserved:
            spawn.done.wait()
            if spawn.slot is None:
                raise TransportError(
                    f"worker slot {index} failed to start: {spawn.error}"
                ) from spawn.error
            return spawn.slot
        try:
            spawn.slot = self._spawn(index)
        except BaseException as exc:
            spawn.error = exc
            raise
        finally:
            with self._slots_lock:
                self._slots[index] = spawn.slot  # still None if the spawn failed
                del self._spawning[index]
            spawn.done.set()
        # After publishing: a concurrent enable_health() or
        # enable_telemetry() either lists this slot or has already set
        # the monitor or flag these calls read.
        self._arm_health(spawn.slot[0])
        self._arm_telemetry(spawn.slot[0])
        return spawn.slot

    def _spawn(self, index: int) -> Tuple[Link, Host]:
        """Start one worker process and wait for its first reply."""
        name = self._names[index]
        profile = host_profile(name, self._architecture)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, name, profile.to_abstract(), self._sleep_scale),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        link = self._open_link(name, profile, PipeChannel(parent_conn))
        try:
            # Spawn handshake: the first reply proves the interpreter is
            # up and the repro imports completed (slow on cold caches).
            link.request(["ping"], timeout=60.0)
        except BaseException:
            link.close()
            process.terminate()
            process.join(timeout=5)
            raise
        self._processes[name] = process
        return link, Host(name=name, profile=profile)

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        # A spawn in flight publishes when it completes; wait for it so
        # that its worker is closed below, not left behind.
        with self._slots_lock:
            spawning = list(self._spawning.values())
        for spawn in spawning:
            spawn.done.wait()
        super().close()

    def _reap(self, grace: float) -> None:
        for process in self._processes.values():
            process.join(timeout=grace)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
