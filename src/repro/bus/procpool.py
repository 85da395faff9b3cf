"""Process worker pool: modules in long-lived worker processes.

The GIL caps a single bus process at roughly one core of module work no
matter how many module threads it hosts.  :class:`ProcessTransport`
breaks that ceiling with a pool of long-lived worker processes fed over
``multiprocessing`` pipes: each worker runs a
:class:`~repro.bus.transport.ModuleHost` serving the same frame protocol
as the TCP machine daemons, with the canonical self-described encoding
(:func:`~repro.state.encoding.encode_any` — the PR 2 compiled codecs) as
the wire format.  No sockets, no framing headers: a frame is one
``send_bytes`` on the pipe.

Deliveries are *coalesced*: a busy link ships ``deliver_batch`` frames
carrying many already-encoded message wires per ``send_bytes`` (see
:mod:`repro.bus.batch`), and the worker dispatches the whole batch
inline in the serve loop (:func:`~repro.bus.transport.serve_host`) —
one frame decode, one modules-lock acquire — so per-message pipe
overhead is amortized away.

Placement is ``placement="worker"`` (round-robin over the pool) or
``placement="worker:<index>"`` (pinned to one slot).  Workers spawn
lazily on first placement, so buses that never leave the process pay
nothing.  The pool uses the ``spawn`` start method by default — the bus
process is full of threads holding locks, which ``fork`` would duplicate
mid-flight; override with ``start_method=`` or ``REPRO_WORKER_START``
where fork semantics are wanted deliberately.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.bus.machine import Host
from repro.bus.transport import Link, RemoteTransport, serve_host
from repro.errors import BusError, TransportError
from repro.runtime.faults import FaultPlan
from repro.state.encoding import decode_any, encode_any
from repro.state.machine import MACHINES, MachineProfile, profile_from_abstract


class PipeChannel:
    """A ``multiprocessing`` pipe as a frame channel.

    Pipes are loss-free and ordered, so links over them run without a
    retry policy; a failed pipe operation means the peer process died,
    which surfaces as :class:`TransportError`.
    """

    __slots__ = ("_conn",)

    def __init__(self, conn):
        self._conn = conn

    def send(self, value) -> None:
        try:
            self._conn.send_bytes(encode_any(value))
        except (OSError, ValueError, EOFError) as exc:
            raise TransportError(f"pipe send failed: {exc}") from exc

    def recv(self):
        try:
            data = self._conn.recv_bytes()
        except (OSError, EOFError) as exc:
            raise TransportError(f"pipe closed: {exc}") from exc
        return decode_any(data)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


def worker_main(conn, name: str, profile_raw: Dict[str, object], sleep_scale: float) -> None:
    """Entry point of one worker process (must stay module-level: spawn
    pickles it by qualified name)."""
    serve_host(
        PipeChannel(conn), name, profile_from_abstract(profile_raw), float(sleep_scale)
    )


class _WorkerSlot:
    __slots__ = ("name", "link", "host", "process")

    def __init__(self, name: str, link: Link, host: Host, process):
        self.name = name
        self.link = link
        self.host = host
        self.process = process


class _Spawn:
    """A slot whose worker is starting: the placement that reserved it
    spawns, placements arriving meanwhile wait for its outcome."""

    __slots__ = ("done", "slot", "error")

    def __init__(self):
        self.done = threading.Event()
        self.slot: Optional[_WorkerSlot] = None
        self.error: Optional[BaseException] = None


class ProcessTransport(RemoteTransport):
    """A fixed-size pool of worker processes as a bus transport."""

    name = "worker"

    def __init__(
        self,
        workers: int = 2,
        architecture: str = "modern-64",
        sleep_scale: float = 0.0,
        start_method: Optional[str] = None,
        host_prefix: str = "worker-",
    ):
        super().__init__()
        if workers < 1:
            raise BusError("worker pool needs at least one slot")
        method = start_method or os.environ.get("REPRO_WORKER_START", "spawn")
        self._ctx = multiprocessing.get_context(method)
        self._architecture = architecture
        self._sleep_scale = sleep_scale
        self._host_prefix = host_prefix
        #: Published slots: a worker is listed once it answered its ping.
        self._slots: List[Optional[_WorkerSlot]] = [None] * workers
        #: index -> the spawn in progress for that (still empty) slot.
        self._spawning: Dict[int, _Spawn] = {}
        #: Guards the two tables and ``_rr``, for table edits only —
        #: ``links()`` takes it under the bus lock, so nothing slow (a
        #: process start, a round-trip) may run while it is held.
        self._slots_lock = threading.Lock()
        self._rr = 0

    @property
    def workers(self) -> int:
        return len(self._slots)

    def links(self) -> List[Link]:
        return [slot.link for slot in self._live_slots()]

    # -- pool management -------------------------------------------------------

    def _ensure_slot(self, index: int) -> _WorkerSlot:
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
        # After publishing: a concurrent enable_health() either lists
        # this slot or has already set the monitor this call reads.
        self._sync_health(spawn.slot.link)
        return spawn.slot

    def _spawn(self, index: int) -> _WorkerSlot:
        """Start one worker process and wait for its first reply."""
        name = f"{self._host_prefix}{index}"
        base = MACHINES[self._architecture]
        profile = MachineProfile(
            name=name,
            endianness=base.endianness,
            int_bits=base.int_bits,
            long_bits=base.long_bits,
            float_bits=base.float_bits,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, name, profile.to_abstract(), self._sleep_scale),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        link = Link(name, profile, PipeChannel(parent_conn))
        link.on_event = self._make_on_event(link)
        try:
            # Spawn handshake: the first reply proves the interpreter is
            # up and the repro imports completed (slow on cold caches).
            link.request(["ping"], timeout=60.0)
        except BaseException:
            link.close()
            process.terminate()
            process.join(timeout=5)
            raise
        return _WorkerSlot(
            name=name,
            link=link,
            host=Host(name=name, profile=profile),
            process=process,
        )

    def peek_host(self, slot: Optional[str]) -> Optional[str]:
        """Resolve a slot to its host name with no side effects.

        Unlike :meth:`_place` this neither spawns the worker nor
        advances round-robin — the coordinator's health pre-flight must
        be able to ask "who would this placement target" without
        perturbing placement itself.
        """
        if not slot:
            return None
        try:
            index = int(slot)
        except ValueError:
            return None
        if not 0 <= index < len(self._slots):
            return None
        return f"{self._host_prefix}{index}"

    def _place(self, slot: Optional[str]) -> Tuple[Link, Host, str]:
        if not slot:
            with self._slots_lock:
                index = self._rr % len(self._slots)
                self._rr += 1
        else:
            try:
                index = int(slot)
            except ValueError:
                raise BusError(
                    f"worker placement slot must be an index, got {slot!r}"
                ) from None
            if not 0 <= index < len(self._slots):
                raise BusError(
                    f"worker slot {index} out of range "
                    f"(pool has {len(self._slots)})"
                )
        worker = self._ensure_slot(index)
        return worker.link, worker.host, f"{self.name}:{index}"

    # -- chaos / telemetry parity ----------------------------------------------

    def _live_slots(self) -> List[_WorkerSlot]:
        with self._slots_lock:
            return [slot for slot in self._slots if slot is not None]

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Arm the same schedule in every live worker (fresh firing state)."""
        for slot in self._live_slots():
            slot.link.request(["install_faults", plan.to_abstract()])

    def clear_fault_plan(self) -> None:
        for slot in self._live_slots():
            slot.link.request(["clear_faults"])

    # enable_telemetry/disable_telemetry/telemetry_snapshot come from
    # RemoteTransport via links() (= every live slot's link); the bus
    # calls them on routing rebuilds to keep workers recording and to
    # merge their counters back on read.

    def telemetry_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-worker counter snapshots, keyed by worker host name."""
        out: Dict[str, Dict[str, int]] = {}
        for slot in self._live_slots():
            raw = slot.link.request(["telemetry_counters"])
            out[slot.name] = {str(k): int(v) for k, v in dict(raw).items()}  # type: ignore[call-overload]
        return out

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        # A spawn in flight publishes when it completes; wait for it so
        # that its worker is closed below, not left behind.
        with self._slots_lock:
            spawning = list(self._spawning.values())
        for spawn in spawning:
            spawn.done.wait()
        with self._slots_lock:
            slots = [slot for slot in self._slots if slot is not None]
            self._slots = [None] * len(self._slots)
        for slot in slots:
            try:
                slot.link.request(["shutdown"], timeout=5)
            except (BusError, TransportError):
                pass
            slot.link.close()
        for slot in slots:
            slot.process.join(timeout=5)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=5)
