"""The ``MH`` runtime: flags, capture/restore, and messaging.

This is the reproduction of the paper's ``mh_*`` support library (Figure
4): the three reconfiguration flags, ``mh_capture``/``mh_restore``,
``mh_encode``/``mh_decode``, the reconfiguration signal handler, and the
POLYLITH message primitives ``mh_read``/``mh_write``/``mh_query_ifmsgs``.
Exactly one :class:`MH` instance named ``mh`` lives in each module's
namespace; both hand-written module code and transformer-generated code
call into it.

Capture protocol (generated code, cf. Figure 7)::

    if mh.reconfig:                     # block at reconfiguration edge (j, R)
        mh.begin_reconfig_capture("R")
        mh.capture("compute", "lllF", j, num, n, rp.get())
        return
    ...
    if mh.capturestack:                 # block at call edge (i, Si)
        mh.capture("main", "llF", i, n, response)
        mh.encode()                     # only in main
        return

Restore protocol (generated code, cf. Figure 8)::

    if mh.getstatus() == "clone":       # prologue of main
        mh.restoring = True
        mh.decode()
    if mh.restoring:
        _vals = mh.restore("compute")
        location = _vals[0]; num = _vals[1]; ...
        # dispatch on location; at the reconfiguration edge:
        mh.end_restore()
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import (
    CaptureError,
    FormatError,
    InjectedFault,
    RestoreError,
    RuntimeStateError,
)
from repro.runtime import faults, telemetry
from repro.runtime.files import FileReattachRegistry
from repro.state.encoding import check_arity
from repro.state.frames import ActivationRecord, Handoff, ProcessState, StackState
from repro.state.heap import HeapCodec, HeapImage
from repro.state.machine import MachineProfile


class ModuleStop(BaseException):
    """Raised inside a module's thread of control when the platform stops it.

    Derives from ``BaseException`` so module code catching ``Exception``
    cannot accidentally swallow a shutdown request.
    """


class SleepPolicy:
    """Controls how ``mh.sleep`` passes time.

    The paper's modules sleep in wall-clock seconds (``sleep(2)``); tests
    and benchmarks set ``scale`` below 1.0 (usually 0.0) so the same module
    source runs at full speed.  Sleeps always wake immediately on stop.
    """

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def sleep(self, seconds: float, interrupt: threading.Event) -> None:
        delay = seconds * self.scale
        if delay <= 0:
            # Still yield the GIL so peer module threads make progress.
            time.sleep(0)
            return
        interrupt.wait(delay)


class MH:
    """Per-module reconfiguration runtime and bus access point."""

    def __init__(
        self,
        module: str,
        machine: Optional[MachineProfile] = None,
        status: str = "original",
        sleep_policy: Optional[SleepPolicy] = None,
    ):
        self.module = module
        self.machine = machine
        self._status = status

        # --- the paper's three flags (Figure 4) ---
        self.reconfig = False  # set by the reconfiguration signal handler
        self.capturestack = False  # triggers AR-stack capture blocks
        self.restoring = False  # triggers restore blocks in the clone

        # --- capture/restore state ---
        self._captured = StackState()
        self._active_point: str = ""
        self._restore_stack: Optional[StackState] = None
        self._last_restored_fmt: str = ""
        # The state this module restores from, and the state it divulged:
        # a Handoff each, holding the packet and, for a state divulged in
        # the bus process, a copy that the first module there to resume
        # from it takes instead of decoding the packet.
        self.incoming: Optional[Handoff] = None
        self.outgoing: Optional[Handoff] = None
        self.divulged = threading.Event()  # the packet went out
        # Set by encode for either outcome of a divulge: the packet went
        # out (``divulged``) or the divulge failed (``divulge_failed``).
        # The coordinator waits on it and takes the packet from here.
        self.divulge_settled = threading.Event()
        self.restored = threading.Event()  # set by end_restore (clone health)
        # Platform hooks fired right after ``divulge_settled`` and
        # ``restored`` are set.  Remote module hosts use them to push the
        # outcome to the bus process, so its coordinator waits for the
        # packet and health-checks the clone without polling across the
        # process boundary.  Both survive prepare_revival (a revived
        # module's next divulge and restore are equally interesting).
        self.on_divulge_settled: Optional[Callable[[], None]] = None
        self.on_restored: Optional[Callable[[], None]] = None
        # Cleared by a host behind a link, whose every divulged state
        # leaves the process as a packet: no copy is kept beside it.
        self.copy_divulged = True
        self._divulge_lock = threading.Lock()
        # A fault at the capture sites cannot raise through module code
        # (the capture blocks return unconditionally once entered, the
        # stack is already unwinding) — it suppresses the divulge instead:
        # the state is still kept in outgoing so the coordinator can
        # revive the module from it during rollback.
        self._suppress_divulge = False
        self.divulge_failed: Optional[BaseException] = None
        # Set when a withdrawn reconfiguration abandons an in-flight
        # divulge; the module's thread self-revives instead of exiting.
        self._divulge_abandoned = False
        # Telemetry spans held across calls on the same module thread:
        # capture opens at begin_reconfig_capture and closes in encode;
        # restore opens at the end of decode and closes in end_restore.
        self._capture_span = telemetry.NOOP_SPAN
        self._restore_span = telemetry.NOOP_SPAN

        # --- module attributes from the MIL spec (read-only config) ---
        self.config: Dict[str, str] = {}

        # --- abstract data areas (paper Section 1.2) ---
        self.statics: Dict[str, object] = {}
        self.heap: Dict[str, object] = {}
        self._heap_codec = HeapCodec()
        self._heap_hooks: Dict[
            str, Tuple[Callable[[object], object], Callable[[object], object]]
        ] = {}
        self.files = FileReattachRegistry()

        # --- observability (counters, not behaviour) ---
        self.stats: Dict[str, int] = {
            "signals": 0,
            "frames_captured": 0,
            "packets_encoded": 0,
            "frames_restored": 0,
            "messages_sent": 0,
            "messages_received": 0,
        }

        # --- lifecycle ---
        # Whoever sets it wakes the module's queues, so a read blocked on
        # an empty one sees it at once (ModuleInstance.request_stop).
        self._stop_event = threading.Event()
        self._sleep_policy = sleep_policy or SleepPolicy()
        self._port = None  # duck-typed message port attached by the bus

    # ------------------------------------------------------------------
    # Status and lifecycle
    # ------------------------------------------------------------------

    @property
    def incoming_packet(self) -> Optional[bytes]:
        """The packet of :attr:`incoming`; setting a packet installs it
        as the state to restore from."""
        return None if self.incoming is None else self.incoming.packet

    @incoming_packet.setter
    def incoming_packet(self, packet: Optional[bytes]) -> None:
        self.incoming = None if packet is None else Handoff(packet)

    @property
    def outgoing_packet(self) -> Optional[bytes]:
        """The packet of :attr:`outgoing`: what a host behind a link
        pushes to the bus."""
        return None if self.outgoing is None else self.outgoing.packet

    @property
    def outgoing_frames(self) -> Optional[int]:
        """Depth of the divulged stack, counted as it was captured."""
        return None if self.outgoing is None else self.outgoing.frames

    def getstatus(self) -> str:
        """The paper's ``mh_getstatus()``: ``"original"`` or ``"clone"``."""
        return self._status

    @property
    def running(self) -> bool:
        """Loop condition for module main loops (``while mh.running:``)."""
        return not self._stop_event.is_set()

    def stop(self) -> None:
        """Ask the module's thread of control to exit (platform side)."""
        self._stop_event.set()

    def check_stop(self) -> None:
        """Raise :class:`ModuleStop` if a stop was requested."""
        if self._stop_event.is_set():
            raise ModuleStop(self.module)

    def sleep(self, seconds: float) -> None:
        """The paper's ``sleep(2)``, stop-aware and test-scalable."""
        self.check_stop()
        self._sleep_policy.sleep(seconds, self._stop_event)
        self.check_stop()

    # ------------------------------------------------------------------
    # Reconfiguration signal (the paper's SIGHUP handler)
    # ------------------------------------------------------------------

    def catch_reconfig(self, *_ignored) -> None:
        """Signal handler body: ``mh_catchreconfig`` just sets the flag."""
        self.reconfig = True
        self.stats["signals"] += 1

    def request_reconfig(self) -> None:
        """Platform side of the signal: a new signal also clears the mark
        an earlier, withdrawn one left (:meth:`abandon_divulge`)."""
        with self._divulge_lock:
            self._divulge_abandoned = False
            self.catch_reconfig()

    # ------------------------------------------------------------------
    # Capture (Figure 7)
    # ------------------------------------------------------------------

    def begin_reconfig_capture(self, point: str) -> None:
        """Executed at a reconfiguration-point capture block.

        Mirrors Figure 7: clear ``reconfig``, set ``capturestack`` so the
        blocks installed at call edges fire as each frame returns.
        """
        self.reconfig = False
        try:
            if faults.fire("mh.capture"):
                self._suppress_divulge = True  # drop: the divulge is lost
        except InjectedFault as exc:
            self._suppress_divulge = True
            self.divulge_failed = exc
        self.capturestack = True
        self._active_point = point
        self._captured = StackState()
        self._capture_span = telemetry.span(
            "mh.capture", module=self.module, point=point
        )

    def capture(self, procedure: str, fmt: str, *values: object) -> None:
        """The paper's ``mh_capture(fmt, location, vars...)``.

        The first value is always the integer resume location.  Frames
        arrive top-of-stack first, exactly as the returning capture
        blocks emit them.  The values are checked against ``fmt`` once,
        when :meth:`encode` packages the frames.
        """
        if not values:
            raise CaptureError("capture requires at least the location value")
        location = values[0]
        if not isinstance(location, int) or isinstance(location, bool):
            raise CaptureError(f"first captured value must be int location, got {location!r}")
        self._captured.push_captured(
            ActivationRecord(procedure, location, fmt, list(values))
        )
        self.stats["frames_captured"] += 1

    def encode(self) -> bytes:
        """The paper's ``mh_encode()``: package state and divulge it.

        Runs in main's capture block, after the bottom-most frame is
        captured.  Serializes with the *source* machine profile so
        representability problems surface here, at the old module.  A
        frame whose values do not match its capture block's format is
        refused here too, as a :class:`CaptureError` naming the
        procedure, before anything is divulged.  Beside the packet, the
        divulge keeps a copy of the state, taken here, that a module in
        this process resumes from without decoding the packet
        (:meth:`Handoff.divulged`); both are in :attr:`outgoing`.
        """
        if not self.capturestack:
            raise CaptureError("encode() called outside a capture sequence")
        with telemetry.span("mh.encode", module=self.module) as enc_span:
            try:
                heap_image = self._capture_heap()
                state = ProcessState(
                    module=self.module,
                    stack=self._captured,
                    statics=dict(self.statics),
                    heap={
                        "image": heap_image.to_abstract(),
                        "files": self.files.capture(),
                    },
                    reconfig_point=self._active_point,
                    source_machine=self.machine.name if self.machine else "",
                    status="clone",
                )
                handoff = Handoff.divulged(state, self.machine, self.copy_divulged)
            except Exception:
                # Whatever the encoder tripped on first, a frame its
                # format refuses is the error to report: it names the
                # capture block to fix.  Otherwise re-raise.
                self._refuse_bad_frame()
                raise
            enc_span.set(bytes=len(handoff.packet), frames=handoff.frames)
        self._capture_span.set(bytes=len(handoff.packet), frames=handoff.frames).close()
        self._capture_span = telemetry.NOOP_SPAN
        self.outgoing = handoff
        self.stats["packets_encoded"] += 1
        telemetry.count("mh.packets_encoded", key=self.module)
        self.capturestack = False
        suppressed = self._suppress_divulge
        failure = self.divulge_failed
        try:
            if faults.fire("mh.encode"):
                suppressed = True  # drop: packet built but never divulged
        except InjectedFault as exc:
            suppressed, failure = True, exc
        if suppressed:
            self._suppress_divulge = False
            telemetry.event(
                "mh.divulge_suppressed",
                module=self.module,
                cause=type(failure).__name__ if failure is not None else "drop",
            )
            if failure is None:
                return handoff.packet  # dropped: nobody hears of it
        self.settle_divulge(failure)
        return handoff.packet

    def settle_divulge(self, failure: Optional[BaseException] = None) -> None:
        """Record a divulge's outcome: the packet went out, or ``failure``.

        :meth:`encode` settles each state it divulges (unless the divulge
        is dropped); the platform settles with the module's exit when
        its thread ends without having built one, so a replace waiting
        for the point aborts at once instead of at its deadline.
        """
        with self._divulge_lock:
            self.divulge_failed = failure
            # A withdrawn signal: the packet goes to nobody, and the
            # module's thread resumes from it (reclaim_abandoned_divulge).
            # Without a packet there is nothing to resume from, so the
            # outcome stands for the next signal.  The hook runs inside
            # the lock so that a remote host pushes the outcome before it
            # answers an abandon that follows.
            if not (self._divulge_abandoned and self.outgoing is not None):
                if failure is None:
                    self.divulged.set()
                self.divulge_settled.set()
                hook = self.on_divulge_settled
                if hook is not None:
                    try:
                        hook()
                    except Exception:  # noqa: BLE001 - hooks must not crash the module
                        pass

    def _refuse_bad_frame(self) -> None:
        """On a failed encode, raise for the first captured frame (in
        capture order) whose values do not match its format, if any."""
        for record in self._captured:
            try:
                check_arity(record.fmt, record.values)
            except FormatError as exc:
                raise CaptureError(
                    f"bad capture block in {self.module}.{record.procedure}: {exc}"
                ) from exc

    def _capture_heap(self) -> HeapImage:
        roots: Dict[str, object] = {}
        for name, value in self.heap.items():
            hook = self._heap_hooks.get(name)
            roots[name] = hook[0](value) if hook else value
        return self._heap_codec.capture(roots)

    # ------------------------------------------------------------------
    # Restore (Figure 8)
    # ------------------------------------------------------------------

    def decode(self) -> None:
        """The paper's ``mh_decode()``: read the incoming state.

        Reads :attr:`incoming` with the *target* machine profile
        (:meth:`Handoff.read`: the copy a divulge in this process kept,
        if no module has taken it, else the packet's decode; either
        refuses what decoding the packet would), then rebuilds the heap
        and statics, and stages the activation-record stack so
        successive :meth:`restore` calls pop frames outermost-first.
        """
        if faults.fire("mh.decode"):
            self.incoming = None  # drop: the state packet is lost
        incoming = self.incoming
        if incoming is None:
            raise RestoreError(f"module {self.module!r} is a clone but has no state packet")
        with telemetry.span("mh.decode", module=self.module, bytes=len(incoming.packet)):
            state = incoming.read(self.machine)
            if state.module != self.module:
                raise RestoreError(
                    f"state packet is for module {state.module!r}, this is {self.module!r}"
                )
            self._restore_stack = state.stack
            self._active_point = state.reconfig_point
            self.statics.update(state.statics)
            heap_blob = state.heap
            image_raw = heap_blob.get("image") if isinstance(heap_blob, dict) else None
            if image_raw is not None:
                restored = self._heap_codec.restore(HeapImage.from_abstract(image_raw))
                for name, value in restored.items():
                    hook = self._heap_hooks.get(name)
                    self.heap[name] = hook[1](value) if hook else value
            files_raw = heap_blob.get("files") if isinstance(heap_blob, dict) else None
            if files_raw:
                self.files.restore(list(files_raw))
        telemetry.count("mh.packets_decoded", key=self.module)
        self._restore_span = telemetry.span("mh.restore", module=self.module)
        self.restoring = True

    def restore(self, procedure: str) -> List[object]:
        """The paper's ``mh_restore``: pop and return one frame's values.

        Returns the captured values with the resume location first.  The
        procedure-name check catches a rebuilt call chain that diverged
        from the captured one (which would indicate a transformer bug or
        a version-mismatched replacement).
        """
        if self._restore_stack is None:
            raise RestoreError("restore() called before decode()")
        if faults.fire("mh.restore"):
            # drop: one captured frame is lost; the procedure-name check
            # below refuses the now-misaligned chain and the clone crashes.
            self._restore_stack.pop_for_restore()
        record = self._restore_stack.pop_for_restore()
        if record.procedure != procedure:
            raise RestoreError(
                f"restore mismatch: rebuilding {procedure!r} but captured frame "
                f"is for {record.procedure!r}"
            )
        self._last_restored_fmt = record.fmt
        self.stats["frames_restored"] += 1
        return list(record.values)

    def expect_frame_fmt(self, fmt: str, procedure: str) -> None:
        """Generated restore code cross-checks the captured frame format.

        Catches replacements whose frame layout diverged from the
        captured state (a version mismatch, or mixing pruned and
        unpruned module lineages) before any variable is misassigned.
        """
        if self._last_restored_fmt != fmt:
            raise RestoreError(
                f"{self.module}.{procedure}: captured frame format "
                f"{self._last_restored_fmt!r} does not match this module "
                f"version's expected format {fmt!r} — incompatible "
                f"replacement"
            )

    def end_restore(self) -> None:
        """Executed at the reconfiguration edge's restore code (Figure 8).

        Clears ``restoring`` and re-arms the reconfiguration signal — the
        clone is from this instant an ordinary reconfigurable module.
        """
        self.restoring = False
        span = self._restore_span
        self._restore_span = telemetry.NOOP_SPAN
        if self._restore_stack is not None and len(self._restore_stack):
            span.set(error="RestoreError").close()
            raise RestoreError(
                f"{len(self._restore_stack)} frame(s) left unrestored — the "
                f"rebuilt call chain is shallower than the captured stack"
            )
        self._restore_stack = None
        self._status = "original"
        # Close the span *before* signalling completion: on a remote host
        # the on_restored hook pushes "restored" to the bus, whose
        # coordinator may commit and issue the final telemetry flush
        # immediately — an open span at that instant would miss the ship
        # and orphan its children in the merged tree.
        span.set(frames=self.stats["frames_restored"]).close()
        self.restored.set()
        hook = self.on_restored
        if hook is not None:
            try:
                hook()
            except Exception:  # noqa: BLE001 - hooks must not crash the module
                pass

    # ------------------------------------------------------------------
    # Helpers used by transformer-generated code
    # ------------------------------------------------------------------

    @staticmethod
    def pack_ref(cell) -> Optional[tuple]:
        """Capture form of a Ref-typed local: ``None`` stays ``None`` (the
        cell was never created), a live cell becomes a 1-tuple of its
        pointee, so ``Ref(None)`` and "no cell yet" stay distinguishable."""
        if cell is None:
            return None
        return (cell.get(),)

    @staticmethod
    def unpack_ref(packed: Optional[tuple]):
        """Restore form of :meth:`pack_ref`."""
        if packed is None:
            return None
        from repro.runtime.refs import Ref

        if isinstance(packed, tuple) and len(packed) == 1:
            return Ref(packed[0])
        raise RestoreError(f"malformed packed Ref value {packed!r}")

    def bad_restore_location(self, location: object, procedure: str) -> None:
        """Captured location has no edge at this node: version mismatch."""
        raise RestoreError(
            f"{self.module}.{procedure}: captured resume location "
            f"{location!r} does not match any reconfiguration edge — the "
            f"replacement module's reconfiguration graph differs from the "
            f"captured one"
        )

    # ------------------------------------------------------------------
    # Heap hooks (paper: programmer-written heap capture/restore)
    # ------------------------------------------------------------------

    def register_heap_hook(
        self,
        name: str,
        capture: Callable[[object], object],
        restore: Callable[[object], object],
    ) -> None:
        """Attach programmer capture/restore routines to heap root ``name``."""
        self._heap_hooks[name] = (capture, restore)

    # ------------------------------------------------------------------
    # Messaging (POLYLITH primitives)
    # ------------------------------------------------------------------

    def attach_port(self, port) -> None:
        """Platform side: connect this runtime to the software bus."""
        self._port = port

    def abandon_divulge(self) -> None:
        """Withdraw the signal (rollback path).

        Clears ``reconfig`` and, in the same lock hold, marks a divulge
        that already raced past the signal check as abandoned: it goes to
        nobody, and the module's thread detects the packet via
        :meth:`reclaim_abandoned_divulge` and resumes from it instead of
        exiting.
        """
        with self._divulge_lock:
            self._divulge_abandoned = True
            self.reconfig = False

    def reclaim_abandoned_divulge(self) -> Optional[bytes]:
        """Module-thread side of :meth:`abandon_divulge` (one-shot)."""
        with self._divulge_lock:
            if self._divulge_abandoned and self.outgoing is not None:
                self._divulge_abandoned = False
                return self.outgoing.packet
            return None

    def prepare_revival(self, state: Union[Handoff, bytes]) -> None:
        """Reset the reconfiguration machinery to restore from ``state``,
        a divulged state or its packet.

        Used when an aborted replacement resumes the old module from its
        own captured state: the module restarts exactly like a clone,
        but in place, with its queues and bindings untouched.
        """
        with self._divulge_lock:
            self.incoming = Handoff.of(state)
            self.outgoing = None
            self._status = "clone"
            self.reconfig = False
            self.capturestack = False
            self.restoring = False
            self._captured = StackState()
            self._restore_stack = None
            self.divulged.clear()
            self.divulge_settled.clear()
            self.restored.clear()
            self._suppress_divulge = False
            self.divulge_failed = None
            self._divulge_abandoned = False
        # Spans from the interrupted capture/restore must not leak into
        # the revival's restore sequence.
        self._capture_span.close()
        self._capture_span = telemetry.NOOP_SPAN
        self._restore_span.close()
        self._restore_span = telemetry.NOOP_SPAN

    def init(self, *_args) -> None:
        """The paper's ``mh_init``: kept for source-level fidelity (no-op)."""

    def _require_port(self):
        if self._port is None:
            raise RuntimeStateError(
                f"module {self.module!r} is not attached to a software bus"
            )
        return self._port

    def write(self, interface: str, fmt: str, *values: object) -> None:
        """The paper's ``mh_write(interface, fmt, ..., value)``."""
        self.check_stop()
        self._require_port().write(interface, fmt, list(values))
        self.stats["messages_sent"] += 1

    def read(self, interface: str, timeout: Optional[float] = None) -> List[object]:
        """The paper's ``mh_read``: block for the next message's values."""
        self.check_stop()
        try:
            values = self._require_port().read(interface, timeout, self._stop_event)
        finally:
            # A read the stop interrupted raises ModuleStop, never the
            # port's TransportError, which module code may catch.
            self.check_stop()
        self.stats["messages_received"] += 1
        return values

    def read1(self, interface: str, timeout: Optional[float] = None) -> object:
        """Read a single-value message (the common case in the examples)."""
        values = self.read(interface, timeout)
        if len(values) != 1:
            raise RuntimeStateError(
                f"read1 on {interface!r} got {len(values)} values"
            )
        return values[0]

    def read_msg(self, interface: str, timeout: Optional[float] = None):
        """Read the next message returning ``(values, sender_instance)``.

        Servers with several bound clients use the sender to address
        their reply (see :meth:`write_to`).
        """
        self.check_stop()
        port = self._require_port()
        reader = getattr(port, "read_msg", None)
        if reader is None:
            raise RuntimeStateError(
                f"module {self.module!r}: port does not support read_msg"
            )
        try:
            values, sender = reader(interface, timeout, self._stop_event)
        finally:
            self.check_stop()
        return values, sender

    def write_to(
        self, interface: str, destination: str, fmt: str, *values: object
    ) -> None:
        """Directed send: deliver only to the named bound peer.

        The POLYLITH client/server pattern implies replies return to the
        requester; on a multi-client binding a plain :meth:`write` would
        broadcast, so servers reply with ``write_to(iface, sender, ...)``.
        """
        self.check_stop()
        port = self._require_port()
        writer = getattr(port, "write_to", None)
        if writer is None:
            raise RuntimeStateError(
                f"module {self.module!r}: port does not support write_to"
            )
        writer(interface, destination, fmt, list(values))

    def query_ifmsgs(self, interface: str) -> bool:
        """The paper's ``mh_query_ifmsgs``: any message pending?"""
        self.check_stop()
        return bool(self._require_port().query_ifmsgs(interface))

    # ------------------------------------------------------------------
    # Source-level markers (consumed by the transformer)
    # ------------------------------------------------------------------

    def reconfig_point(self, label: str) -> None:
        """Marks a reconfiguration point in *untransformed* source.

        The transformer replaces this statement with the capture block and
        resume label; when untransformed source runs directly (modules are
        runnable before preparation), it is a no-op.
        """
