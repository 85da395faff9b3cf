"""Orchestration of a module replacement, with timing and failure handling.

The coordinator runs the event sequence of Figure 5 — access old module,
build the new one, move state, rebind, start new, remove old — and
records when each step completed, which is what benchmark D3
(reconfiguration delay vs. point placement) measures.  Unlike the
script's literal rendition (:func:`~repro.reconfig.scripts.figure5_replacement_script`,
whose clone stays a separate ``new`` object) the clone is built under
the instance's own name and answers to nothing until the rebind hands
the name over to it, so nothing is ever renamed and the binding table
is never edited.

Failure semantics: replacement is a *transaction*.  The stages are

========================  ==================================================
``clone_build``           build the clone under the instance's name,
                          unbound (pre-signal for a new version, inside
                          the wait window for a move)
``signal``                deliver the reconfiguration signal to the old
                          module
``wait_point``            wait (with deadline) for the old module to reach
                          a reconfiguration point and divulge its state,
                          then install the state it divulged in the clone
``rebind``                hand the name over: check every binding of it
                          against the clone, make the clone the module
                          that answers to it, ``cq``/``rmq`` from the old
                          module
``start_clone``           start the clone's thread of control
``health_check``          wait until the clone finishes restoring (its
                          ``end_restore`` ran) — the point of no return
``commit``                remove the old module
========================  ==================================================

``clone_build``, ``rebind`` and ``start_clone`` retry transient failures
(injected faults, transport errors) under a bounded backoff policy.  Any
stage failing before ``commit`` triggers rollback: the signal is
withdrawn, the name is handed back to the old module if the clone had
it, messages that reached the clone's queues are drained back, the
clone is torn down, and the old
module — whose thread exited when it divulged — is *revived* from its
own captured state packet, so the application keeps executing exactly
where the capture left it.  The divulged state is a
:class:`~repro.state.frames.Handoff`: its packet, and a copy taken at
the divulge that the first module in the bus process to resume from
it (the clone, or the revived old module) reads instead of decoding
the packet.  Every abort surfaces as a typed
:class:`~repro.errors.ReconfigurationAborted` carrying the stage and the
partial :class:`ReconfigurationReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bus.bus import SoftwareBus
from repro.bus.module import ModuleInstance, ModuleState
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import (
    InjectedFault,
    ReconfigError,
    ReconfigTimeoutError,
    ReconfigurationAborted,
    ReconfigurationTimeout,
    TransportError,
)
from repro.reconfig.bindcmds import BindBatch
from repro.reconfig.primitives import ObjectCapability, obj_cap
from repro.runtime import faults, telemetry
from repro.runtime.faults import RetryPolicy
from repro.state.frames import Handoff

STAGES = (
    "clone_build",
    "signal",
    "wait_point",
    "rebind",
    "start_clone",
    "health_check",
    "commit",
)

#: Failures considered transient: worth a bounded retry before aborting.
_TRANSIENT = (InjectedFault, TransportError)


@dataclass
class ReconfigurationReport:
    """What happened during one reconfiguration, and when."""

    instance: str
    kind: str
    old_machine: str = ""
    new_machine: str = ""
    packet_bytes: int = 0
    stack_depth: int = 0
    queued_copied: Dict[str, int] = field(default_factory=dict)
    t_signal: float = 0.0
    t_divulged: float = 0.0
    t_rebound: float = 0.0
    t_started: float = 0.0
    t_done: float = 0.0
    # -- transaction bookkeeping --
    recon_id: str = ""  # process-unique id; keys telemetry spans/events
    stage: str = "clone_build"  # last stage entered
    completed: List[str] = field(default_factory=list)
    retries: int = 0
    stage_attempts: Dict[str, int] = field(default_factory=dict)
    aborted: bool = False
    rolled_back: bool = False
    #: Pre-flight verdict for the clone's target placement ("" when the
    #: health plane is off or the target is inproc/ungated).
    health_verdict: str = ""

    @property
    def delay_to_point(self) -> float:
        """Time from signal to state divulged — dominated by how long the
        module takes to reach its next reconfiguration point."""
        return self.t_divulged - self.t_signal

    @property
    def total_time(self) -> float:
        return self.t_done - self.t_signal

    def describe(self) -> str:
        if self.aborted:
            return (
                f"aborted {self.kind} of {self.instance!r} "
                f"[{self.recon_id or '-'}] at stage "
                f"{self.stage!r} (rolled_back={self.rolled_back}, "
                f"retries={self.retries})"
            )
        return (
            f"{self.kind} of {self.instance!r}: "
            f"{self.old_machine} -> {self.new_machine}, "
            f"packet {self.packet_bytes}B, stack depth {self.stack_depth}, "
            f"delay-to-point {self.delay_to_point * 1000:.1f}ms, "
            f"total {self.total_time * 1000:.1f}ms"
        )


def prepare_rebind_batch(
    bus: SoftwareBus,
    old: ObjectCapability,
    new_instance: str,
    preserve_queues: bool = True,
) -> BindBatch:
    """Prepare the bind edits that move every binding from old to new.

    Equivalent to Figure 5's per-interface loops over ``struct_ifdest``
    and ``struct_ifsources`` (bidirectional interfaces appear in both, so
    the paper's two loops touch some bindings twice; we deduplicate).
    Queue moves (``cq``) and removals (``rmq``) are appended for every
    interface that can receive, so no queued message is lost.

    This is the batch form of the script, for a ``new`` instance with a
    name of its own; :meth:`ReconfigurationCoordinator.replace` does not
    edit bindings at all (:meth:`~repro.bus.bus.SoftwareBus.hand_over`).
    """
    batch = BindBatch()
    seen: Set[BindingSpec] = set()
    for binding in bus.bindings_of(old.instance):
        if binding in seen:
            continue
        seen.add(binding)
        (a_inst, a_if), (b_inst, b_if) = binding.endpoints()
        batch.delete((a_inst, a_if), (b_inst, b_if))
        new_a = new_instance if a_inst == old.instance else a_inst
        new_b = new_instance if b_inst == old.instance else b_inst
        batch.add((new_a, a_if), (new_b, b_if))
    module = bus.get_module(old.instance)
    for decl in old.spec.interfaces:
        if module.has_queue(decl.name):
            if preserve_queues:
                batch.copy_queue(
                    (old.instance, decl.name), (new_instance, decl.name)
                )
            batch.remove_queue((old.instance, decl.name))
    return batch


class ReconfigurationCoordinator:
    """Executes replacement-shaped reconfigurations against one bus."""

    def __init__(self, bus: SoftwareBus, retry: Optional[RetryPolicy] = None):
        self.bus = bus
        self.retry = retry or RetryPolicy()
        self.history: List[ReconfigurationReport] = []

    # -- stage helpers -----------------------------------------------------

    def _attempt(
        self, report: ReconfigurationReport, stage: str, op: Callable[[], None]
    ) -> None:
        """Run one stage operation, retrying transient failures.

        Each attempt gets its own telemetry span (attribute ``attempt``),
        and the per-stage attempt count lands in
        ``report.stage_attempts`` so an abort can say how hard it tried.
        """
        delays = self.retry.delays()
        for attempt in range(self.retry.attempts):
            report.stage_attempts[stage] = attempt + 1
            try:
                with telemetry.span(
                    f"stage.{stage}", instance=report.instance, attempt=attempt + 1
                ):
                    op()
                return
            except _TRANSIENT:
                report.retries += 1
                telemetry.count("reconfig.retries", key=stage)
                if attempt >= self.retry.attempts - 1:
                    raise
                time.sleep(delays[attempt])

    def _await_restored(self, clone: ModuleInstance, timeout: float) -> None:
        """Health check: block until the clone's ``end_restore`` ran.

        A clone that dies decoding or rebuilding the captured stack is
        detected here, *before* the old module is removed — a crashed
        restore aborts the transaction instead of completing it.
        """
        deadline = time.monotonic() + timeout
        while True:
            if clone.mh.restored.wait(0.005):
                return
            clone.check_alive()  # raises ModuleCrashedError on a dead clone
            if clone.state in (ModuleState.STOPPED, ModuleState.REMOVED):
                raise ReconfigError(
                    f"clone {clone.name!r} exited ({clone.state.value}) "
                    f"before completing restoration"
                )
            if time.monotonic() >= deadline:
                raise ReconfigTimeoutError(
                    f"clone {clone.name!r} did not complete restoration "
                    f"within {timeout}s"
                )

    # -- rollback ----------------------------------------------------------

    def _rollback(
        self,
        report: ReconfigurationReport,
        instance: str,
        old_module: ModuleInstance,
        clone: Optional[ModuleInstance],
        handoff: Optional[Handoff],
    ) -> None:
        """Put the application back on the old module.

        Order matters: withdraw the signal first (new captures stop, and
        a capture already under way divulges to nobody),
        hand the name back if the clone had it (new deliveries route to
        the old module again, and whatever reached the clone's queues —
        every ``cq``-copied message plus all post-rebind arrivals —
        drains back to the front of the old module's queues, so nothing
        is lost or duplicated), tear the clone down, and finally revive
        the old module from the state it divulged if its thread already
        exited divulging.  The binding table was never edited, so it is
        the sequence it was.
        """
        bus = self.bus
        old_module.mh.abandon_divulge()
        if handoff is None:
            handoff = old_module.mh.outgoing
        if clone is not None:
            if bus.get_module(instance) is clone:
                bus.hand_back(clone, old_module)
            bus.discard_module(clone)
        if handoff is not None and not (
            old_module.state is ModuleState.RUNNING
            and old_module.thread is not None
            and old_module.thread.is_alive()
        ):
            old_module.revive(handoff)
            bus.trace.append(f"revive {instance} from captured state")
        report.rolled_back = True

    def _abort(
        self,
        report: ReconfigurationReport,
        cause: BaseException,
        rolled_back: bool = True,
    ) -> BaseException:
        report.aborted = True
        report.rolled_back = rolled_back
        report.t_done = time.monotonic()
        self.history.append(report)
        self.bus.trace.append(report.describe())
        attempts = report.stage_attempts.get(report.stage, 1)
        telemetry.count("reconfig.aborts")
        telemetry.event(
            "reconfig.abort",
            recon=report.recon_id or None,
            stage=report.stage,
            cause=type(cause).__name__,
            rolled_back=rolled_back,
            attempts=attempts,
        )
        cls = (
            ReconfigurationTimeout
            if isinstance(cause, ReconfigTimeoutError)
            else ReconfigurationAborted
        )
        return cls(
            stage=report.stage,
            cause=cause,
            report=report,
            rolled_back=rolled_back,
            recon_id=report.recon_id,
            attempts=attempts,
        )

    # -- the transaction ---------------------------------------------------

    def replace(
        self,
        instance: str,
        new_spec: Optional[ModuleSpec] = None,
        machine: Optional[str] = None,
        timeout: float = 10.0,
        kind: str = "replace",
        preserve_queues: bool = True,
        placement: Optional[str] = None,
        force: bool = False,
    ) -> ReconfigurationReport:
        """Replace ``instance`` with a (possibly relocated, possibly new
        version) clone that resumes from the captured state.

        The clone is built under ``instance`` but answers to nothing until
        the rebind stage hands the name over to it; bindings, and a
        directed send to the name, then reach the clone.
        ``preserve_queues=False`` omits the ``cq`` commands — an ablation
        showing why Figure 5 copies queues (messages queued at the old
        module would otherwise be lost).

        ``placement`` picks where the clone executes (see
        :meth:`SoftwareBus.add_module`); by default it inherits the old
        module's placement, so a worker-hosted module is replaced in
        place — the captured state packet travels over the transport to
        the clone, and the hand-over reaches the affected workers as
        route updates.  Passing a different placement migrates the
        module between processes as part of the replacement.

        All-or-nothing: any failure before the clone proves healthy
        aborts the transaction, rolls the bus back, and raises
        :class:`ReconfigurationAborted`; validation failures of a *new*
        version (a rejected upgrade) are detected before any signal goes
        out and keep their original exception type.
        """
        old = obj_cap(self.bus, instance)
        if not old.spec.is_reconfigurable:
            raise ReconfigError(
                f"module {old.spec.name!r} declares no reconfiguration "
                f"points; it cannot participate (use module-level "
                f"reconfiguration instead)"
            )
        if placement is None:
            placement = getattr(
                self.bus.get_module(instance), "placement", None
            )
        # Pre-flight health gate (when the health plane is on): refuse to
        # target a host the failure detector distrusts.  Runs before any
        # signal goes out, so a refusal leaves the application untouched
        # — like a rejected new version, it keeps a plain exception type
        # rather than a transactional abort.
        verdict = self.bus.health_verdict(placement)
        if verdict in ("suspect", "dead") and not force:
            telemetry.count("reconfig.health_refusals")
            telemetry.event(
                "reconfig.health_refused",
                instance=instance,
                placement=placement,
                verdict=verdict,
            )
            raise ReconfigError(
                f"pre-flight health gate: clone placement {placement!r} "
                f"is {verdict}; pass force=True to target it anyway"
            )
        target_machine = machine or old.machine
        spec = (new_spec or old.spec).with_attributes(
            machine=target_machine, status="clone"
        )
        report = ReconfigurationReport(
            instance=instance,
            kind=kind,
            old_machine=old.machine,
            new_machine=target_machine,
            recon_id=telemetry.next_reconfiguration_id(),
            health_verdict=verdict or "",
        )
        # The root span is "ambient": spans opened by other threads with
        # no local parent — the old module's capture/encode, the clone's
        # decode/restore — attach under it, and remote hosts adopt it
        # (share_trace_context), so the whole replacement renders as one
        # tree keyed by report.recon_id.
        try:
            with telemetry.span(
                "reconfig.replace",
                recon=report.recon_id,
                ambient=True,
                instance=instance,
                kind=kind,
                old_machine=old.machine,
                new_machine=target_machine,
            ) as root:
                self.bus.share_trace_context()
                self._replace_txn(
                    spec,
                    report,
                    new_spec,
                    timeout,
                    preserve_queues,
                    placement,
                )
                root.set(
                    packet_bytes=report.packet_bytes,
                    stack_depth=report.stack_depth,
                    retries=report.retries,
                )
        finally:
            # Commit or rollback: pull the remote halves of the span
            # tree home and drop adopted trace contexts, so the merged
            # rc-NNNN tree is complete the moment replace() returns.
            self.bus.flush_remote_telemetry()
        return report

    def _replace_txn(
        self,
        spec: ModuleSpec,
        report: ReconfigurationReport,
        new_spec: Optional[ModuleSpec],
        timeout: float,
        preserve_queues: bool,
        placement: Optional[str] = None,
    ) -> None:
        instance = report.instance
        target_machine = report.new_machine
        clone: Optional[ModuleInstance] = None

        def build_clone() -> None:
            nonlocal clone
            faults.fire_hard("coordinator.clone_build")
            clone = self.bus.build_clone(
                spec, instance, machine=target_machine, placement=placement
            )

        # A *new* version can be rejected by the transformer, and the
        # paper's all-or-nothing rule says a bad version must leave the
        # application untouched — so it is loaded before any signal goes
        # out.  A same-version clone (move/replicate) uses a spec the
        # original already proved loadable, so the signal goes out first
        # and the clone is built inside the wait-for-point window, which
        # otherwise is pure dead time (the dominant delay_to_point term).
        if new_spec is not None:
            report.stage = "clone_build"
            try:
                self._attempt(report, "clone_build", build_clone)
            except _TRANSIENT as exc:
                # Nothing signalled, nothing to roll back.
                raise self._abort(report, exc) from exc
            report.completed.append("clone_build")

        report.stage = "signal"
        report.stage_attempts["signal"] = 1
        report.t_signal = time.monotonic()
        old_module = self.bus.get_module(instance)
        with telemetry.span("stage.signal", instance=instance):
            self.bus.signal_reconfig(instance)
        report.completed.append("signal")

        handoff: Optional[Handoff] = None
        try:
            if clone is None:
                report.stage = "clone_build"
                self._attempt(report, "clone_build", build_clone)
                report.completed.append("clone_build")

            report.stage = "wait_point"
            report.stage_attempts["wait_point"] = 1
            with telemetry.span("stage.wait_point", instance=instance) as wait_span:
                handoff = self.bus.await_divulge(old_module, timeout)
                report.t_divulged = time.monotonic()
                clone.mh.incoming = handoff
                self.bus.trace.append(
                    f"objstate_move {instance} -> {clone.name} on "
                    f"{clone.host.name} ({len(handoff.packet)} bytes)"
                )
                wait_span.set(packet_bytes=len(handoff.packet))
            report.completed.append("wait_point")
            report.packet_bytes = len(handoff.packet)

            report.stage = "rebind"

            def rebind() -> None:
                faults.fire_hard("coordinator.rebind")
                moved = self.bus.hand_over(
                    old_module, clone, preserve_queues=preserve_queues
                )
                report.queued_copied = {n: count for n, count in moved.items() if count}

            self._attempt(report, "rebind", rebind)
            report.completed.append("rebind")
            report.t_rebound = time.monotonic()

            report.stage = "start_clone"

            def start_clone() -> None:
                faults.fire_hard("coordinator.start_clone")
                self.bus.start_module(instance)

            self._attempt(report, "start_clone", start_clone)
            report.completed.append("start_clone")
            report.t_started = time.monotonic()

            report.stage = "health_check"
            report.stage_attempts["health_check"] = 1
            with telemetry.span("stage.health_check", instance=instance):
                self._await_restored(clone, timeout)
            report.completed.append("health_check")
        except Exception as exc:
            rolled_back = True
            try:
                with telemetry.span("stage.rollback", instance=instance):
                    self._rollback(report, instance, old_module, clone, handoff)
                telemetry.count("reconfig.rollbacks")
            except Exception:
                rolled_back = False
            raise self._abort(report, exc, rolled_back=rolled_back) from exc

        # --- point of no return: the clone restored and holds the state ---
        report.stage = "commit"
        report.stage_attempts["commit"] = 1
        with telemetry.span("stage.commit", instance=instance):
            self.bus.discard_module(old_module)
        report.completed.append("commit")
        report.t_done = time.monotonic()
        telemetry.count("reconfig.commits")
        # Reporting detail: the divulging module counted the frames and
        # sent the count with the state.
        report.stack_depth = handoff.frames
        self.history.append(report)
        self.bus.trace.append(report.describe())

    def replicate(
        self,
        instance: str,
        replica_instance: str,
        machine: Optional[str] = None,
        timeout: float = 10.0,
    ) -> Tuple[ReconfigurationReport, str]:
        """Replicate a module: the captured state seeds *two* clones.

        One clone takes over the original's name and bindings (the
        original died divulging its state); the second starts alongside
        it with duplicated bindings, on ``machine`` if given.  A failed
        replace aborts (and rolls back) before the replica is created,
        so replication inherits the replace transaction's all-or-nothing
        guarantee.
        """
        old = obj_cap(self.bus, instance)
        original_bindings = self.bus.bindings_of(instance)

        report = self.replace(instance, timeout=timeout, kind="replicate")

        replica_machine = machine or old.machine
        replica_span = telemetry.span(
            "reconfig.replicate", recon=report.recon_id, instance=replica_instance
        )
        spec = old.spec.with_attributes(machine=replica_machine, status="clone")
        replica = self.bus.add_module(
            spec,
            instance=replica_instance,
            machine=replica_machine,
            status="clone",
        )
        handoff = self.bus.get_module(instance).mh.incoming
        if handoff is None:  # pragma: no cover - replace() always sets it
            raise ReconfigError("replacement clone lost its state packet")
        replica.mh.incoming = handoff
        for binding in original_bindings:
            (a_inst, a_if), (b_inst, b_if) = binding.endpoints()
            new_a = replica_instance if a_inst == instance else a_inst
            new_b = replica_instance if b_inst == instance else b_inst
            self.bus.add_binding(
                BindingSpec(
                    from_instance=new_a,
                    from_interface=a_if,
                    to_instance=new_b,
                    to_interface=b_if,
                )
            )
        self.bus.start_module(replica_instance)
        replica_span.close()
        return report, replica_instance
