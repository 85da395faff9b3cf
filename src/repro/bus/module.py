"""Module instances: a namespace, a thread of control, and a bus port.

"A module is a software process with its own memory and its own thread
of control."  Here each instance executes in its own Python namespace
(its memory) on its own thread.  The instance's :class:`ModulePort`
bridges the module's ``mh.read``/``mh.write``/``mh.query_ifmsgs`` calls
to the bus, and its per-interface :class:`MessageQueue`\\ s hold
asynchronously delivered messages.

A reconfigurable module (its spec declares reconfiguration points) is
passed through :func:`repro.core.prepare_module` at load time — the
paper prepares modules "when the original program is compiled", i.e.
ahead of any reconfiguration request.  Load also compiles (once per
module text) and builds the instance's namespace, so ``start()`` only
spawns the thread: nothing is compiled while a replacement has the
application waiting.
"""

from __future__ import annotations

import enum
import threading
from functools import lru_cache
from types import CodeType
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.bus.message import Message
from repro.bus.queues import MessageQueue, discarding
from repro.bus.spec import ModuleSpec
from repro.core.naming import module_filename
from repro.errors import (
    ModuleCrashedError,
    ModuleLifecycleError,
    UnknownInterfaceError,
)
from repro.runtime import faults, telemetry
from repro.runtime.mh import MH, ModuleStop, SleepPolicy
from repro.runtime.refs import Ref
from repro.state.machine import MachineProfile

if TYPE_CHECKING:
    from repro.core.transformer import TransformResult
    from repro.state.frames import Handoff


class ModuleState(enum.Enum):
    CREATED = "created"
    LOADED = "loaded"
    RUNNING = "running"
    DIVULGED = "divulged"  # main returned after a state capture
    STOPPED = "stopped"
    CRASHED = "crashed"
    REMOVED = "removed"


class ModulePort:
    """The side of the bus a module's MH runtime talks to.

    A write resolves its interface's sending side once, on the
    interface's first write: the declared send format, kept per
    interface.  An interface that cannot send is never kept, so every
    write on it is refused afresh.  The values list is the caller's
    (``MH.write`` passes a fresh one) and goes into the message as is.
    """

    def __init__(self, instance: "ModuleInstance"):
        self.instance = instance
        #: interface -> its declared send format, for each interface
        #: written so far.
        self._send_fmts: Dict[str, str] = {}

    def _resolve_send_fmt(self, interface: str) -> str:
        decl = self.instance.spec.interface(interface)
        if not decl.direction.can_send:
            raise UnknownInterfaceError(
                f"{self.instance.name}: interface {interface!r} "
                f"({decl.role.value}) cannot send"
            )
        fmt = self._send_fmts[interface] = decl.send_fmt()
        return fmt

    def write(self, interface: str, fmt: str, values: List[object]) -> None:
        declared = self._send_fmts.get(interface)
        if declared is None:
            declared = self._resolve_send_fmt(interface)
        name = self.instance.name
        self.instance.bus.route(
            name,
            interface,
            Message(values, fmt or declared, name, interface).validated(),
        )

    def write_to(
        self, interface: str, destination: str, fmt: str, values: List[object]
    ) -> None:
        """Directed delivery to one bound peer (server replies)."""
        declared = self._send_fmts.get(interface)
        if declared is None:
            declared = self._resolve_send_fmt(interface)
        name = self.instance.name
        self.instance.bus.route_to(
            name,
            interface,
            destination,
            Message(values, fmt or declared, name, interface).validated(),
        )

    def read(
        self,
        interface: str,
        timeout: Optional[float],
        stop_event: threading.Event,
    ) -> List[object]:
        message = self.instance.queue(interface).get(timeout, stop_event)
        return list(message.values)

    def read_msg(
        self,
        interface: str,
        timeout: Optional[float],
        stop_event: threading.Event,
    ):
        message = self.instance.queue(interface).get(timeout, stop_event)
        return list(message.values), message.source_instance

    def query_ifmsgs(self, interface: str) -> bool:
        return self.instance.queue(interface).peek_count() > 0


@lru_cache(maxsize=128)
def _prepare_module_cached(
    source: str,
    module_name: str,
    declared_points: Tuple[str, ...],
    prune_dead_captures: bool,
) -> TransformResult:
    """Memoized :func:`prepare_module` keyed by everything that shapes it.

    The transformation is deterministic in these four inputs and its
    result is never mutated after construction, so instances of the same
    module share one :class:`TransformResult` — code object included.
    The payoff is on the reconfiguration critical path: a replacement
    clone is prepared from the exact source/points/pruning of the
    original, so its whole AST pipeline *and* its compile collapse to a
    cache hit.  Transform *errors* are not cached (``lru_cache`` re-raises
    by re-running), so a rejected new version stays rejected with a fresh
    traceback every time.

    The transformer is resolved here rather than at the top of this file,
    which every machine daemon imports: a host receives
    prepared text and never runs it.  In the bus process
    :mod:`repro.bus.bus` has already imported it, so this is a
    ``sys.modules`` lookup on a cache miss, never a first-use import.
    """
    from repro.core.transformer import prepare_module

    result = prepare_module(
        source,
        module_name=module_name,
        declared_points=list(declared_points),
        prune_dead_captures=prune_dead_captures,
    )
    telemetry.count("module.compiled", key=module_name)
    return result


@lru_cache(maxsize=128)
def _compile_cached(source: str, module_name: str) -> CodeType:
    """The code object of a module text that needs no preparation.

    Serves non-reconfigurable modules and the already-prepared text a
    remote host receives.  Code objects are immutable, so every instance
    of the text executes the same one — each into its own namespace.
    """
    code = compile(source, module_filename(module_name), "exec")
    telemetry.count("module.compiled", key=module_name)
    return code


def resolve_source(spec: ModuleSpec) -> str:
    """The module's raw source text (inline takes precedence over path)."""
    source = spec.inline_source
    if not source:
        if not spec.source:
            raise ModuleLifecycleError(
                f"{spec.name}: module spec has neither inline source nor "
                f"a source path"
            )
        with open(spec.source, "r", encoding="utf-8") as handle:
            source = handle.read()
    return source


def _prepared(spec: ModuleSpec, source: str) -> TransformResult:
    """The (memoized) preparation of a reconfigurable ``spec``."""
    prune = spec.attributes.get("prune_dead_captures", "").lower() in (
        "true",
        "yes",
        "1",
    )
    return _prepare_module_cached(
        source, spec.name, tuple(spec.reconfig_points), prune
    )


def prepared_source_for(spec: ModuleSpec) -> str:
    """Executable (transformed if reconfigurable) source for ``spec``.

    The bus-side half of remote placement: a module hosted in a worker
    process or machine daemon is prepared *here*, ahead of shipping, so
    remote hosts never run the transformer (the paper prepares modules
    "when the original program is compiled").  Shares the memoized
    transform cache with :meth:`ModuleInstance.load`, so placing the
    same module both inproc and in a worker costs one transformation.
    """
    source = resolve_source(spec)
    if spec.is_reconfigurable:
        return _prepared(spec, source).source
    return source


class ModuleInstance:
    """One executing (or executable) module on a host, whose profile is
    ``host``."""

    def __init__(
        self,
        name: str,
        spec: ModuleSpec,
        host: MachineProfile,
        bus,
        status: str = "original",
        sleep_policy: Optional[SleepPolicy] = None,
    ):
        self.name = name
        self.spec = spec
        self.host = host
        self.bus = bus
        self.state = ModuleState.CREATED
        self.mh = MH(
            module=spec.name,
            machine=host,
            status=status,
            sleep_policy=sleep_policy,
        )
        self.mh.attach_port(ModulePort(self))
        self.mh.config.update(spec.attributes)
        self.transform: Optional[TransformResult] = None
        self.namespace: Dict[str, object] = {}
        self.thread: Optional[threading.Thread] = None
        self.crash: Optional[BaseException] = None
        # Called (with this instance) whenever the run loop reaches a
        # terminal state; remote hosts hook it to push lifecycle events
        # back to the bus process so crash detection works across the
        # process boundary without polling.
        self.lifecycle_hook: Optional[Callable[["ModuleInstance"], None]] = None
        self._queues: Dict[str, MessageQueue] = {}
        for decl in spec.interfaces:
            if decl.direction.can_receive:
                self._queues[decl.name] = MessageQueue(f"{name}.{decl.name}")

    # -- queues --------------------------------------------------------------

    def queue(self, interface: str) -> MessageQueue:
        try:
            return self._queues[interface]
        except KeyError:
            decl = self.spec.interface(interface)  # raises if undeclared
            raise UnknownInterfaceError(
                f"{self.name}: interface {interface!r} ({decl.role.value}) "
                f"has no receive queue"
            ) from None

    def has_queue(self, interface: str) -> bool:
        return interface in self._queues

    def deliver(self, interface: str, message: Message) -> None:
        self.queue(interface).put(message)

    def queued_counts(self) -> Dict[str, int]:
        return {name: q.peek_count() for name, q in self._queues.items()}

    def unseal_queues(self, interface: Optional[str] = None) -> None:
        """Reopen the queues a move sealed (only ``interface``'s, if given)."""
        for name, queue in self._queues.items():
            if not interface or name == interface:
                queue.unseal()

    def seal_queues(
        self, names: List[str], preserve: bool, forward_to: Callable
    ) -> Iterator[Tuple[str, List[Message]]]:
        """Seal each queue of ``names`` for a queue move (Figure 5's ``cq``
        + ``rmq``), yielding ``(name, messages it held)`` before the next
        is sealed.  With ``preserve`` a later put goes to
        ``forward_to(name)`` (``None`` closes the queue); without, it and
        the messages are discarded and counted, and a queue a ``cq``
        already sealed keeps its forward and yields none."""
        for name in names:
            queue = self._queues[name]
            if preserve:
                yield name, queue.seal(forward_to(name))
            elif queue.sealed:
                yield name, []
            else:
                discard = discarding(f"{self.name}.{name}")
                messages = queue.seal(discard)
                if messages:
                    discard(messages)
                yield name, messages

    # -- lifecycle -----------------------------------------------------------

    def load(self) -> None:
        """Prepare the module and build this instance's namespace.

        Everything a start needs except the thread happens here, ahead
        of any reconfiguration request: the source is resolved, prepared
        if reconfigurable and compiled — once per module text per
        process, every later instance of the text hits the caches — and
        the code object is executed into a fresh namespace of this
        instance's own.  The module's top-level statements therefore run
        now, on the loading thread.
        """
        if self.state not in (ModuleState.CREATED,):
            raise ModuleLifecycleError(f"{self.name}: cannot load in {self.state}")
        faults.fire_hard("module.load")
        with telemetry.span(
            "module.load", instance=self.name, module=self.spec.name
        ):
            source = resolve_source(self.spec)
            if self.spec.is_reconfigurable:
                self.transform = _prepared(self.spec, source)
                source = self.transform.source
                code = self.transform.code
            else:
                code = _compile_cached(source, self.spec.name)
            self.executable_source = source
            namespace = {"mh": self.mh, "Ref": Ref, "__name__": self.spec.name}
            exec(code, namespace)
            self.namespace = namespace
        self.state = ModuleState.LOADED

    def start(self) -> None:
        """Spawn the module's thread of control running ``main()``."""
        if self.state is ModuleState.CREATED:
            self.load()
        if self.state is not ModuleState.LOADED:
            raise ModuleLifecycleError(f"{self.name}: cannot start in {self.state}")
        main = self.namespace.get("main")
        if not callable(main):
            raise ModuleLifecycleError(
                f"{self.name}: module source defines no main() procedure"
            )
        self.state = ModuleState.RUNNING
        self.thread = threading.Thread(
            target=self._run, name=f"module-{self.name}", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        try:
            while True:
                try:
                    self.namespace["main"]()
                except ModuleStop:
                    self.state = ModuleState.STOPPED
                    return
                except BaseException as exc:  # noqa: BLE001 - report, don't die silently
                    self.crash = exc
                    self.state = ModuleState.CRASHED
                    telemetry.event(
                        "module.crash", instance=self.name, cause=type(exc).__name__
                    )
                    return
                # A withdrawn reconfiguration can race the capture: the module
                # divulges (or suppresses) after the coordinator cancelled the
                # move.  Nobody will consume the packet, so resume from it —
                # the module restores in place and keeps serving.
                abandoned = self.mh.reclaim_abandoned_divulge()
                if abandoned is not None:
                    self.mh.prepare_revival(abandoned)
                    continue
                if self.mh.divulged.is_set():
                    self.state = ModuleState.DIVULGED
                else:
                    self.state = ModuleState.STOPPED
                return
        finally:
            if self.mh.outgoing is None:
                # Ended without divulging: a replace waiting for the
                # point hears why now rather than at its deadline.
                if self.state is ModuleState.CRASHED:
                    failure: BaseException = ModuleCrashedError(self.name, self.crash)
                else:
                    failure = ModuleLifecycleError(
                        f"{self.name}: {self.state.value} before reaching a "
                        f"reconfiguration point"
                    )
                self.mh.settle_divulge(failure)
            hook = self.lifecycle_hook
            if hook is not None:
                try:
                    hook(self)
                except Exception:  # noqa: BLE001 - hooks must not kill the thread
                    pass

    def request_stop(self) -> None:
        """Ask the thread of control to exit, without waiting for it.

        Sets the stop flag, then wakes the module's own queues, so a read
        blocked on an empty one sees the flag at once.
        """
        self.mh.stop()
        for queue in self._queues.values():
            queue.wake()

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the thread of control to exit and wait for it."""
        self.request_stop()
        self.join(timeout)
        if self.state is ModuleState.RUNNING:
            self.state = ModuleState.STOPPED

    def remove(self, timeout: float = 5.0) -> None:
        """Stop the module and release it for good (the ``del`` half of
        ``mh_chg_obj``, wherever the module runs)."""
        self.stop(timeout)
        self.state = ModuleState.REMOVED
        self.retire()

    def join(self, timeout: float = 5.0) -> None:
        if self.thread is not None:
            self.thread.join(timeout)

    def revive(
        self, packet: Union[Handoff, bytes, None] = None, timeout: float = 5.0
    ) -> None:
        """Resume a divulged/stopped module from a captured state.

        The rollback half of an aborted replacement: the old module's
        thread has exited (its state went out with the divulge), but its
        queues and bindings are untouched, so restarting it as a clone
        of *itself* — same namespace, fresh thread, state restored from
        what it divulged (its kept state, or ``packet``) — puts the
        application back exactly where the capture left it.
        """
        pkt = packet if packet is not None else self.mh.outgoing
        if pkt is None:
            raise ModuleLifecycleError(
                f"{self.name}: no captured state to revive from"
            )
        if self.thread is not None and self.thread.is_alive():
            if self.state is ModuleState.RUNNING:
                return  # already self-revived on its own thread
            self.thread.join(timeout)
            if self.thread.is_alive():
                raise ModuleLifecycleError(
                    f"{self.name}: cannot revive while its thread is alive"
                )
        if self.thread is None:
            raise ModuleLifecycleError(f"{self.name}: never started; cannot revive")
        self.mh.prepare_revival(pkt)
        self.crash = None
        self.state = ModuleState.RUNNING
        telemetry.event(
            "module.revive", instance=self.name, bytes=len(self.mh.incoming.packet)
        )
        self.thread = threading.Thread(
            target=self._run, name=f"module-{self.name}", daemon=True
        )
        self.thread.start()

    def retire(self) -> None:
        """Cut the reference cycles of a removed instance.

        A module is tied into cycles with its ``mh``: the port points back
        at the instance, a host's ``on_divulge_settled``/``on_restored``
        hooks and the lifecycle hook close over it, and the namespace and its
        functions' ``__globals__`` point at each other.  Cut here, the
        instance, its heap and its state packets are freed by reference
        counting the moment the last caller drops it, not at whichever
        gen-2 collection comes next.  Called by :meth:`remove`, never by
        :meth:`stop` (a revival reuses the namespace), and does nothing
        until the thread has exited: a thread that outlived its stop
        still runs in the namespace.
        """
        if self.thread is not None and self.thread.is_alive():
            return
        self.mh.on_divulge_settled = None
        self.mh.on_restored = None
        self.mh.attach_port(None)
        self.lifecycle_hook = None
        self.namespace.clear()

    def check_alive(self) -> None:
        """Raise the module's crash, if it crashed."""
        if self.state is ModuleState.CRASHED and self.crash is not None:
            raise ModuleCrashedError(self.name, self.crash)

    def describe(self) -> str:
        return (
            f"{self.name} [{self.spec.name}] on {self.host.name} "
            f"({self.state.value})"
        )
