"""Batched bind commands (Figure 5's ``mh_edit_bind`` / ``mh_rebind``).

The replacement script first *prepares* all rebinding commands, then —
after the old module has divulged its state — applies them "all at
once".  Four command kinds appear in Figure 5:

=======  =========================================================
``add``  create a binding between two endpoints
``del``  delete a binding
``cq``   move the messages queued at an old endpoint to a new one
``rmq``  remove (discard) the messages queued at an endpoint
=======  =========================================================

``cq`` is a replace's queue move: the old queue is sealed with a forward
to the new one, so it does its ``rmq``'s work as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.bus.bus import SoftwareBus
from repro.bus.spec import BindingSpec
from repro.errors import ReconfigError

Endpoint = Tuple[str, str]  # (instance, interface)

_OPS = ("add", "del", "cq", "rmq")


@dataclass
class BindCommand:
    """One prepared bind edit."""

    op: str
    left: Endpoint
    right: Optional[Endpoint] = None  # absent for rmq
    #: The binding an ``add``/``del`` edits, built when the command is
    #: prepared so that applying it constructs nothing.
    binding: Optional[BindingSpec] = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ReconfigError(f"unknown bind command {self.op!r}")
        if self.op != "rmq" and self.right is None:
            raise ReconfigError(f"bind command {self.op!r} needs two endpoints")
        if self.op in ("add", "del"):
            self.binding = BindingSpec(
                from_instance=self.left[0],
                from_interface=self.left[1],
                to_instance=self.right[0],
                to_interface=self.right[1],
            )

    def describe(self) -> str:
        left = f"{self.left[0]}.{self.left[1]}"
        if self.right is None:
            return f"{self.op} {left}"
        return f"{self.op} {left} <-> {self.right[0]}.{self.right[1]}"


@dataclass
class BindBatch:
    """An ordered batch of bind commands, applied atomically by ``apply``.

    "The rebinding commands are applied all at once, after the old module
    has divulged its state" — while the batch runs, no module thread can
    observe a half-rebound configuration because the bus binding table is
    mutated under its lock command-by-command and the divulged module is
    no longer producing messages.
    """

    commands: List[BindCommand] = field(default_factory=list)
    applied: bool = False

    # -- preparation -----------------------------------------------------------

    def add(self, left: Endpoint, right: Endpoint) -> "BindBatch":
        self.commands.append(BindCommand("add", left, right))
        return self

    def delete(self, left: Endpoint, right: Endpoint) -> "BindBatch":
        self.commands.append(BindCommand("del", left, right))
        return self

    def copy_queue(self, old: Endpoint, new: Endpoint) -> "BindBatch":
        if old[1] != new[1]:
            raise ReconfigError(
                f"cq copies between same-named interfaces; got "
                f"{old[1]!r} -> {new[1]!r}"
            )
        self.commands.append(BindCommand("cq", old, new))
        return self

    def remove_queue(self, endpoint: Endpoint) -> "BindBatch":
        self.commands.append(BindCommand("rmq", endpoint))
        return self

    # -- application -------------------------------------------------------------

    def apply(self, bus: SoftwareBus) -> None:
        if self.applied:
            raise ReconfigError("bind batch already applied")
        # Hold the bus routing lock across the whole batch (the lock is
        # reentrant): no message is routed against a half-rebound binding
        # table — the batch really is applied "all at once".
        lock = getattr(bus, "_lock", None)
        if lock is not None:
            lock.acquire()
        # A cq's move did its rmq's work: that rmq sends nothing.
        moved: Set[Endpoint] = set()
        try:
            for command in self.commands:
                if command.op == "add":
                    bus.add_binding(command.binding)
                elif command.op == "del":
                    bus.remove_binding(command.binding)
                elif command.op == "cq":
                    bus.copy_queue(*command.left, command.right[0])  # type: ignore[index]
                    moved.add(command.left)
                elif command.op == "rmq":
                    if command.left not in moved:
                        bus.remove_queue(*command.left)
        finally:
            if lock is not None:
                lock.release()
        self.applied = True

    def describe(self) -> str:
        return "\n".join(command.describe() for command in self.commands)
