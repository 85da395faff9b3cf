"""Module-level atomicity: reconfiguration without participation ([5], [9]).

Paper Section 4: "If the reconfiguration is atomic at the module level,
it means that modules execute atomically with respect to reconfiguration;
a module cannot be updated while it is executing.  Platforms providing
this level of support are those that reconfigure without module
participation, such as [9]."

Against our bus this means: the platform may rebind and replace a module
only between executions — there is no way to capture mid-execution state,
so a replacement starts the new module *fresh* and any in-progress
computation (and its partial state) is discarded.  The helpers here make
the cost measurable: :func:`wait_for_quiescence` is how long the platform
must wait for a safe moment, and the report of
:func:`module_level_replace` records the work thrown away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bus.bus import SoftwareBus
from repro.bus.spec import ModuleSpec
from repro.errors import ReconfigTimeoutError
from repro.reconfig.primitives import obj_cap


@dataclass
class ModuleLevelReport:
    """What a participation-free replacement cost."""

    instance: str
    old_machine: str
    new_machine: str
    wait_for_quiescence_s: float = 0.0
    quiescent: bool = False
    discarded_messages: Dict[str, int] = field(default_factory=dict)
    state_carried: bool = False  # always False: that is the point

    def describe(self) -> str:
        mode = "quiescent" if self.quiescent else "forced (state lost)"
        discarded = sum(self.discarded_messages.values())
        return (
            f"module-level replace of {self.instance!r} "
            f"({self.old_machine} -> {self.new_machine}): {mode}, waited "
            f"{self.wait_for_quiescence_s * 1000:.1f}ms, discarded "
            f"{discarded} queued message(s), state carried: no"
        )


def wait_for_quiescence(
    bus: SoftwareBus, instance: str, timeout: float, poll: float = 0.01
) -> bool:
    """Wait until the module looks idle: no queued input on any interface.

    Without participation the platform cannot see inside the module, so
    "idle" is necessarily an external approximation — exactly the
    weakness the paper's module participation removes.
    """
    module = bus.get_module(instance)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(count == 0 for count in module.queued_counts().values()):
            return True
        time.sleep(poll)
    return False


def module_level_replace(
    bus: SoftwareBus,
    instance: str,
    machine: Optional[str] = None,
    new_spec: Optional[ModuleSpec] = None,
    quiescence_timeout: float = 1.0,
    force: bool = True,
) -> ModuleLevelReport:
    """Replace a module with a *fresh* instance, no state carried.

    Waits for quiescence; if the module never quiesces and ``force`` is
    set, the replacement proceeds anyway and in-flight computation is
    lost (with ``force=False`` a non-quiescent module raises, mirroring
    platforms that simply refuse).
    """
    old = obj_cap(bus, instance)
    target_machine = machine or old.machine
    report = ModuleLevelReport(
        instance=instance, old_machine=old.machine, new_machine=target_machine
    )

    started = time.monotonic()
    report.quiescent = wait_for_quiescence(bus, instance, quiescence_timeout)
    report.wait_for_quiescence_s = time.monotonic() - started
    if not report.quiescent and not force:
        raise ReconfigTimeoutError(
            f"{instance!r} never quiesced within {quiescence_timeout}s and "
            f"force is off"
        )

    spec = (new_spec or old.spec).with_attributes(
        machine=target_machine, status="original"
    )
    new = bus.build_clone(
        spec, instance, machine=target_machine, status="original"
    )

    # Stop the old module at an arbitrary execution point: whatever it was
    # doing is gone.  Record what was still queued (it is copied by the
    # hand-over's cq commands, but *in-progress* work has no
    # representation).
    old_module = bus.get_module(instance)
    report.discarded_messages = {
        name: count for name, count in old_module.queued_counts().items() if count
    }
    old_module.stop()

    bus.hand_over(old_module, new)
    bus.start_module(instance)
    bus.discard_module(old_module)
    bus.trace.append(report.describe())
    return report
