"""Parameterized reconfiguration scripts (paper Section 2.2, Figure 5).

"This reconfiguration script is easily parameterized to accept a module
name and attributes.  The parameterized reconfiguration script could be
used to replace a module in any application, provided the module had
been prepared to participate during reconfiguration."

Each function below is such a parameterized script.  They share the
:class:`~repro.reconfig.coordinator.ReconfigurationCoordinator`
orchestration; :func:`figure5_replacement_script` additionally provides
a line-by-line rendition of the paper's Figure 5 against the primitives
API, used by the FIG5 benchmark and example to demonstrate the exact
published flow.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bus.bus import SoftwareBus
from repro.bus.spec import ModuleSpec
from repro.reconfig.coordinator import (
    ReconfigurationCoordinator,
    ReconfigurationReport,
)
from repro.reconfig.primitives import (
    bind_cap,
    chg_obj,
    edit_bind,
    obj_cap,
    objstate_move,
    rebind,
    struct_ifdest,
    struct_ifsources,
    struct_objnames,
)


def replace_module(
    bus: SoftwareBus,
    instance: str,
    machine: Optional[str] = None,
    new_spec: Optional[ModuleSpec] = None,
    timeout: float = 10.0,
) -> ReconfigurationReport:
    """Replace a module with a state-carrying clone (Figure 5)."""
    return ReconfigurationCoordinator(bus).replace(
        instance, new_spec=new_spec, machine=machine, timeout=timeout
    )


def move_module(
    bus: SoftwareBus, instance: str, machine: str, timeout: float = 10.0
) -> ReconfigurationReport:
    """Move a module to another machine while the application executes.

    This is the Monitor example's reconfiguration (Figure 1): replacement
    with the same specification and a new MACHINE attribute.
    """
    return ReconfigurationCoordinator(bus).replace(
        instance, machine=machine, timeout=timeout, kind="move"
    )


def upgrade_module(
    bus: SoftwareBus,
    instance: str,
    new_source: str,
    machine: Optional[str] = None,
    timeout: float = 10.0,
) -> ReconfigurationReport:
    """Replace a module with a *new version* (software maintenance).

    The new source must preserve the old version's reconfiguration graph
    shape at the captured locations (same procedures on main-to-point
    paths, same frame variables); a mismatch is detected at restore time
    and reported, leaving the clone failed and diagnosable rather than
    silently corrupt.
    """
    old = obj_cap(bus, instance)
    spec = old.spec.with_attributes()
    spec.inline_source = new_source
    spec.source = ""
    return ReconfigurationCoordinator(bus).replace(
        instance,
        new_spec=spec,
        machine=machine,
        timeout=timeout,
        kind="upgrade",
    )


def replicate_module(
    bus: SoftwareBus,
    instance: str,
    replica_instance: str,
    machine: Optional[str] = None,
    timeout: float = 10.0,
) -> Tuple[ReconfigurationReport, str]:
    """Replicate a module: one captured state seeds two running clones."""
    return ReconfigurationCoordinator(bus).replicate(
        instance, replica_instance, machine=machine, timeout=timeout
    )


def attach_module(
    bus: SoftwareBus,
    spec: ModuleSpec,
    instance: str,
    machine: str,
    bindings=None,
    attributes=None,
) -> None:
    """Grow the application: add a module and its bindings, then start it.

    The paper's basic reconfiguration activities include "adding ... a
    module from the application" — this script packages the primitive
    sequence (add module, add bindings, start) so growth is one call.
    Bindings are installed before the module starts, so its first writes
    already have somewhere to go.
    """
    bus.add_module(spec, instance=instance, machine=machine, attributes=attributes)
    for binding in bindings or []:
        bus.add_binding(binding)
    bus.start_module(instance)


def detach_module(bus: SoftwareBus, instance: str, timeout: float = 5.0) -> int:
    """Shrink the application: unbind and remove a module.

    Returns the number of bindings removed.  The module is stopped at an
    arbitrary execution point — detachment (unlike replacement) carries
    no state anywhere, so it needs no participation.
    """
    bindings = bus.bindings_of(instance)
    for binding in bindings:
        bus.remove_binding(binding)
    bus.remove_module(instance, timeout=timeout)
    return len(bindings)


def figure5_replacement_script(
    bus: SoftwareBus,
    module_name: str,
    machine: str,
    timeout: float = 10.0,
) -> str:
    """A line-by-line rendition of the paper's Figure 5 script.

    Returns the new instance's name (``<module>.new``: the paper's script
    leaves ``new`` as a distinct object; the coordinator instead builds
    its clone under the module's own name and hands the name over).
    """
    # access old module
    old = obj_cap(bus, module_name)

    # prepare binding commands
    b = bind_cap()
    new_name = f"{module_name}.new"
    interfaces = struct_objnames(bus, old)
    seen = set()
    for interface in interfaces:
        # rebind outgoing
        for dest in struct_ifdest(bus, old, interface):
            key = frozenset({(module_name, interface), dest})
            if key in seen:
                continue
            seen.add(key)
            edit_bind(b, "del", (module_name, interface), dest)
            edit_bind(b, "add", (new_name, interface), dest)
        # rebind incoming
        for source in struct_ifsources(bus, old, interface):
            key = frozenset({(module_name, interface), source})
            if key in seen:
                continue
            seen.add(key)
            edit_bind(b, "del", source, (module_name, interface))
            edit_bind(b, "add", source, (new_name, interface))
        if bus.get_module(module_name).has_queue(interface):
            edit_bind(b, "cq", (module_name, interface), (new_name, interface))
            edit_bind(b, "rmq", (module_name, interface))

    # create the new module from the old spec + new MACHINE, STATUS=clone
    new_spec = old.spec.with_attributes(machine=machine, status="clone")
    bus.add_module(new_spec, instance=new_name, machine=machine, status="clone")
    new = obj_cap(bus, new_name)

    # get state from old module, send it to new
    objstate_move(bus, old, new, timeout=timeout)
    # apply binding commands
    rebind(bus, b)
    # start up new module
    chg_obj(bus, new, "add")
    # remove old module
    chg_obj(bus, old, "del")
    return new_name
