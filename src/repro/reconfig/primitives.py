"""The reconfiguration primitives called by Figure 5's script.

Each function reproduces one ``mh_*`` operation from the paper's
replacement script, against a :class:`~repro.bus.bus.SoftwareBus`:

================================  ======================================
paper (Figure 5)                  here
================================  ======================================
``mh_obj_cap(&old, "compute")``   ``old = obj_cap(bus, "compute")``
``mh_bind_cap(&b)``               ``b = bind_cap()``
``mh_struct_objnames``            ``struct_objnames(bus, old)``
``mh_struct_ifdest``              ``struct_ifdest(bus, old, iface)``
``mh_struct_ifsources``           ``struct_ifsources(bus, old, iface)``
``mh_edit_bind(&b, op, ...)``     ``edit_bind(b, op, left, right)``
``mh_objstate_move(...)``         ``objstate_move(bus, old, new)``
``mh_rebind(&b)``                 ``rebind(bus, b)``
``mh_chg_obj(&new, "add")``       ``chg_obj(bus, new, "add")``
================================  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bus.bus import SoftwareBus
from repro.bus.spec import ModuleSpec
from repro.errors import ReconfigError
from repro.reconfig.bindcmds import BindBatch, Endpoint


@dataclass
class ObjectCapability:
    """A handle on a module instance's *current* specification.

    "This module specification contains the same items as those supplied
    in the original configuration specification, but it corresponds to
    the current configuration, which could have been changed
    dynamically."
    """

    instance: str
    spec: ModuleSpec
    machine: str

    def endpoint(self, interface: str) -> Endpoint:
        return (self.instance, interface)


def obj_cap(bus: SoftwareBus, instance: str) -> ObjectCapability:
    """Access a module: obtain its current specification and placement."""
    module = bus.get_module(instance)
    return ObjectCapability(
        instance=instance,
        spec=module.spec.with_attributes(machine=module.host.name),
        machine=module.host.name,
    )


def bind_cap() -> BindBatch:
    """Prepare an empty batch of binding commands."""
    return BindBatch()


def edit_bind(
    batch: BindBatch,
    op: str,
    left: Endpoint,
    right: Optional[Endpoint] = None,
) -> None:
    """Append one bind command to a prepared batch."""
    if op == "add":
        batch.add(left, right)  # type: ignore[arg-type]
    elif op == "del":
        batch.delete(left, right)  # type: ignore[arg-type]
    elif op == "cq":
        batch.copy_queue(left, right)  # type: ignore[arg-type]
    elif op == "rmq":
        batch.remove_queue(left)
    else:
        raise ReconfigError(f"unknown bind edit {op!r}")


def rebind(bus: SoftwareBus, batch: BindBatch) -> None:
    """Apply all prepared binding commands at once."""
    batch.apply(bus)


def struct_objnames(bus: SoftwareBus, obj: ObjectCapability) -> List[str]:
    """Interface names of the module (Figure 5's first structure query)."""
    return bus.interface_names(obj.instance)


def struct_ifdest(
    bus: SoftwareBus, obj: ObjectCapability, interface: str
) -> List[Tuple[str, str]]:
    """Current destinations of messages written on (obj, interface)."""
    return bus.destinations_of(obj.instance, interface)


def struct_ifsources(
    bus: SoftwareBus, obj: ObjectCapability, interface: str
) -> List[Tuple[str, str]]:
    """Current sources of messages arriving at (obj, interface)."""
    return bus.sources_of(obj.instance, interface)


def objstate_move(
    bus: SoftwareBus,
    old: ObjectCapability,
    new: ObjectCapability,
    timeout: float = 10.0,
) -> bytes:
    """Get state from the old module and send it to the new one.

    The paper names the interfaces ("encode"/"decode"); on this bus the
    old module's ``mh`` records what it divulged, the bus waits for that
    outcome and installs the packet in the new module, with the same
    machine-profile translation as any message.
    """
    return bus.objstate_move(old.instance, new.instance, timeout=timeout)


def chg_obj(bus: SoftwareBus, obj: ObjectCapability, op: str) -> None:
    """Start up a new module (``add``) or remove an old one (``del``)."""
    if op == "add":
        bus.start_module(obj.instance)
    elif op == "del":
        bus.remove_module(obj.instance)
    else:
        raise ReconfigError(f"unknown chg_obj operation {op!r}")
