"""POLYLITH-style software bus (the paper's platform substrate, [8]).

"A heterogeneous distributed software application consists of software
modules and bindings between them, where a module is a software process
with its own memory and its own thread of control.  Modules can
communicate with each other via named interfaces ... message passing is
asynchronous.  Bindings connect the interfaces of modules."

- :mod:`repro.bus.message`    — messages and their canonical wire form
- :mod:`repro.bus.interfaces` — named, directional interface declarations
- :mod:`repro.bus.queues`     — per-interface FIFO queues (copyable for
  the reconfiguration ``cq`` command)
- :mod:`repro.bus.spec`       — module and application specifications
- :mod:`repro.bus.mil`        — the configuration language of Figure 2
- :mod:`repro.bus.machine`    — simulated hosts with architecture profiles
- :mod:`repro.bus.module`     — module instances (thread of control + namespace)
- :mod:`repro.bus.bus`        — the bus itself: routing, lifecycle, introspection
- :mod:`repro.bus.transport`  — where a module executes: in the bus process,
  in a pipe worker (:mod:`repro.bus.procpool`) or in a TCP machine daemon
  (:mod:`repro.bus.tcp`), behind one link and one module-host protocol
- :mod:`repro.bus.batch`      — coalesced delivery frames for those links
"""

from repro.bus.message import Message
from repro.bus.interfaces import Direction, InterfaceDecl, Role
from repro.bus.queues import MessageQueue
from repro.bus.spec import ApplicationSpec, BindingSpec, InstanceSpec, ModuleSpec
from repro.bus.mil import parse_mil, parse_module_spec
from repro.bus.machine import Host
from repro.bus.module import ModuleInstance, ModuleState
from repro.bus.bus import SoftwareBus

__all__ = [
    "Message",
    "Direction",
    "InterfaceDecl",
    "Role",
    "MessageQueue",
    "ApplicationSpec",
    "BindingSpec",
    "InstanceSpec",
    "ModuleSpec",
    "parse_mil",
    "parse_module_spec",
    "Host",
    "ModuleInstance",
    "ModuleState",
    "SoftwareBus",
]
