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

from repro._lazy import lazy_exports

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

# Resolved on first use (see repro._lazy): every pipe worker and TCP
# daemon runs this file on its way to ``repro.bus.procpool`` /
# ``repro.bus.tcp`` and needs neither the MIL parser nor the bus.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.bus.message": ["Message"],
        "repro.bus.interfaces": ["Direction", "InterfaceDecl", "Role"],
        "repro.bus.queues": ["MessageQueue"],
        "repro.bus.spec": [
            "ApplicationSpec",
            "BindingSpec",
            "InstanceSpec",
            "ModuleSpec",
        ],
        "repro.bus.mil": ["parse_mil", "parse_module_spec"],
        "repro.bus.machine": ["Host"],
        "repro.bus.module": ["ModuleInstance", "ModuleState"],
        "repro.bus.bus": ["SoftwareBus"],
    },
)
