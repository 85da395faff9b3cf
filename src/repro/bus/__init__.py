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
- :mod:`repro.bus.module`     — module instances (thread of control + namespace)
  on a machine, which is its :class:`~repro.state.machine.MachineProfile`
- :mod:`repro.bus.bus`        — the bus itself: routing, lifecycle, introspection
- :mod:`repro.bus.transport`  — where else a module executes: in a
  machine daemon of the worker pool or of an attached TCP transport;
  the bus-side handles and the shared slot table
- :mod:`repro.bus.tcp`        — the daemons' framing, socket channel and
  ``python -m repro.bus.tcp`` entry point
- :mod:`repro.bus.link`       — the bus-side end of a remote host's channel
- :mod:`repro.bus.host`       — the remote end: the module host every
  daemon runs, and all such a process imports of the bus
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
    "ModuleInstance",
    "ModuleState",
    "SoftwareBus",
]

# Resolved on first use (see repro._lazy): every machine daemon runs
# this file on its way to ``repro.bus.tcp`` and needs neither the MIL
# parser nor the bus.
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
        "repro.bus.module": ["ModuleInstance", "ModuleState"],
        "repro.bus.bus": ["SoftwareBus"],
    },
)
