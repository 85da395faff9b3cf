"""repro — reproduction of Hofmeister & Purtilo (ICDCS 1993):
"Dynamic Reconfiguration in Distributed Systems: Adapting Software
Modules for Replacement".

Quickstart::

    from repro import parse_mil, SoftwareBus, move_module
    from repro.apps import build_monitor_configuration

    config = build_monitor_configuration()
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("alpha")
    bus.add_host("beta")
    bus.launch(config, default_host="alpha")
    ...
    report = move_module(bus, "compute", machine="beta")
    print(report.describe())

Layer map (see DESIGN.md):

- ``repro.core``     — the paper's contribution: automatic source
  transformation installing capture/restore blocks
- ``repro.state``    — abstract machine-independent process state
- ``repro.runtime``  — the per-module ``mh`` runtime
- ``repro.bus``      — POLYLITH-style software bus + MIL
- ``repro.reconfig`` — reconfiguration primitives and scripts
- ``repro.baselines``— comparison systems from the related-work section
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ApplicationSpec",
    "BindingSpec",
    "InstanceSpec",
    "ModuleSpec",
    "SoftwareBus",
    "parse_mil",
    "parse_module_spec",
    "prepare_module",
    "ReproError",
    "ReconfigurationCoordinator",
    "ReconfigurationReport",
    "move_module",
    "replace_module",
    "replicate_module",
    "upgrade_module",
    "attach_module",
    "detach_module",
    "MH",
    "Ref",
    "MACHINES",
    "MachineProfile",
    "ProcessState",
    "__version__",
]

# Resolved on first use: ``python -m repro.bus.tcp`` in a daemon must
# not load the bus, the transformer or the coordinator (see repro._lazy).
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.bus.spec": [
            "ApplicationSpec",
            "BindingSpec",
            "InstanceSpec",
            "ModuleSpec",
        ],
        "repro.bus.bus": ["SoftwareBus"],
        "repro.bus.mil": ["parse_mil", "parse_module_spec"],
        "repro.core.transformer": ["prepare_module"],
        "repro.errors": ["ReproError"],
        "repro.reconfig.coordinator": [
            "ReconfigurationCoordinator",
            "ReconfigurationReport",
        ],
        "repro.reconfig.scripts": [
            "move_module",
            "replace_module",
            "replicate_module",
            "upgrade_module",
            "attach_module",
            "detach_module",
        ],
        "repro.runtime.mh": ["MH"],
        "repro.runtime.refs": ["Ref"],
        "repro.state.machine": ["MACHINES", "MachineProfile"],
        "repro.state.frames": ["ProcessState"],
    },
)
