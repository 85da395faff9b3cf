"""Application-level reconfiguration: primitives and scripts (Figure 5).

- :mod:`repro.reconfig.primitives` — the ``mh_*`` reconfiguration API the
  paper's script calls (``obj_cap``, ``struct_ifdest``, ``objstate_move``,
  ``chg_obj``, ...)
- :mod:`repro.reconfig.bindcmds` — batched bind edits (``add``/``del``/
  ``cq``/``rmq``) applied all at once by ``rebind``
- :mod:`repro.reconfig.scripts` — parameterized reconfiguration scripts:
  replacement, move-to-machine, replication, live upgrade
- :mod:`repro.reconfig.coordinator` — orchestration with timing
  measurements and failure handling
"""

from repro._lazy import lazy_exports

__all__ = [
    "BindBatch",
    "BindCommand",
    "ObjectCapability",
    "obj_cap",
    "bind_cap",
    "edit_bind",
    "rebind",
    "struct_objnames",
    "struct_ifdest",
    "struct_ifsources",
    "objstate_move",
    "chg_obj",
    "ReconfigurationCoordinator",
    "ReconfigurationReport",
    "replace_module",
    "move_module",
    "replicate_module",
    "upgrade_module",
    "attach_module",
    "detach_module",
]

# Resolved on first use (see repro._lazy).
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.reconfig.bindcmds": ["BindBatch", "BindCommand"],
        "repro.reconfig.primitives": [
            "ObjectCapability",
            "obj_cap",
            "bind_cap",
            "edit_bind",
            "rebind",
            "struct_objnames",
            "struct_ifdest",
            "struct_ifsources",
            "objstate_move",
            "chg_obj",
        ],
        "repro.reconfig.coordinator": [
            "ReconfigurationCoordinator",
            "ReconfigurationReport",
        ],
        "repro.reconfig.scripts": [
            "replace_module",
            "move_module",
            "replicate_module",
            "upgrade_module",
            "attach_module",
            "detach_module",
        ],
    },
)
