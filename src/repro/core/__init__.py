"""The paper's core contribution: automatic module preparation.

Given a module source with programmer-designated reconfiguration points
(``mh.reconfig_point("R")`` statements), :func:`prepare_module` produces a
*reconfigurable* source: capture blocks after every call on a
main-to-point path, a restore block at the top of every such procedure,
and resume labels — the Python analogue of Figure 4 of the paper.

Pipeline (Section 3 of the paper):

1. :mod:`repro.core.callgraph` — static call graph
2. :mod:`repro.core.recongraph` — reconfiguration graph with numbered edges
3. :mod:`repro.core.validate` — supported-subset checks with diagnostics
4. :mod:`repro.core.desugar` — ``for range(...)`` loops into capturable whiles
5. :mod:`repro.core.varinfo` — frame layouts (what each capture block saves)
6. :mod:`repro.core.liveness` — live variables at each capture edge
7. :mod:`repro.core.flatten` — structured resume guards (the goto)
8. :mod:`repro.core.transformer` — assembles the final module source
"""

from repro._lazy import lazy_exports

__all__ = [
    "CallSite",
    "StaticCallGraph",
    "build_call_graph",
    "RECONFIG_NODE",
    "ReconEdge",
    "ReconfigPoint",
    "ReconfigurationGraph",
    "build_reconfiguration_graph",
    "find_reconfig_points",
    "TransformResult",
    "prepare_module",
    "EdgeLiveness",
    "LivenessReport",
    "analyze_liveness",
]

# Resolved on first use (see repro._lazy): a host process imports
# ``repro.core.naming`` and must not load the pipeline with it.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.callgraph": ["CallSite", "StaticCallGraph", "build_call_graph"],
        "repro.core.recongraph": [
            "RECONFIG_NODE",
            "ReconEdge",
            "ReconfigPoint",
            "ReconfigurationGraph",
            "build_reconfiguration_graph",
            "find_reconfig_points",
        ],
        "repro.core.liveness": ["EdgeLiveness", "LivenessReport", "analyze_liveness"],
        "repro.core.transformer": ["TransformResult", "prepare_module"],
    },
)
