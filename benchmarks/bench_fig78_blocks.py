"""FIG7/8 — capture blocks and restore blocks (paper Figures 7 and 8).

Paper: each node of the reconfiguration graph receives ONE restore block
and one capture block per outgoing edge; reconfiguration points share
the call-edge capture blocks.

Measured here: generated block counts match that formula as the number
of call sites grows, and the codegen cost of preparation scales with
procedure size.
"""

from repro.core import prepare_module

from benchmarks.conftest import report


def make_many_call_sites(call_sites: int) -> str:
    calls = "\n".join(f"    leaf({i})" for i in range(call_sites))
    return (
        "def main():\n"
        f"{calls}\n"
        "\n"
        "def leaf(x: int):\n"
        "    mh.reconfig_point('R')\n"
    )


def test_fig7_one_capture_block_per_edge(benchmark):
    source = make_many_call_sites(20)
    result = benchmark(prepare_module, source, "m")

    # main: 20 call edges -> 20 capture blocks, 1 restore block.
    assert result.reports["main"].call_capture_blocks == 20
    assert result.reports["main"].has_restore_block
    # leaf: 1 reconfiguration capture block, 1 restore block.
    assert result.reports["leaf"].reconfig_capture_blocks == 1
    # Restore block appears once per procedure: one mh.restore call each.
    assert result.source.count("mh.restore('main')") == 1
    assert result.source.count("mh.restore('leaf')") == 1

    report(
        "FIG7/8",
        "one capture block per edge, one restore block per node",
        "20 call edges -> 20 capture blocks + 1 restore block in main",
    )


def test_fig7_points_share_call_capture_blocks(benchmark):
    # Two reconfiguration points, one call site in main: main still gets
    # exactly one capture block ("reconfiguration points can share
    # capture blocks").
    source = (
        "def main():\n"
        "    worker(1)\n"
        "\n"
        "def worker(x: int):\n"
        "    mh.reconfig_point('R1')\n"
        "    helper(x)\n"
        "    mh.reconfig_point('R2')\n"
        "\n"
        "def helper(x: int):\n"
        "    return x\n"
    )
    result = benchmark(prepare_module, source, "m")
    assert result.reports["main"].call_capture_blocks == 1
    assert result.reports["worker"].reconfig_capture_blocks == 2


def test_fig8_restore_dispatch_per_edge(benchmark):
    source = make_many_call_sites(10)
    result = benchmark(prepare_module, source, "m")
    # Figure 8: restore code for each edge originating at the node —
    # main dispatches on 10 locations.
    main_restore = result.source.split("def leaf")[0]
    assert main_restore.count("_mh_vals[0] ==") == 10
