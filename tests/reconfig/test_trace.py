"""The bus reconfiguration trace: an auditable record of every change."""

import pytest

from repro.reconfig.scripts import move_module

from tests.reconfig.helpers import launch_monitor, wait_displayed


@pytest.fixture
def monitor():
    bus = launch_monitor()
    yield bus
    bus.shutdown()


class TestTrace:
    def test_launch_recorded(self, monitor):
        assert any("add module compute" in line for line in monitor.trace)
        assert any('bind "display temper"' in line for line in monitor.trace)
        assert any("start module sensor" in line for line in monitor.trace)

    def test_move_leaves_full_audit_trail(self, monitor):
        wait_displayed(monitor, 2)
        move_module(monitor, "compute", machine="beta", timeout=15)
        trace = "\n".join(monitor.trace)
        assert "build clone compute on beta" in trace
        assert "signal reconfig compute" in trace
        assert "objstate_move compute -> compute on beta" in trace
        assert "hand over compute: alpha -> beta" in trace
        assert "cq compute.sensor -> compute on beta" in trace
        assert "rmq compute.sensor on alpha" in trace
        assert "remove module compute on alpha" in trace
        assert "move of 'compute': alpha -> beta" in trace
        assert "rename" not in trace

    def test_trace_is_ordered(self, monitor):
        wait_displayed(monitor, 2)
        move_module(monitor, "compute", machine="beta", timeout=15)
        trace = monitor.trace
        signal_at = next(i for i, l in enumerate(trace) if "signal reconfig" in l)
        handed_at = next(i for i, l in enumerate(trace) if l.startswith("hand over"))
        # The clone starts under the public name, after the hand-over (the
        # launch's own "start module compute" line comes before the signal).
        start_at = next(
            i
            for i, l in enumerate(trace)
            if i > signal_at and l == "start module compute"
        )
        remove_at = next(
            i for i, l in enumerate(trace) if "remove module compute" in l
        )
        assert signal_at < handed_at < start_at < remove_at
