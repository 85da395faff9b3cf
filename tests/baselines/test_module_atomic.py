"""Tests for module-level (no participation) reconfiguration baseline."""

import pytest

from repro.baselines.module_atomic import module_level_replace, wait_for_quiescence
from repro.bus.message import Message
from repro.errors import ReconfigTimeoutError

from tests.conftest import wait_until
from tests.reconfig.helpers import displayed, launch_monitor, wait_displayed


@pytest.fixture
def monitor():
    bus = launch_monitor()
    yield bus
    bus.shutdown()


def flood_compute(bus):
    """Queue a backlog ``compute`` cannot possibly drain within a window."""
    bus.get_module("compute").queue("sensor").put_many(
        [Message(values=[v], fmt="i") for v in range(5000)]
    )


class TestQuiescence:
    def test_idle_module_is_quiescent(self, monitor):
        # display's queue drains between requests, sensor's never fills.
        assert wait_for_quiescence(monitor, "sensor", timeout=2)

    def test_flooded_module_never_quiesces(self, monitor):
        # Without participation, the platform has no safe moment to act.
        flood_compute(monitor)
        assert not wait_for_quiescence(monitor, "compute", timeout=0.3)


class TestModuleLevelReplace:
    def test_forced_replace_loses_state(self, monitor):
        wait_displayed(monitor, 2)
        report = module_level_replace(
            monitor, "compute", machine="beta", quiescence_timeout=0.2, force=True
        )
        assert report.state_carried is False
        assert monitor.get_module("compute").host.name == "beta"
        # The application continues — but the interrupted computation was
        # dropped, so (unlike the participation path) progress can show a
        # gap: the in-flight request's response never arrives until the
        # display re-sends.  The fresh module still serves later requests.
        before = len(displayed(monitor))
        assert before >= 2

    def test_refuses_without_force(self, monitor):
        wait_displayed(monitor, 1)
        # The live monitor alone leaves compute idle now and then.
        flood_compute(monitor)
        with pytest.raises(ReconfigTimeoutError):
            module_level_replace(
                monitor,
                "compute",
                machine="beta",
                quiescence_timeout=0.2,
                force=False,
            )

    def test_fresh_module_has_no_carried_statics(self, monitor):
        wait_displayed(monitor, 2)
        monitor.get_module("compute").mh.statics["marker"] = "old-state"
        module_level_replace(
            monitor, "compute", machine="beta", quiescence_timeout=0.2, force=True
        )
        # No divulge/restore happened: statics are empty in the new module.
        assert "marker" not in monitor.get_module("compute").mh.statics

    def test_report_describes_loss(self, monitor):
        wait_displayed(monitor, 1)
        report = module_level_replace(
            monitor, "compute", machine="beta", quiescence_timeout=0.1, force=True
        )
        text = report.describe()
        assert "state carried: no" in text
