"""Tests for reconfiguration scripts on a live application (Figure 5)."""

import pytest

from repro.bus.module import ModuleState
from repro.errors import ReconfigError, ReconfigTimeoutError
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.reconfig.primitives import (
    bind_cap,
    edit_bind,
    obj_cap,
    rebind,
    struct_ifdest,
    struct_ifsources,
    struct_objnames,
)
from repro.reconfig.scripts import (
    figure5_replacement_script,
    move_module,
    replace_module,
    replicate_module,
)

from tests.reconfig.helpers import (
    displayed,
    expected_averages,
    launch_monitor,
    wait_displayed,
)


@pytest.fixture
def monitor():
    bus = launch_monitor()
    yield bus
    bus.shutdown()


class TestPrimitivesOnLiveApp:
    def test_obj_cap_reflects_current_config(self, monitor):
        old = obj_cap(monitor, "compute")
        assert old.machine == "alpha"
        assert old.spec.attributes["machine"] == "alpha"
        assert old.spec.is_reconfigurable

    def test_struct_queries(self, monitor):
        old = obj_cap(monitor, "compute")
        assert set(struct_objnames(monitor, old)) == {"display", "sensor"}
        assert struct_ifdest(monitor, old, "display") == [("display", "temper")]
        assert struct_ifsources(monitor, old, "sensor") == [("sensor", "out")]

    def test_edit_and_rebind(self, monitor):
        batch = bind_cap()
        edit_bind(batch, "del", ("sensor", "out"), ("compute", "sensor"))
        edit_bind(batch, "add", ("sensor", "out"), ("compute", "sensor"))
        rebind(monitor, batch)
        assert monitor.sources_of("compute", "sensor") == [("sensor", "out")]


class TestMoveModule:
    def test_move_mid_stream_preserves_every_value(self, monitor):
        wait_displayed(monitor, 2)
        report = move_module(monitor, "compute", machine="beta", timeout=15)
        assert report.kind == "move"
        assert report.new_machine == "beta"
        assert report.packet_bytes > 0
        assert report.stack_depth >= 1
        values = wait_displayed(monitor, 30)
        assert values == expected_averages(30)
        assert monitor.get_module("compute").host.name == "beta"

    def test_move_back_and_forth(self, monitor):
        wait_displayed(monitor, 2)
        move_module(monitor, "compute", machine="beta", timeout=15)
        wait_displayed(monitor, 6)
        move_module(monitor, "compute", machine="alpha", timeout=15)
        values = wait_displayed(monitor, 30)
        assert values == expected_averages(30)
        assert monitor.get_module("compute").host.name == "alpha"

    def test_report_timings_ordered(self, monitor):
        wait_displayed(monitor, 2)
        report = move_module(monitor, "compute", machine="beta", timeout=15)
        assert report.t_signal <= report.t_divulged <= report.t_rebound
        assert report.t_rebound <= report.t_started <= report.t_done
        assert report.delay_to_point >= 0
        assert report.total_time >= report.delay_to_point


class TestReplaceModule:
    def test_replace_in_place(self, monitor):
        wait_displayed(monitor, 2)
        report = replace_module(monitor, "compute", timeout=15)
        assert report.new_machine == report.old_machine == "alpha"
        values = wait_displayed(monitor, 30)
        assert values == expected_averages(30)

    def test_non_reconfigurable_module_rejected(self, monitor):
        with pytest.raises(ReconfigError, match="no reconfiguration points"):
            replace_module(monitor, "sensor", timeout=2)

    def test_timeout_rolls_back(self):
        # A compute that never receives requests never reaches R.
        bus = launch_monitor(requests=0)
        try:
            wait_displayed(bus, 0)
            before = bus.snapshot_configuration().describe()
            with pytest.raises(ReconfigTimeoutError):
                replace_module(bus, "compute", machine="beta", timeout=0.3)
            after = bus.snapshot_configuration().describe()
            assert before == after
            assert not bus.get_module("compute").mh.reconfig
            assert bus.get_module("compute").state is ModuleState.RUNNING
            assert not bus._unbound  # no clone left behind
        finally:
            bus.shutdown()


class TestFigure5Script:
    def test_line_by_line_script(self, monitor):
        wait_displayed(monitor, 2)
        new_name = figure5_replacement_script(monitor, "compute", machine="beta")
        assert new_name == "compute.new"
        assert monitor.get_module(new_name).host.name == "beta"
        assert not monitor.has_module("compute")

        def check():
            monitor.check_health()
            return len(displayed(monitor)) >= 20

        from tests.conftest import wait_until

        wait_until(check, timeout=30)
        assert displayed(monitor)[:20] == expected_averages(20)


class TestReplicate:
    def test_replicate_produces_two_running_clones(self, monitor):
        wait_displayed(monitor, 2)
        report, replica = replicate_module(
            monitor, "compute", "compute2", machine="beta", timeout=15
        )
        assert report.kind == "replicate"
        assert monitor.has_module("compute") and monitor.has_module("compute2")
        assert monitor.get_module("compute2").host.name == "beta"
        # The replica carries the same bindings shape.
        assert monitor.sources_of("compute2", "sensor") == [("sensor", "out")]
        assert monitor.destinations_of("compute2", "display") == [
            ("display", "temper")
        ]
        from tests.conftest import wait_until

        wait_until(
            lambda: monitor.get_module("compute2").state is ModuleState.RUNNING
        )


class TestCoordinatorHistory:
    def test_history_accumulates(self, monitor):
        wait_displayed(monitor, 2)
        coordinator = ReconfigurationCoordinator(monitor)
        coordinator.replace("compute", machine="beta", timeout=15)
        wait_displayed(monitor, 6)
        coordinator.replace("compute", machine="alpha", timeout=15)
        assert len(coordinator.history) == 2
        assert [r.new_machine for r in coordinator.history] == ["beta", "alpha"]

    def test_queued_messages_copied(self, monitor):
        wait_displayed(monitor, 2)
        report = ReconfigurationCoordinator(monitor).replace(
            "compute", machine="beta", timeout=15
        )
        # The sensor floods faster than compute consumes: some sensor
        # messages were pending and must have been carried over.
        assert report.queued_copied.get("sensor", 0) >= 0
        values = wait_displayed(monitor, 30)
        assert values == expected_averages(30)
