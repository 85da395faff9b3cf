"""The pipelined replacement path: work overlapped with the wait window.

The coordinator's critical path used to be strictly sequential: build
clone, prepare rebind batch, signal, wait for the reconfiguration point,
move state.  The pipelined path signals *first* (for a same-version
clone, whose spec the original already proved loadable) and spends the
wait-for-point window building the clone.  The old module's ``mh``
records what it divulged, and the coordinator takes the packet from
there and installs it in the clone once the clone is built
(bus.await_divulge), whichever of the two finished first.

Synchronization here is event-based, not paced: the sensor emits nothing
on its own (manual monitor harness), so the old module reaches its
reconfiguration point exactly when a test feeds a reading — the wait
window opens and closes on explicit events, never on sleep tuning.
"""

import threading

import pytest

from repro.bus.module import ModuleState, _prepare_module_cached
from repro.errors import (
    ReconfigTimeoutError,
    ReconfigurationTimeout,
    TransformError,
)
from repro.reconfig.scripts import move_module, upgrade_module
from repro.runtime.faults import FaultPlan, fault_plan
from repro.state.frames import ProcessState

from tests.conftest import wait_until
from tests.reconfig.helpers import (
    displayed,
    expected_averages,
    feed_sensor,
    launch_manual_monitor,
    wait_signalled,
)


@pytest.fixture
def monitor():
    bus = launch_manual_monitor(requests=30, group_size=4)
    yield bus
    bus.shutdown()


def trace_index(bus, needle):
    return next(i for i, line in enumerate(bus.trace) if needle in line)


def wait_displays(bus, count, timeout=15):
    def check():
        bus.check_health()
        return len(displayed(bus)) >= count

    wait_until(check, timeout=timeout)
    return displayed(bus)


def move_in_background(bus, instance="compute", machine="beta", timeout=15):
    """Run the replace on its own thread; join() then inspect outcome."""
    outcome = {}

    def run():
        try:
            outcome["report"] = move_module(bus, instance, machine=machine, timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - surfaced by caller
            outcome["error"] = exc

    worker = threading.Thread(target=run, name="pipelined-move")
    worker.start()
    return worker, outcome


def complete_move(bus, next_value):
    """Drive one move to commit: wait for the signal, feed the single
    reading that lets the old module reach its point, join."""
    worker, outcome = move_in_background(bus)
    wait_signalled(bus, "compute")
    feed_sensor(bus, next_value)
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert "error" not in outcome, f"move failed: {outcome.get('error')!r}"
    return outcome["report"]


class TestPipelinedMove:
    def test_signal_precedes_clone_creation(self, monitor):
        # The pipelining itself, as seen in the audit trace: for a move
        # (same spec) the signal goes out before the clone is built.
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        complete_move(monitor, 9)
        signal_at = trace_index(monitor, "signal reconfig compute")
        clone_at = trace_index(monitor, "build clone compute on beta")
        moved_at = trace_index(monitor, "objstate_move compute -> compute on beta")
        assert signal_at < clone_at < moved_at

    def test_clone_is_built_while_wait_window_is_open(self, monitor):
        # Deterministic pipelining check, no trace archaeology: with no
        # reading fed, the old module cannot reach its point — yet the
        # clone appears.  The window and the build genuinely overlap.
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        old = monitor.get_module("compute")
        # Two requests and eight readings are consumed; the eleventh
        # message is the third request, which takes compute past its
        # point and into a sensor read nobody feeds.  Signalled before
        # that, it would reach the point on its own.
        wait_until(lambda: old.mh.stats["messages_received"] >= 11, timeout=15)
        worker, outcome = move_in_background(monitor)
        wait_signalled(monitor, "compute")
        wait_until(
            lambda: any(line.startswith("build clone compute") for line in monitor.trace),
            timeout=15,
        )
        assert not old.mh.divulged.is_set()  # still waiting on the point
        feed_sensor(monitor, 9)  # now let it reach the point
        worker.join(timeout=30)
        assert "error" not in outcome, f"move failed: {outcome.get('error')!r}"

    def test_moved_app_still_correct(self, monitor):
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        report = complete_move(monitor, 9)
        assert report.new_machine == "beta"
        assert report.stack_depth > 0
        feed_sensor(monitor, *range(10, 121))
        values = wait_displays(monitor, 30)
        assert values == expected_averages(30)

    def test_depth_matches_peekable_header(self, monitor):
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        report = complete_move(monitor, 9)
        packet = monitor.get_module("compute").mh.incoming_packet
        assert report.stack_depth == ProcessState.from_bytes(packet).stack.depth >= 2

    def test_clone_reuses_transform_result(self, monitor):
        # The wait window covers clone construction because the AST
        # pipeline for an already-proven spec is a cache hit.
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        info_before = _prepare_module_cached.cache_info()
        complete_move(monitor, 9)
        info_after = _prepare_module_cached.cache_info()
        assert info_after.hits > info_before.hits
        assert info_after.misses == info_before.misses

    def test_upgrade_still_loads_clone_before_signal(self, monitor):
        # A *new* version can be rejected by the transformer, so its
        # clone must be built (and validated) before any signal goes out.
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        source = monitor.get_module("compute").spec.inline_source
        outcome = {}

        def run():
            try:
                outcome["report"] = upgrade_module(monitor, "compute", source, timeout=15)
            except BaseException as exc:  # noqa: BLE001
                outcome["error"] = exc

        worker = threading.Thread(target=run)
        worker.start()
        wait_signalled(monitor, "compute")
        feed_sensor(monitor, 9)
        worker.join(timeout=30)
        assert "error" not in outcome, f"upgrade failed: {outcome.get('error')!r}"
        clone_at = trace_index(monitor, "build clone compute")
        signal_at = trace_index(monitor, "signal reconfig compute")
        assert clone_at < signal_at

    def test_rejected_upgrade_never_signals(self, monitor):
        with pytest.raises(TransformError):
            upgrade_module(monitor, "compute", "def main():\n    pass\n", timeout=15)
        assert not any("signal reconfig" in line for line in monitor.trace)
        assert not monitor.get_module("compute").mh.reconfig


class TestTimeoutRollback:
    def test_stream_timeout_withdraws_signal_and_callback(self, monitor):
        # With no reading fed, the old module structurally *cannot*
        # reach its point — the deadline is the only way out, and it
        # must leave the application exactly as it found it.
        with pytest.raises(ReconfigurationTimeout) as excinfo:
            move_module(monitor, "compute", machine="beta", timeout=0.3)
        assert isinstance(excinfo.value, ReconfigTimeoutError)  # back-compat
        assert excinfo.value.stage == "wait_point"
        assert excinfo.value.rolled_back
        mh = monitor.get_module("compute").mh
        assert not mh.reconfig
        assert not mh.divulge_settled.is_set()
        assert not monitor._unbound  # no clone left behind
        assert monitor.get_module("compute").state is ModuleState.RUNNING
        # The proof the rollback worked: the application still computes.
        feed_sensor(monitor, *range(1, 5))
        assert wait_displays(monitor, 1) == [2.5]


class TestCoordinatorHandOff:
    def test_divulge_during_clone_build(self, monitor):
        # The old module may divulge before the clone exists: the
        # coordinator takes the packet from the module's own outcome once
        # the build returns, and installs it then.
        feed_sensor(monitor, *range(1, 9))
        wait_displays(monitor, 2)
        old = monitor.get_module("compute")
        plan = FaultPlan("slow-clone-build").schedule(
            "coordinator.clone_build", "delay", delay=1.5
        )
        with fault_plan(plan):
            worker, outcome = move_in_background(monitor)
            wait_signalled(monitor, "compute")
            feed_sensor(monitor, 9)
            wait_until(old.mh.divulged.is_set, timeout=15)
            assert not any(line.startswith("build clone compute") for line in monitor.trace)
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert "error" not in outcome, f"move failed: {outcome.get('error')!r}"
        assert plan.fired("coordinator.clone_build") == 1
        clone = monitor.get_module("compute")
        assert clone is not old
        assert clone.mh.incoming_packet == old.mh.outgoing_packet
        assert outcome["report"].stack_depth == old.mh.outgoing_frames >= 2
        feed_sensor(monitor, *range(10, 121))
        assert wait_displays(monitor, 30) == expected_averages(30)
