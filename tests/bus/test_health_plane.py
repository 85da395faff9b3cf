"""Live health plane: heartbeats over real links, kill-detection, gating.

The fast end of the detector is unit-tested with a fake clock in
tests/runtime/test_health.py; this suite runs the real thing — worker
processes beating over their links, a killed worker condemned by
silence, and ``replace()`` refusing to target it — so it carries the
``multiproc`` marker and real timeouts.
"""

import time

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import ReconfigError
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.runtime import telemetry
from tests.bus.test_transport_contract import _Nudger

pytestmark = pytest.mark.multiproc

WATCHDOG_S = 120.0

COUNTER_SOURCE = '''
def main():
    total = 0
    mh.statics["total"] = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("Q")
        n = mh.read1("inp")
        total = total + n
        mh.statics["total"] = total
'''

FEEDER_SOURCE = '''
def main():
    mh.sleep(0.01)
'''


@pytest.fixture(autouse=True)
def _watchdog(watchdog):
    yield


@pytest.fixture
def worker_bus():
    bus = SoftwareBus(sleep_scale=0.0, workers=2)
    yield bus
    bus.shutdown()


def _launch_counter(bus, placement="worker:0"):
    bus.add_module(
        ModuleSpec(
            name="counter",
            inline_source=COUNTER_SOURCE,
            interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
            reconfig_points=["Q"],
        ),
        instance="counter",
        placement=placement,
    )
    bus.add_module(
        ModuleSpec(
            name="feeder",
            inline_source=FEEDER_SOURCE,
            interfaces=[InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")],
        ),
        instance="feeder",
    )
    bus.add_binding(BindingSpec("feeder", "out", "counter", "inp"))
    bus.start_module("counter")
    _feed(bus, 1, 2, 3)
    deadline = time.monotonic() + 20
    while bus.statics_of("counter").get("total") != 6:
        assert time.monotonic() < deadline, "counter never reached total=6"
        time.sleep(0.02)


def _feed(bus, *values):
    for value in values:
        bus.route(
            "feeder",
            "out",
            Message(
                values=[value],
                fmt="l",
                source_instance="feeder",
                source_interface="out",
            ).validated(),
        )


def _worker_process(bus, index=0):
    return bus.transport("worker")._processes[f"worker-{index}"]


class TestLiveHeartbeats:
    def test_worker_beats_to_healthy(self, worker_bus):
        monitor = worker_bus.enable_health(interval=0.05)
        _launch_counter(worker_bus)
        status = monitor.wait_for_status("worker-0", ("healthy",), timeout=10.0)
        assert status == "healthy"
        snap = monitor.snapshot()
        assert snap["hosts"]["worker-0"]["beats"] >= 1
        # The beat payload carries per-module detail, joined by name.
        counter = snap["modules"].get("counter")
        assert counter is not None
        assert counter["host"] == "worker-0"
        assert counter["state"] == "running"
        assert "queued" in counter and "queue_hwm" in counter

    def test_health_rides_telemetry_snapshot(self, worker_bus):
        rec = telemetry.enable(capacity=4096)
        try:
            monitor = worker_bus.enable_health(interval=0.05)
            _launch_counter(worker_bus)
            monitor.wait_for_status("worker-0", ("healthy",), timeout=10.0)
            snap = rec.snapshot()
            assert snap["health"]["hosts"]["worker-0"]["status"] == "healthy"
        finally:
            telemetry.disable()

    def test_every_worker_beats_not_only_the_placed_one(self, worker_bus):
        monitor = worker_bus.enable_health(interval=0.05)
        _launch_counter(worker_bus, placement="worker:1")  # slot 1, not 0
        for host in ("worker-0", "worker-1"):
            assert (
                monitor.wait_for_status(host, ("healthy",), timeout=10.0)
                == "healthy"
            )


class TestKilledWorker:
    def test_detected_dead_and_preflight_refuses(self, worker_bus):
        monitor = worker_bus.enable_health(interval=0.05, dead_after=2.0)
        _launch_counter(worker_bus)
        monitor.wait_for_status("worker-0", ("healthy",), timeout=10.0)

        _worker_process(worker_bus).kill()
        detect_started = time.monotonic()
        status = monitor.wait_for_status(
            "worker-0", ("dead",), timeout=10.0
        )
        detect_s = time.monotonic() - detect_started
        assert status == "dead", f"killed worker still {status}"
        # Configured bound: dead_after=2s plus scheduling slack.
        assert detect_s < 8.0, f"detection took {detect_s:.1f}s"

        coordinator = ReconfigurationCoordinator(worker_bus)
        with pytest.raises(ReconfigError, match="pre-flight health gate"):
            coordinator.replace("counter", timeout=30)

    def test_force_overrides_condemnation(self, worker_bus):
        # Long interval: no beat arrives mid-test to un-condemn the host.
        monitor = worker_bus.enable_health(interval=30.0)
        _launch_counter(worker_bus)
        monitor.mark_dead("worker-0", reason="operator says no")
        coordinator = ReconfigurationCoordinator(worker_bus)
        with pytest.raises(ReconfigError, match="pre-flight health gate"):
            coordinator.replace("counter", timeout=30)
        # The worker is actually alive, so forcing past the verdict works.
        with _Nudger(worker_bus):
            report = coordinator.replace("counter", timeout=30, force=True)
        assert report.health_verdict == "dead"
        assert "commit" in report.completed


class TestSourceLost:
    def test_snapshot_survives_dead_link(self, worker_bus):
        rec = telemetry.enable(capacity=4096)
        try:
            _launch_counter(worker_bus)
            # First snapshot caches the worker's totals while it lives.
            first = rec.snapshot()
            assert any(
                key.startswith("bus.delivered") for key in first["counters"]
            )
            process = _worker_process(worker_bus)
            process.kill()
            process.wait(timeout=10)
            deadline = time.monotonic() + 10
            while True:
                # Must not raise into snapshot(); the dead link's last
                # known totals keep counters monotonic.
                snap = rec.snapshot()
                events = [
                    r
                    for r in rec.drain_records()
                    if r.get("type") == "event"
                    and r.get("kind") == "telemetry.source_lost"
                ]
                if events:
                    assert events[0]["attrs"]["host"] == "worker-0"
                    break
                assert time.monotonic() < deadline, (
                    "telemetry.source_lost never emitted"
                )
                time.sleep(0.1)
            assert any(
                key.startswith("bus.delivered") for key in snap["counters"]
            )
        finally:
            telemetry.disable()
