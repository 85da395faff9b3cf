"""Unit tests for the phi-style failure detector (runtime.health).

All tests drive an injected fake clock: verdicts are pure functions of
arrival timestamps, so no test here sleeps or spawns processes (the
live end, heartbeats over real links, is tests/bus/test_health_plane.py).
"""

import pytest

from repro.runtime.health import (
    STATUS_DEAD,
    STATUS_DEGRADED,
    STATUS_HEALTHY,
    STATUS_SUSPECT,
    STATUS_UNKNOWN,
    HealthMonitor,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def monitor(clock):
    return HealthMonitor(interval_hint=0.1, clock=clock)


def beat(monitor, clock, host="w0", n=1, interval=0.1, seq0=1):
    for i in range(n):
        monitor.record_heartbeat(host, seq0 + i, {"modules": {}})
        if i != n - 1:
            clock.advance(interval)


class TestPhiTransitions:
    def test_unregistered_host_is_unknown(self, monitor):
        assert monitor.status_of("nobody") == STATUS_UNKNOWN

    def test_registered_but_silent_is_unknown(self, monitor):
        monitor.register_host("w0", transport="worker")
        assert monitor.status_of("w0") == STATUS_UNKNOWN

    def test_on_schedule_is_healthy(self, monitor, clock):
        beat(monitor, clock, n=5, interval=0.1)
        clock.advance(0.1)  # exactly one interval late: phi == 1
        assert monitor.status_of("w0") == STATUS_HEALTHY

    def test_degrades_then_suspects_then_dies_with_silence(self, monitor, clock):
        beat(monitor, clock, n=5, interval=0.1)
        # mean interval is 0.1s; phi = age / 0.1
        clock.advance(0.3)  # phi 3
        assert monitor.status_of("w0") == STATUS_DEGRADED
        clock.advance(0.3)  # phi 6
        assert monitor.status_of("w0") == STATUS_SUSPECT
        clock.advance(0.5)  # phi 11
        assert monitor.status_of("w0") == STATUS_DEAD

    def test_slow_cadence_tolerates_proportionally_more(self, monitor, clock):
        beat(monitor, clock, n=5, interval=2.0)
        clock.advance(3.0)  # phi 1.5 — would be long dead at a 0.1s cadence
        assert monitor.status_of("w0") == STATUS_HEALTHY

    def test_single_beat_uses_interval_hint(self, monitor, clock):
        beat(monitor, clock, n=1)  # no inter-arrival samples yet
        clock.advance(0.15)  # phi = 0.15 / hint(0.1) = 1.5
        assert monitor.status_of("w0") == STATUS_HEALTHY
        clock.advance(0.8)
        assert monitor.status_of("w0") == STATUS_DEAD

    def test_recovery_after_silence(self, monitor, clock):
        beat(monitor, clock, n=5, interval=0.1)
        clock.advance(5.0)
        assert monitor.status_of("w0") == STATUS_DEAD
        beat(monitor, clock, n=1, seq0=6)
        assert monitor.status_of("w0") == STATUS_HEALTHY

    def test_dead_after_wall_override(self, clock):
        monitor = HealthMonitor(interval_hint=0.1, dead_after=1.0, clock=clock)
        beat(monitor, clock, n=5, interval=2.0)  # slow cadence: phi forgiving
        clock.advance(1.0)  # phi only 0.5, but the wall clock says dead
        assert monitor.status_of("w0") == STATUS_DEAD

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            HealthMonitor(healthy_phi=4.0, degraded_phi=2.0, suspect_phi=8.0)


class TestCondemnation:
    def test_mark_dead_overrides_fresh_beats(self, monitor, clock):
        beat(monitor, clock, n=3)
        monitor.mark_dead("w0", reason="pipe closed")
        assert monitor.status_of("w0") == STATUS_DEAD
        assert monitor.snapshot()["hosts"]["w0"]["condemned"] == "pipe closed"

    def test_next_beat_uncondemns(self, monitor, clock):
        monitor.mark_dead("w0")
        beat(monitor, clock, n=1)
        assert monitor.status_of("w0") == STATUS_HEALTHY

    def test_reregister_gives_condemned_host_a_chance(self, monitor, clock):
        beat(monitor, clock, n=1)
        monitor.mark_dead("w0")
        monitor.register_host("w0", transport="worker")
        # un-condemned, but the stale beat still counts for age
        assert monitor.status_of("w0") in (STATUS_HEALTHY, STATUS_UNKNOWN)

    def test_mark_dead_on_unseen_host_creates_record(self, monitor):
        monitor.mark_dead("ghost")
        assert monitor.status_of("ghost") == STATUS_DEAD

    def test_forget(self, monitor, clock):
        beat(monitor, clock, n=1)
        monitor.forget("w0")
        assert monitor.status_of("w0") == STATUS_UNKNOWN
        assert "w0" not in monitor.hosts()


class TestSnapshot:
    def test_shape_and_module_join(self, monitor, clock):
        monitor.register_host("idle", transport="tcp")
        monitor.record_heartbeat(
            "w0",
            7,
            {
                "modules": {
                    "counter": {
                        "state": "running",
                        "queued": 3,
                        "queue_hwm": 9,
                        "divulging": False,
                    }
                }
            },
        )
        snap = monitor.snapshot()
        assert set(snap) == {"hosts", "modules"}
        assert snap["hosts"]["idle"]["status"] == STATUS_UNKNOWN
        assert snap["hosts"]["idle"]["age_s"] is None
        w0 = snap["hosts"]["w0"]
        assert w0["status"] == STATUS_HEALTHY
        assert w0["beats"] == 1 and w0["last_seq"] == 7
        counter = snap["modules"]["counter"]
        assert counter["host"] == "w0"
        assert counter["host_status"] == STATUS_HEALTHY
        assert counter["queued"] == 3 and counter["queue_hwm"] == 9

    def test_module_table_follows_latest_beat(self, monitor, clock):
        monitor.record_heartbeat(
            "w0", 1, {"modules": {"a": {"state": "running", "queued": 1}}}
        )
        clock.advance(0.1)
        monitor.record_heartbeat(
            "w0", 2, {"modules": {"b": {"state": "stopped", "queued": 0}}}
        )
        modules = monitor.snapshot()["modules"]
        assert "a" not in modules and modules["b"]["state"] == "stopped"

    def test_malformed_payload_tolerated(self, monitor, clock):
        monitor.record_heartbeat("w0", 1, {"modules": "garbage"})
        monitor.record_heartbeat("w0", 2, {})
        assert monitor.status_of("w0") == STATUS_HEALTHY


class TestWaitForStatus:
    def test_returns_immediately_on_match(self, monitor, clock):
        beat(monitor, clock, n=1)
        assert (
            monitor.wait_for_status("w0", (STATUS_HEALTHY,), timeout=0.1)
            == STATUS_HEALTHY
        )

    def test_times_out_with_current_status(self, monitor, clock):
        status = monitor.wait_for_status("w0", (STATUS_DEAD,), timeout=0.0)
        assert status == STATUS_UNKNOWN
