"""The flight recorder through a real ``replace()``.

A successful Figure-1 monitor move must render as one span tree rooted
at ``reconfig.replace`` covering every coordinator stage plus the MH
capture/encode/decode/restore work done on module threads; a persistent
injected fault must leave the rollback, the retries, and the abort's
identity (reconfiguration id + attempt count) in the log.  Fan-out bus
counters and the disabled-mode structural guarantee are checked on the
bench-style bus.
"""

from __future__ import annotations

import threading

import pytest

from repro.bus.message import Message
from repro.bus.queues import MessageQueue
from repro.errors import InjectedFault, ReconfigurationAborted
from repro.reconfig.scripts import move_module
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, fault_plan

from benchmarks.bench_a4_bus_throughput import build as build_fanout_bus
from tests.reconfig.helpers import (
    feed_sensor,
    kv_reply,
    kv_send,
    launch_manual_kv,
    launch_manual_monitor,
    wait_signalled,
)

#: Every stage the coordinator runs on the commit path, in order.
COMMIT_STAGES = (
    "clone_build",
    "signal",
    "wait_point",
    "rebind",
    "start_clone",
    "health_check",
    "commit",
)

#: Module-thread work that must attach to the replace tree via the
#: ambient root (it has no local parent on its own thread).
MH_SPANS = ("mh.capture", "mh.encode", "mh.decode", "mh.restore")


@pytest.fixture
def recorder():
    rec = telemetry.enable(capacity=8192)
    yield rec
    telemetry.disable()


def move_in_background(bus, instance, feed, **kwargs):
    """Run ``move_module`` on a thread, driving the app with ``feed``."""
    outcome = {}

    def run():
        try:
            outcome["report"] = move_module(bus, instance, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - asserted by caller
            outcome["error"] = exc

    worker = threading.Thread(target=run, name="telemetry-move")
    worker.start()
    try:
        feed()
    finally:
        worker.join(timeout=30)
    assert not worker.is_alive(), "replace thread wedged"
    return outcome


class TestSuccessfulReplaceTree:
    def test_monitor_move_renders_one_complete_span_tree(self, recorder):
        bus = launch_manual_monitor(requests=2, group_size=2)
        try:

            def feed():
                wait_signalled(bus, "compute")
                feed_sensor(bus, 1)

            outcome = move_in_background(
                bus, "compute", feed, machine="beta", timeout=15
            )
            # Building the clone leaves the table alone; the hand-over
            # drops it, so the first write after the move rebuilds it.
            feed_sensor(bus, 2)
        finally:
            bus.shutdown()

        report = outcome["report"]
        assert report.recon_id.startswith("rc-")
        assert set(report.stage_attempts) == set(COMMIT_STAGES)
        assert all(n == 1 for n in report.stage_attempts.values())

        (root,) = recorder.spans(name="reconfig.replace")
        assert root["recon"] == report.recon_id
        assert root["parent"] is None
        assert root["attrs"]["instance"] == "compute"
        assert root["attrs"]["new_machine"] == "beta"

        # every coordinator stage is a direct child of the replace root
        for stage in COMMIT_STAGES:
            (span,) = recorder.spans(recon=report.recon_id, name=f"stage.{stage}")
            assert span["parent"] == root["sid"], stage
        assert not recorder.spans(recon=report.recon_id, name="stage.rollback")

        # module-thread MH work attaches to the same tree via the
        # ambient root, from threads other than the coordinator's
        mh_spans = {}
        for name in MH_SPANS:
            (span,) = recorder.spans(recon=report.recon_id, name=name)
            assert span["thread"] != root["thread"], name
            mh_spans[name] = span
        assert mh_spans["mh.capture"]["parent"] == root["sid"]
        assert mh_spans["mh.decode"]["parent"] == root["sid"]
        assert mh_spans["mh.restore"]["parent"] == root["sid"]
        # encode happens while the capture span is still open on the old
        # module's thread, so it nests under capture, not the root
        assert mh_spans["mh.encode"]["parent"] == mh_spans["mh.capture"]["sid"]

        # the clone build traces its module load under the stage span
        (load,) = recorder.spans(recon=report.recon_id, name="module.load")
        (clone_build,) = recorder.spans(
            recon=report.recon_id, name="stage.clone_build"
        )
        assert load["parent"] == clone_build["sid"]

        # the state packet is measured at both ends
        (encode,) = recorder.spans(recon=report.recon_id, name="mh.encode")
        assert encode["attrs"]["bytes"] == report.packet_bytes
        assert recorder.counter("mh.packets_encoded", key="compute") == 1
        assert recorder.counter("mh.packets_decoded", key="compute") == 1
        assert recorder.counter("reconfig.commits") == 1
        assert recorder.counter("reconfig.rollbacks") == 0
        assert recorder.counter_total("bus.routed") > 0
        assert recorder.counter("bus.routing_rebuild") >= 2  # launch + rebind

    def test_exported_tree_is_renderable_by_stats(self, recorder, tmp_path):
        """The dump round-trips through the stats CLI's renderer."""
        from repro.tools import stats

        bus = launch_manual_monitor(requests=2, group_size=2)
        try:

            def feed():
                wait_signalled(bus, "compute")
                feed_sensor(bus, 1)

            outcome = move_in_background(
                bus, "compute", feed, machine="beta", timeout=15
            )
        finally:
            bus.shutdown()
        recon = outcome["report"].recon_id

        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        records = stats.load_records(str(path))
        spans, _events, counters = stats.split_records(records, recon=recon)
        tree = stats.render_tree(spans)
        lines = tree.splitlines()
        assert lines[0].startswith(f"reconfig.replace [{recon}]")
        for stage in COMMIT_STAGES:
            assert f"  stage.{stage}" in tree
        assert "mh.encode" in tree and "mh.restore" in tree
        assert "repro_reconfig_commits_total 1" in stats.prometheus_text(counters)


class TestAbortedReplaceTree:
    def test_persistent_rebind_fault_logs_retries_and_rollback(self, recorder):
        bus = launch_manual_kv()
        plan = FaultPlan("telemetry-rebind").schedule(
            "coordinator.rebind", "crash", times=99
        )
        try:
            with fault_plan(plan):

                def feed():
                    wait_signalled(bus, "shard")
                    kv_send(bus, "put", "k1", "v1")
                    assert kv_reply(bus) == ("k1", "v1")

                outcome = move_in_background(
                    bus, "shard", feed, machine="beta", timeout=10
                )
        finally:
            bus.shutdown()

        error = outcome["error"]
        assert isinstance(error, ReconfigurationAborted)
        recon = error.recon_id
        assert recon.startswith("rc-")
        assert error.report.recon_id == recon
        assert error.report.stage_attempts["rebind"] == 3
        # satellite contract: the abort's args carry (message, id, attempts)
        assert error.args == (str(error), recon, 3)
        assert f"[{recon}, attempt 3]" in str(error)

        # three rebind attempts, each marked failed, under one root
        (root,) = recorder.spans(name="reconfig.replace")
        assert root["recon"] == recon
        assert root["attrs"]["error"] == "ReconfigurationAborted"
        rebinds = recorder.spans(recon=recon, name="stage.rebind")
        assert [s["attrs"]["attempt"] for s in rebinds] == [1, 2, 3]
        assert all(s["attrs"]["error"] == "InjectedFault" for s in rebinds)
        assert all(s["parent"] == root["sid"] for s in rebinds)
        (rollback,) = recorder.spans(recon=recon, name="stage.rollback")
        assert rollback["parent"] == root["sid"]
        assert not recorder.spans(recon=recon, name="stage.commit")

        # one count per transient failure (mirrors report.retries)
        assert recorder.counter("reconfig.retries", key="rebind") == 3
        assert recorder.counter("reconfig.rollbacks") == 1
        assert recorder.counter("reconfig.aborts") == 1
        assert recorder.counter("faults.fired", key="coordinator.rebind") == 3

        fired = [
            e
            for e in recorder.events(recon=recon)
            if e["type"] == "event" and e["kind"] == "fault.fired"
        ]
        assert len(fired) == 3
        aborts = [
            e
            for e in recorder.events(recon=recon)
            if e["type"] == "event" and e["kind"] == "reconfig.abort"
        ]
        assert len(aborts) == 1
        assert aborts[0]["attrs"]["stage"] == "rebind"

    def test_abort_carries_recon_id_with_telemetry_disabled(self):
        """Ids are minted independently of the recorder: aborts stay
        attributable even when nothing is recording."""
        assert telemetry.recorder is None
        bus = launch_manual_kv()
        plan = FaultPlan("no-recorder-rebind").schedule(
            "coordinator.rebind", "crash", times=99
        )
        try:
            with fault_plan(plan):

                def feed():
                    wait_signalled(bus, "shard")
                    kv_send(bus, "put", "k1", "v1")
                    assert kv_reply(bus) == ("k1", "v1")

                outcome = move_in_background(
                    bus, "shard", feed, machine="beta", timeout=10
                )
        finally:
            bus.shutdown()
        error = outcome["error"]
        assert isinstance(error, ReconfigurationAborted)
        assert isinstance(error.cause, InjectedFault)
        assert error.recon_id.startswith("rc-")
        assert error.attempts == 3


class TestOneRecordPath:
    """Every span is recorded: there is no sampler to drop a tree."""

    def test_every_top_level_span_is_recorded(self, recorder):
        for _ in range(64):
            with telemetry.span("app.outer"):
                with telemetry.span("app.inner"):
                    pass
        outers = recorder.spans(name="app.outer")
        inners = recorder.spans(name="app.inner")
        assert len(outers) == len(inners) == 64
        assert {s["parent"] for s in inners} == {s["sid"] for s in outers}

    @pytest.mark.parametrize("sample", [0, 2, 16])
    def test_enable_accepts_only_sample_1(self, sample):
        with pytest.raises(ValueError):
            telemetry.enable(sample=sample)
        assert telemetry.recorder is None


class TestBusCounters:
    def test_fanout_counts_one_route_per_send_one_delivery_per_receiver(
        self, recorder
    ):
        bus, names = build_fanout_bus(receivers=8)
        try:
            message = Message(
                values=[7], fmt="l", source_instance="sender", source_interface="out"
            )
            for _ in range(10):
                bus.route("sender", "out", message)
            endpoint = "sender.out"
            # bus.routed is derived lazily from queue cells — the count
            # is exact per route() call regardless of fan-out width.
            assert recorder.counter("bus.routed", key=endpoint) == 10
            # bus.delivered is keyed by *receiving queue* now (the
            # queues count their own puts in-lock): one key per
            # receiver, 10 each, 80 total.
            delivered = {
                k: v
                for (n, k), v in recorder.counters().items()
                if n == "bus.delivered"
            }
            assert delivered == {f"{name}.inp": 10 for name in names}
            assert recorder.counter_total("bus.delivered") == 80
            assert recorder.counter_total("bus.dropped") == 0
            # queue high-water marks were sampled on the enabled path
            hwm = {k: v for (n, k), v in recorder.gauges().items() if n == "queue.hwm"}
            assert len(hwm) == len(names)
            assert all(value >= 9 for value in hwm.values())
        finally:
            bus.shutdown()

    def test_disabled_routing_table_holds_raw_queue_puts(self):
        """With no recorder, rebuilt route entries deliver through the
        raw bound ``MessageQueue.put`` — zero telemetry instructions."""
        assert telemetry.recorder is None
        bus, _ = build_fanout_bus(receivers=2)
        try:
            table = bus._rebuild_routing()
            entry = table["sender"]["out"]
            assert entry.groups is None
            assert len(entry.puts) == 2
            for put in entry.puts:
                assert getattr(put, "__func__", None) is MessageQueue.put
        finally:
            bus.shutdown()


class TestFaultPlanSeeds:
    """Satellite: every dumped FaultPlan artifact records a seed."""

    def test_explicit_schedule_inherits_ambient_seed(self, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_CHAOS_SEED", "1993")
        plan = FaultPlan("explicit").schedule("coordinator.rebind", "crash")
        assert plan.seed == 1993
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        assert json.loads(path.read_text())["seed"] == 1993

    def test_explicit_seed_wins_over_ambient(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "1993")
        assert FaultPlan("pinned", seed=7).seed == 7
        assert FaultPlan.seeded(5).seed == 5

    def test_no_ambient_seed_stays_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
        assert FaultPlan("bare").seed is None
        monkeypatch.setenv("REPRO_CHAOS_SEED", "not-a-number")
        assert FaultPlan("bad-env").seed is None
