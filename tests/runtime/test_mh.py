"""Tests for the MH runtime (repro.runtime.mh): the capture/restore protocol."""

import threading

import pytest

from repro.bus.host import ModuleHost
from repro.bus.machine import Host
from repro.bus.module import prepared_source_for
from repro.bus.spec import ModuleSpec
from repro.errors import (
    CaptureError,
    InjectedFault,
    RestoreError,
    RuntimeStateError,
)
from repro.runtime.faults import FaultPlan, fault_plan
from repro.runtime.mh import MH, ModuleStop, SleepPolicy
from repro.runtime.refs import Ref
from repro.state.frames import ProcessState
from repro.state.machine import MACHINES


def captured_mh(machine=None, depth=2):
    """An MH that has completed a capture of main -> compute^depth."""
    mh = MH("compute", machine)
    mh.begin_reconfig_capture("R")
    mh.capture("compute", "lllF", 4, 1, 0, 0.0)
    for level in range(depth - 1):
        mh.capture("compute", "lllF", 3, 1, level + 1, 0.0)
    mh.capture("main", "llF", 1, depth, 0.0)
    mh.encode()
    return mh


def divulge(mh):
    """Run one capture of main to its divulge."""
    mh.request_reconfig()
    mh.begin_reconfig_capture("P")
    mh.capture("main", "l", 1)
    return mh.encode()


class TestFlags:
    def test_initial_flags(self):
        mh = MH("m")
        assert not mh.reconfig
        assert not mh.capturestack
        assert not mh.restoring

    def test_signal_handler_sets_flag_only(self):
        # Figure 4: void mh_catchreconfig() { mh_reconfig = 1; }
        mh = MH("m")
        mh.catch_reconfig()
        assert mh.reconfig
        assert not mh.capturestack

    def test_begin_reconfig_capture_flag_handoff(self):
        # Figure 7: the reconfig block clears its flag and arms capturestack.
        mh = MH("m")
        mh.catch_reconfig()
        mh.begin_reconfig_capture("R")
        assert not mh.reconfig
        assert mh.capturestack


class TestCaptureProtocol:
    def test_capture_then_encode(self, sparc):
        mh = captured_mh(sparc)
        assert mh.divulged.is_set()
        assert mh.outgoing_packet is not None
        state = ProcessState.from_bytes(mh.outgoing_packet)
        assert state.module == "compute"
        assert state.reconfig_point == "R"
        assert state.source_machine == "sparc-like"
        assert state.stack.call_chain()[0] == "main"

    def test_capture_requires_location(self):
        mh = MH("m")
        mh.begin_reconfig_capture("R")
        with pytest.raises(CaptureError):
            mh.capture("f", "")

    def test_capture_location_must_be_int(self):
        mh = MH("m")
        mh.begin_reconfig_capture("R")
        with pytest.raises(CaptureError):
            mh.capture("f", "lF", 1.5, 2.0)

    def test_capture_bad_format_is_loud(self):
        # The frame is refused when the capture is encoded, on the
        # module's thread, before anything is divulged.
        mh = MH("m")
        mh.begin_reconfig_capture("R")
        mh.capture("f", "ll", 1, "not an int")
        with pytest.raises(CaptureError, match="bad capture block"):
            mh.encode()
        assert mh.outgoing_packet is None and not mh.divulged.is_set()

    def test_encode_outside_capture(self):
        mh = MH("m")
        with pytest.raises(CaptureError):
            mh.encode()

    def test_encode_clears_capturestack(self, sparc):
        mh = captured_mh(sparc)
        assert not mh.capturestack

    def test_statics_and_heap_travel(self):
        mh = MH("m")
        mh.statics["count"] = 42
        mh.heap["buffer"] = [1, 2, [3]]
        mh.begin_reconfig_capture("P")
        mh.capture("main", "l", 1)
        packet = mh.encode()

        clone = MH("m", status="clone")
        clone.incoming_packet = packet
        clone.decode()
        assert clone.statics["count"] == 42
        assert clone.heap["buffer"] == [1, 2, [3]]

    def test_heap_hooks_roundtrip(self):
        class Counter:
            def __init__(self, n):
                self.n = n

        mh = MH("m")
        mh.register_heap_hook("c", lambda c: c.n, lambda n: Counter(n))
        mh.heap["c"] = Counter(9)
        mh.begin_reconfig_capture("P")
        mh.capture("main", "l", 1)
        packet = mh.encode()

        clone = MH("m", status="clone")
        clone.register_heap_hook("c", lambda c: c.n, lambda n: Counter(n))
        clone.incoming_packet = packet
        clone.decode()
        assert isinstance(clone.heap["c"], Counter)
        assert clone.heap["c"].n == 9

    def test_divulge_callback(self):
        # encode sets one event for either outcome, then runs the hook a
        # host sets once; the hook survives a revival.
        seen = []
        mh = MH("m")
        mh.on_divulge_settled = lambda: seen.append(
            (mh.divulged.is_set(), mh.divulge_failed)
        )
        packet = divulge(mh)
        assert mh.divulge_settled.is_set() and mh.divulged.is_set()
        assert seen == [(True, None)]
        mh.prepare_revival(packet)
        assert not mh.divulge_settled.is_set()
        with fault_plan(FaultPlan().schedule("mh.encode", "crash")):
            divulge(mh)
        assert mh.divulge_settled.is_set() and not mh.divulged.is_set()
        assert seen[1] == (False, mh.divulge_failed)
        assert isinstance(mh.divulge_failed, InjectedFault)

    def test_a_dropped_divulge_settles_nothing(self):
        mh = MH("m")
        with fault_plan(FaultPlan().schedule("mh.encode", "drop")):
            divulge(mh)
        assert mh.outgoing_packet is not None
        assert not mh.divulge_settled.is_set()

    def test_host_pushes_each_divulge_outcome(self):
        # The hook ModuleHost sets at add pushes the packet with its frame
        # count, and still does after a revival, with no re-arming.
        events = []
        host = ModuleHost(
            "unit-host",
            Host("unit-host", MACHINES["modern-64"]),
            SleepPolicy(scale=0.0),
            events.append,
        )
        spec = ModuleSpec(name="m", inline_source="def main():\n    pass\n")
        try:
            host.handle(
                "add", ["m#1", "m", spec.to_abstract(prepared_source_for(spec)), "original", None]
            )
            mh = host.modules["m#1"].mh
            packet = divulge(mh)
            mh.prepare_revival(packet)
            with fault_plan(FaultPlan().schedule("mh.encode", "crash")):
                divulge(mh)
        finally:
            host.stop_all()
        assert events[0] == ["divulged", "m#1", packet, 1]
        assert events[1][:2] == ["divulge_failed", "m#1"]
        assert events[1][2].startswith("InjectedFault")


class TestWithdrawnSignal:
    def test_abandon_clears_the_flag(self):
        mh = MH("m")
        mh.request_reconfig()
        mh.abandon_divulge()
        assert not mh.reconfig

    def test_an_abandoned_capture_divulges_to_nobody(self):
        # The capture raced past the signal check before the withdrawal:
        # its packet goes back to the module's own thread.
        seen = []
        mh = MH("m")
        mh.on_divulge_settled = lambda: seen.append(True)
        mh.request_reconfig()
        mh.begin_reconfig_capture("P")
        mh.abandon_divulge()
        mh.capture("main", "l", 1)
        packet = mh.encode()
        assert not mh.divulged.is_set() and not mh.divulge_settled.is_set()
        assert seen == []
        assert mh.reclaim_abandoned_divulge() == packet

    def test_a_signal_after_an_abandoned_one_divulges(self):
        seen = []
        mh = MH("m")
        mh.on_divulge_settled = lambda: seen.append(True)
        mh.request_reconfig()
        mh.abandon_divulge()  # the module never reached its point
        divulge(mh)
        assert mh.divulged.is_set() and mh.divulge_settled.is_set()
        assert seen == [True]
        assert mh.reclaim_abandoned_divulge() is None  # no self-revival


class TestRestoreProtocol:
    def test_full_roundtrip(self, sparc, vax):
        packet = captured_mh(sparc, depth=3).outgoing_packet
        clone = MH("compute", vax, status="clone")
        clone.incoming_packet = packet
        clone.decode()
        assert clone.restoring
        assert clone.restore("main") == [1, 3, 0.0]
        assert clone.restore("compute") == [3, 1, 2, 0.0]
        assert clone.restore("compute") == [3, 1, 1, 0.0]
        assert clone.restore("compute") == [4, 1, 0, 0.0]
        clone.end_restore()
        assert not clone.restoring
        assert clone.getstatus() == "original"

    def test_decode_without_packet(self):
        clone = MH("m", status="clone")
        with pytest.raises(RestoreError, match="no state packet"):
            clone.decode()

    def test_decode_wrong_module(self):
        packet = captured_mh().outgoing_packet
        clone = MH("other", status="clone")
        clone.incoming_packet = packet
        with pytest.raises(RestoreError, match="for module 'compute'"):
            clone.decode()

    def test_restore_before_decode(self):
        clone = MH("compute", status="clone")
        with pytest.raises(RestoreError, match="before decode"):
            clone.restore("main")

    def test_restore_procedure_mismatch(self):
        clone = MH("compute", status="clone")
        clone.incoming_packet = captured_mh().outgoing_packet
        clone.decode()
        with pytest.raises(RestoreError, match="mismatch"):
            clone.restore("compute")  # first frame is main's

    def test_end_restore_with_leftover_frames(self):
        clone = MH("compute", status="clone")
        clone.incoming_packet = captured_mh(depth=2).outgoing_packet
        clone.decode()
        clone.restore("main")
        with pytest.raises(RestoreError, match="unrestored"):
            clone.end_restore()

    def test_bad_restore_location(self):
        mh = MH("m")
        with pytest.raises(RestoreError, match="does not match any"):
            mh.bad_restore_location(99, "main")


class TestRefPacking:
    def test_pack_none(self):
        assert MH.pack_ref(None) is None

    def test_pack_live_cell(self):
        assert MH.pack_ref(Ref(2.5)) == (2.5,)

    def test_pack_cell_holding_none_distinct_from_missing(self):
        assert MH.pack_ref(Ref(None)) == (None,)

    def test_unpack_roundtrip(self):
        cell = MH.unpack_ref(MH.pack_ref(Ref(7)))
        assert isinstance(cell, Ref) and cell.get() == 7
        assert MH.unpack_ref(MH.pack_ref(None)) is None

    def test_unpack_malformed(self):
        with pytest.raises(RestoreError):
            MH.unpack_ref((1, 2))


class TestLifecycle:
    def test_running_and_stop(self):
        mh = MH("m")
        assert mh.running
        mh.stop()
        assert not mh.running
        with pytest.raises(ModuleStop):
            mh.check_stop()

    def test_sleep_scaled_to_zero_is_fast(self):
        import time

        mh = MH("m", sleep_policy=SleepPolicy(scale=0.0))
        start = time.monotonic()
        mh.sleep(100)
        assert time.monotonic() - start < 0.5

    def test_sleep_interrupted_by_stop(self):
        mh = MH("m", sleep_policy=SleepPolicy(scale=1.0))
        timer = threading.Timer(0.05, mh.stop)
        timer.start()
        with pytest.raises(ModuleStop):
            mh.sleep(30)
        timer.cancel()

    def test_messaging_without_port(self):
        mh = MH("m")
        with pytest.raises(RuntimeStateError, match="not attached"):
            mh.write("out", "i", 1)

    def test_reconfig_point_marker_is_noop(self):
        MH("m").reconfig_point("R")  # untransformed source must run

    def test_status(self):
        assert MH("m").getstatus() == "original"
        assert MH("m", status="clone").getstatus() == "clone"
