"""Tests for activation records and process state (repro.state.frames)."""

import pytest

from repro.errors import DecodingError, MachineCompatibilityError, RestoreError
from repro.runtime.mh import MH
from repro.state.frames import (
    STATE_MAGIC,
    STATE_VERSION,
    ActivationRecord,
    ProcessState,
    StackState,
    frames_equal_ignoring_order_metadata,
)
from repro.state.pointers import SymbolicPointer


def make_record(procedure="compute", location=3, fmt="lllF", values=None):
    return ActivationRecord(
        procedure=procedure,
        location=location,
        fmt=fmt,
        values=values if values is not None else [3, 4, 2, 7.5],
    )


class TestActivationRecord:
    def test_validates_on_construction(self):
        with pytest.raises(Exception):
            ActivationRecord(procedure="f", location=1, fmt="ll", values=[1])

    def test_paper_shape(self):
        # Figure 4: mh_capture("lllF", 3, num, n, *rp)
        record = make_record()
        assert record.location == 3
        assert record.values[0] == record.location


class TestStackState:
    def test_capture_order_is_top_first(self):
        stack = StackState()
        stack.push_captured(make_record(location=4))  # top frame (point R)
        stack.push_captured(make_record(location=3))  # middle
        stack.push_captured(make_record("main", 1, "llF", [1, 4, 0.0]))
        assert stack.depth == 3
        # Restore pops outermost (main) first.
        assert stack.pop_for_restore().procedure == "main"
        assert stack.pop_for_restore().location == 3
        assert stack.pop_for_restore().location == 4

    def test_pop_empty_raises(self):
        with pytest.raises(DecodingError):
            StackState().pop_for_restore()

    def test_call_chain(self):
        stack = StackState()
        stack.push_captured(make_record("compute", 4))
        stack.push_captured(make_record("compute", 3))
        stack.push_captured(make_record("main", 1, "llF", [1, 2, 0.0]))
        assert stack.call_chain() == ["main", "compute", "compute"]

    def test_equality(self):
        a = StackState([make_record()])
        b = StackState([make_record()])
        assert a == b
        assert frames_equal_ignoring_order_metadata(a, b)

    def test_peek(self):
        stack = StackState()
        assert stack.peek_for_restore() is None
        stack.push_captured(make_record())
        assert stack.peek_for_restore() is not None


class TestProcessState:
    def make_state(self):
        stack = StackState()
        for location in (4, 3, 3):
            stack.push_captured(make_record(location=location))
        stack.push_captured(make_record("main", 1, "llF", [1, 4, 0.0]))
        return ProcessState(
            module="compute",
            stack=stack,
            statics={"total": 12, "label": "x"},
            heap={"image": {"roots": {}, "segments": {}}, "files": []},
            reconfig_point="R",
            source_machine="alpha",
        )

    def test_roundtrip(self):
        state = self.make_state()
        packet = state.to_bytes()
        restored = ProcessState.from_bytes(packet)
        assert restored.module == "compute"
        assert restored.reconfig_point == "R"
        assert restored.source_machine == "alpha"
        assert restored.status == "clone"
        assert restored.statics == state.statics
        assert restored.stack.depth == 4
        assert frames_equal_ignoring_order_metadata(restored.stack, state.stack)

    def test_magic_checked(self):
        packet = self.make_state().to_bytes()
        with pytest.raises(DecodingError, match="magic"):
            ProcessState.from_bytes(b"XXXX" + packet[4:])

    def test_version_checked(self):
        packet = bytearray(self.make_state().to_bytes())
        packet[len(STATE_MAGIC)] = 99
        with pytest.raises(DecodingError, match="version"):
            ProcessState.from_bytes(bytes(packet))

    def test_version_1_heap_layout_is_refused(self, sparc):
        # Version 1 wrapped every heap segment as ["dict", [[k, v], ...]];
        # such a packet must be refused whole, never half-installed.
        state = self.make_state()
        state.heap = {
            "image": {
                "roots": {"store": SymbolicPointer("heap:0", 0)},
                "segments": {"heap:0": ["dict", [["k", "v"]]]},
            },
            "files": [],
        }
        packet = bytearray(state.to_bytes(sparc))
        assert packet[len(STATE_MAGIC)] == STATE_VERSION == 3
        packet[len(STATE_MAGIC)] = 1
        with pytest.raises(DecodingError, match="unsupported process state version 1"):
            ProcessState.from_bytes(bytes(packet), sparc)
        clone = MH("compute", sparc, status="clone")
        clone.incoming_packet = bytes(packet)
        with pytest.raises(DecodingError, match="version 1"):
            clone.decode()
        assert clone.heap == {} and clone.statics == {}
        assert not clone.restoring
        with pytest.raises(RestoreError, match="before decode"):
            clone.restore("main")

    def test_length_checked(self):
        packet = self.make_state().to_bytes()
        with pytest.raises(DecodingError, match="length|truncated|short"):
            ProcessState.from_bytes(packet[:-2])

    def test_too_short(self):
        with pytest.raises(DecodingError, match="short"):
            ProcessState.from_bytes(b"MH")

    def test_trailing_garbage(self):
        packet = self.make_state().to_bytes()
        with pytest.raises(DecodingError):
            ProcessState.from_bytes(packet + b"zz")

    def test_translate_across_machines(self, sparc, vax):
        state = self.make_state()
        moved = state.translate(sparc, vax)
        assert moved.statics == state.statics
        assert moved.stack.depth == state.stack.depth

    def test_translate_rejects_unrepresentable(self, sparc, vax):
        state = self.make_state()
        state.statics["wide"] = 2**40
        # 'a'-encoded statics infer 'l'; vax longs are 32-bit.
        with pytest.raises(MachineCompatibilityError):
            state.translate(sparc, vax)

    def test_summary_mentions_chain(self):
        text = self.make_state().summary()
        assert "main -> compute" in text
        assert "depth=4" in text


def _with_body(packet: bytes, body: bytes) -> bytes:
    # The same fixed header with the length word patched to the new body,
    # so the framing check passes and only the body is at fault.
    header = packet[: len(STATE_MAGIC) + 1]
    return header + len(body).to_bytes(4, "big") + body


class TestEagerDecode:
    """``from_bytes`` decodes every frame before it returns.

    A packet whose framing is sound but whose frame region is not is
    refused by ``from_bytes`` itself, not at the first touch of a frame.
    """

    BODY = len(STATE_MAGIC) + 5

    def packet(self, machine=None):
        return TestProcessState().make_state().to_bytes(machine)

    def test_truncated_frame_region_refused(self):
        packet = self.packet()
        with pytest.raises(DecodingError, match="truncated abstract state"):
            ProcessState.from_bytes(_with_body(packet, packet[self.BODY : -4]))

    def test_corrupt_frame_region_refused(self):
        packet = bytearray(self.packet())
        # The last frame ends with main's 'F' local: tag plus 8 bytes.
        assert packet[-9] == ord("F")
        packet[-9] = ord("z")
        with pytest.raises(DecodingError, match="unknown tag 'z'"):
            ProcessState.from_bytes(bytes(packet))

    def test_trailing_bytes_after_last_frame_refused(self):
        packet = self.packet()
        forged = _with_body(packet, packet[self.BODY :] + b"\x6e\x6e")
        with pytest.raises(
            DecodingError, match="2 trailing bytes in process state packet"
        ):
            ProcessState.from_bytes(forged)

    def test_unrepresentable_frame_value_refused_for_target(self, sparc, vax):
        state = TestProcessState().make_state()
        state.stack.push_captured(make_record(values=[3, 2**40, 0, 0.0]))
        packet = state.to_bytes(sparc)
        with pytest.raises(
            MachineCompatibilityError,
            match="integer 1099511627776 does not fit a 32-bit native long "
            "on machine 'vax-like'",
        ):
            ProcessState.from_bytes(packet, vax)
        assert ProcessState.from_bytes(packet, sparc).stack.depth == 5
