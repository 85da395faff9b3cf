"""Tests for activation records and process state (repro.state.frames)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    CaptureError,
    DecodingError,
    FormatError,
    MachineCompatibilityError,
    RestoreError,
)
from repro.runtime.mh import MH
from repro.state.format import check_arity, parse_format
from repro.state.frames import (
    STATE_MAGIC,
    STATE_VERSION,
    ActivationRecord,
    ProcessState,
    StackState,
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
        # Construction is unchecked; the record is validated, once, when
        # it is encoded.
        record = ActivationRecord(procedure="f", location=1, fmt="ll", values=[1])
        with pytest.raises(Exception):
            ProcessState(module="m", stack=StackState([record])).to_bytes()

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
        assert a != StackState([make_record(location=4)])

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
        assert restored.stack == state.stack

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


# -- validate once: encoding refuses exactly what check_arity refuses -------


class _DuckPointer:
    """The fields of a pointer without its class: 'p' refuses it."""

    segment = "seg"
    index = 0


#: One to three top-level specs over every scalar char, nested in lists,
#: tuples and dicts.
specs = st.recursive(
    st.sampled_from(list("bilfFsBpna")),
    lambda inner: st.one_of(
        inner.map(lambda spec: f"[{spec}]"),
        st.lists(inner, min_size=1, max_size=3).map(lambda s: f"({''.join(s)})"),
        st.tuples(st.sampled_from("sl"), inner).map(lambda kv: "{%s%s}" % kv),
    ),
    max_leaves=4,
)
# Values of every kind, so most draws put a wrong type in some slot.
# Floats stay within binary32 range: an 'f' slot past it fails to pack
# whatever the format says, at the parent and here alike.
values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(width=32),
        st.text(max_size=6),
        st.binary(max_size=6),
        st.builds(SymbolicPointer, st.text(max_size=4), st.integers(-3, 3)),
        st.builds(_DuckPointer),
        st.builds(object),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def captures(draw):
    """A capture block's format and values, arity off by one at times."""
    fmt = "l" + "".join(draw(st.lists(specs, min_size=1, max_size=3)))
    count = len(parse_format(fmt)) - 1
    arity = draw(st.sampled_from([count, count, count, count - 1, count + 1]))
    return fmt, [1] + draw(st.lists(values, min_size=arity, max_size=arity))


@given(case=captures())
@example(case=("lp", [1, _DuckPointer()]))
@example(case=("la", [1, [object()]]))
@example(case=("l[f]", [1, [2, "x"]]))
@example(case=("ll", [1]))
@settings(max_examples=400, deadline=None)
def test_encoding_refuses_exactly_what_check_arity_refuses(case):
    """A frame is checked once, when it is encoded: the packet and
    ``mh.encode`` refuse exactly the frames ``check_arity`` refuses, with
    its ``FormatError`` text, as ``mh.capture`` did when it checked."""
    fmt, frame = case
    try:
        check_arity(fmt, frame)
        expected = None
    except FormatError as exc:
        expected = str(exc)

    record = ActivationRecord("f", 1, fmt, frame)
    try:
        ProcessState(module="m", stack=StackState([record])).to_bytes()
        refused = None
    except FormatError as exc:
        refused = str(exc)
    assert refused == expected

    mh = MH("m")
    mh.begin_reconfig_capture("R")
    mh.capture("f", fmt, *frame)
    mh.capture("main", "l", 1)
    try:
        mh.encode()
        refused = None
    except CaptureError as exc:
        refused = str(exc)
    assert refused == (
        None if expected is None else f"bad capture block in m.f: {expected}"
    )
    assert mh.divulged.is_set() == (expected is None)
