"""Tests for activation records and process state (repro.state.frames)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    CaptureError,
    DecodingError,
    EncodingError,
    FormatError,
    MachineCompatibilityError,
    RestoreError,
)
from repro.runtime.mh import MH
from repro.state import frames
from repro.state.encoding import check_arity, encode_values
from repro.state.format import parse_format
from repro.state.frames import (
    STATE_MAGIC,
    STATE_VERSION,
    ActivationRecord,
    ProcessState,
    StackState,
)
from repro.state.machine import Endianness, MachineProfile
from repro.state.pointers import SymbolicPointer

from tests.state.reference_codec import (
    reference_state_from_bytes,
    reference_state_to_bytes,
)
from tests.state.stacks import DESCEND_FMT, deep_state_stack


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


# -- header runs: a repeated frame header is written and read once -----------


def _headers(state):
    return [(r.procedure, r.location, r.fmt) for r in state.stack]


def _inlined(value) -> bool:
    # What the frame loop reads in place: a NULL slot, or a long or int
    # whose zigzag varint takes one or two bytes.
    return value is None or (type(value) is int and -8192 <= value <= 8191)


class TestFrameRuns:
    def test_run_with_one_changed_field_decodes_like_the_reference(self, sparc, vax):
        idle = [2, 9] + [None] * 5
        records = [
            ActivationRecord("descend", 2, DESCEND_FMT, list(idle)) for _ in range(150)
        ]
        records.append(ActivationRecord("descend", 5, DESCEND_FMT, list(idle)))
        records += [
            ActivationRecord("descend", 2, DESCEND_FMT, [2, n] + [None] * 5)
            for n in range(150)
        ]
        records.append(ActivationRecord("ascend", 2, DESCEND_FMT, list(idle)))
        records.append(ActivationRecord("main", 1, "l", [1]))
        state = ProcessState(module="m", stack=StackState(records))
        packet = state.to_bytes(sparc)
        assert packet == reference_state_to_bytes(state, sparc)
        ours = ProcessState.from_bytes(packet, vax)
        ref = reference_state_from_bytes(packet, vax)
        assert ours.stack == ref.stack == state.stack
        assert _headers(ours)[149:152] == [
            ("descend", 2, DESCEND_FMT),
            ("descend", 5, DESCEND_FMT),
            ("descend", 2, DESCEND_FMT),
        ]
        assert _headers(ours)[-2] == ("ascend", 2, DESCEND_FMT)

    def test_an_equal_float_location_does_not_borrow_the_runs_header(self):
        # 3.0 == 3, but a float location cannot be written as a header;
        # it is refused inside a run as it is on its own, as the reference
        # codec refuses it.
        for records in (
            [make_record(location=3.0)],
            [make_record(location=3), make_record(location=3.0)],
        ):
            with pytest.raises(EncodingError, match="format 'l' requires int, got 3.0"):
                ProcessState(module="m", stack=StackState(records)).to_bytes()

    def test_unrepresentable_long_in_a_repeated_frame(self, sparc, vax):
        records = [
            ActivationRecord("descend", 2, DESCEND_FMT, [2, n] + [None] * 5)
            for n in (1, 2, 2**40, 4)
        ]
        packet = ProcessState(module="m", stack=StackState(records)).to_bytes(sparc)
        with pytest.raises(
            MachineCompatibilityError,
            match="integer 1099511627776 does not fit a 32-bit native long "
            "on machine 'vax-like'",
        ):
            ProcessState.from_bytes(packet, vax)

    def test_in_place_longs_and_ints_pass_the_target_check(self):
        seen = []

        def check(kind):
            return lambda value: seen.append((kind, value))

        target = MachineProfile("spy", Endianness.BIG, int_bits=32, long_bits=64)
        object.__setattr__(target, "_codec_checks", (check("i"), check("l"), None))
        records = [
            ActivationRecord("f", 2, "lli", [2, n, -n]) for n in (1, 100, 8191)
        ]
        packet = ProcessState(module="m", stack=StackState(records)).to_bytes()
        ProcessState.from_bytes(packet, target)
        assert seen == [
            ("l", 2),  # the location, once for the run's one header
            ("l", 2), ("l", 1), ("i", -1),
            ("l", 2), ("l", 100), ("i", -100),
            ("l", 2), ("l", 8191), ("i", -8191),
        ]

    @pytest.mark.parametrize("depth", [64, 256])
    def test_deep_run_reads_headers_once(self, monkeypatch, sparc, depth):
        calls = []
        read = frames._read_checked

        def counting(*args):
            calls.append(args[1])
            return read(*args)

        state = ProcessState(module="m", stack=deep_state_stack(depth))
        packet = state.to_bytes(sparc)
        monkeypatch.setattr(frames, "_read_checked", counting)
        decoded = ProcessState.from_bytes(packet, sparc)
        assert decoded.stack == state.stack
        runs = 1 + sum(
            a != b for a, b in zip(_headers(state), _headers(state)[1:])
        )
        out_of_place = sum(
            not _inlined(value) for record in state.stack for value in record.values
        )
        # Seven packet fields, three per header run, one per value the
        # frame loop does not read in place: 21 at any depth (the
        # per-field read made about ten calls per frame, 2570 at 256).
        assert len(calls) == 7 + 3 * runs + out_of_place == 21


class TestNullableHeaderFields:
    def test_a_none_field_decodes_to_the_default(self):
        packet = ProcessState(
            module="m", reconfig_point=None, source_machine=None
        ).to_bytes()
        for decoded in (
            ProcessState.from_bytes(packet),
            reference_state_from_bytes(packet),
        ):
            assert decoded.reconfig_point == "" and decoded.source_machine == ""

    def test_a_str_field_is_kept(self):
        packet = ProcessState(
            module="m", reconfig_point="None", source_machine="vax-like"
        ).to_bytes()
        for decoded in (
            ProcessState.from_bytes(packet),
            reference_state_from_bytes(packet),
        ):
            assert decoded.reconfig_point == "None"
            assert decoded.source_machine == "vax-like"

    @pytest.mark.parametrize("field", ["reconfig_point", "source_machine"])
    def test_an_int_field_is_refused(self, field):
        fields = {"reconfig_point": "Q", "source_machine": "sparc-like"}
        fields[field] = 7
        body = (
            encode_values("ss", ["m", "clone"])
            + encode_values("aa", [fields["reconfig_point"], fields["source_machine"]])
            + encode_values("aal", [{}, {}, 0])
        )
        packet = _with_body(ProcessState(module="m").to_bytes(), body)
        message = f"corrupt process state field {field!r}"
        with pytest.raises(DecodingError, match=message):
            ProcessState.from_bytes(packet)
        with pytest.raises(DecodingError, match=message):
            reference_state_from_bytes(packet)
