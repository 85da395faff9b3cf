"""Hardening tests: corrupt inputs and defensive limits."""

import pytest

from repro.bus.message import Message
from repro.errors import (
    DecodingError,
    EncodingError,
    FormatError,
    MachineCompatibilityError,
)
from repro.state.encoding import (
    _append_varint,
    decode_any,
    decode_values,
    encode_values,
    write_any,
)
from repro.state.frames import STATE_MAGIC, ActivationRecord, ProcessState, StackState
from repro.state.machine import MACHINES, Endianness

from tests.state.reference_codec import (
    reference_state_from_bytes,
    reference_state_to_bytes,
)


class TestDecoderDefenses:
    def test_runaway_varint_rejected(self):
        # A stream of continuation bits must not loop forever.
        poison = b"s" + b"\xff" * 2000
        with pytest.raises(DecodingError):
            decode_values(poison)

    def test_negative_length_impossible(self):
        # Lengths are unsigned varints by construction; a huge announced
        # length hits the truncation guard instead of allocating.
        data = b"B\xff\xff\xff\xff\x0f" + b"x"
        with pytest.raises(DecodingError):
            decode_values(data)

    def test_empty_container_tags(self):
        buf = bytearray()
        for value in ([], (), {}):
            write_any(buf, value, None)
        assert decode_values(bytes(buf)) == [[], (), {}]

    def test_encoder_varint_negative_rejected(self):
        with pytest.raises(EncodingError):
            _append_varint(bytearray(), -1)


#: One value each whose string bytes are not UTF-8: an 's' payload, a
#: 'p' segment, a '{' key and a packed '}' payload.
BAD_UTF8 = [
    b"s\x02\xff\xfe",
    b"p\x02\xff\xfe\x00",
    b"{\x01s\x01\xffs\x01a",
    b"}\x01\x03\xff\x00a",
]


class TestInvalidUtf8:
    @pytest.mark.parametrize("data", BAD_UTF8, ids=lambda d: chr(d[0]))
    def test_every_entry_point_raises_decoding_error(self, data):
        with pytest.raises(DecodingError, match="invalid UTF-8"):
            decode_values(data)
        with pytest.raises(DecodingError, match="invalid UTF-8"):
            decode_any(data)

    def test_message_from_wire(self):
        wire = bytearray(encode_values("ssll", ["ab", "out", 1, 5]))
        assert wire[:4] == b"s\x02ab"
        wire[2:4] = b"\xff\xfe"
        with pytest.raises(DecodingError, match="invalid UTF-8"):
            Message.from_wire(bytes(wire), None)

    def test_process_state_packet(self):
        packet = bytearray(ProcessState(module="compute").to_bytes())
        at = packet.index(b"compute")
        packet[at : at + 2] = b"\xff\xfe"
        with pytest.raises(DecodingError, match="invalid UTF-8"):
            ProcessState.from_bytes(bytes(packet))


class TestMessageDefenses:
    def test_short_wire_rejected(self):
        with pytest.raises(DecodingError):
            Message.from_wire(encode_values("s", ["only-one"]), None)

    def test_wire_roundtrip_keeps_binary(self):
        payload = bytes(range(256))
        message = Message(values=[payload], fmt="B",
                          source_instance="a", source_interface="x")
        back = Message.from_wire(message.to_wire(None), None)
        assert back.values == [payload]


class TestEndianness:
    def test_struct_prefixes(self):
        assert Endianness.LITTLE.struct_prefix == "<"
        assert Endianness.BIG.struct_prefix == ">"


class TestNestedNullability:
    def test_nested_none_values(self):
        # NULL slots inside containers survive declared formats.
        data = encode_values("[a]", [[None, 1, None]])
        assert decode_values(data) == [[None, 1, None]]

    def test_tuple_with_nones(self):
        data = encode_values("(aa)", [(None, "x")])
        assert decode_values(data) == [(None, "x")]


#: Start of a state packet's body: magic, version byte, length word.
BODY = len(STATE_MAGIC) + 5


def _reframed(packet: bytes, body: bytes) -> bytes:
    # The packet's own magic and version, the length word patched to the
    # new body, so only the body is at fault.
    return packet[: BODY - 4] + len(body).to_bytes(4, "big") + body


def _run_state(frames: int = 3) -> ProcessState:
    # A run of frames that share one header, then main.
    records = [
        ActivationRecord("descend", 2, "llaa", [2, n, None, "x"])
        for n in range(frames)
    ]
    records.append(ActivationRecord("main", 1, "l", [1]))
    return ProcessState(module="m", stack=StackState(records))


def _outcome(decode, packet):
    try:
        state = decode(packet)
    except (DecodingError, FormatError) as exc:
        return type(exc).__name__  # a typed refusal, and nothing else
    return [(r.procedure, r.location, r.fmt, r.values) for r in state.stack]


class TestFrameRunDefenses:
    def test_a_flipped_header_byte_is_never_read_as_the_previous_header(self):
        state = _run_state(4)
        packet = state.to_bytes()
        header = b"s\x07descendl\x04s\x04llaa"
        starts = []
        at = packet.find(header)
        while at != -1:
            starts.append(at)
            at = packet.find(header, at + 1)
        assert len(starts) == 4
        compared = 0
        for start in starts[1:]:
            for offset in range(len(header)):
                for mask in (0x01, 0x80, 0xFF):
                    forged = bytearray(packet)
                    forged[start + offset] ^= mask
                    forged = bytes(forged)
                    # Both codecs refuse with the same typed error.
                    ours = _outcome(ProcessState.from_bytes, forged)
                    assert ours == _outcome(reference_state_from_bytes, forged)
                    if isinstance(ours, list):
                        # Decoded afresh: the k-th frame is not its
                        # predecessor's header with the old values.
                        assert ours != _outcome(ProcessState.from_bytes, packet)
                        compared += 1
        assert compared  # some flips still parse, and parse like the reference

    def test_a_truncated_run_is_refused_at_every_offset(self):
        packet = _run_state(3).to_bytes()
        for cut in range(BODY, len(packet)):
            with pytest.raises(DecodingError):
                ProcessState.from_bytes(_reframed(packet, packet[BODY:cut]))

    @pytest.mark.parametrize("location", [True, 3.0], ids=["bool", "float"])
    def test_a_location_that_is_not_an_int_is_refused_like_the_reference(
        self, location
    ):
        # After a frame at location 1: True == 1, so the bool frame would
        # otherwise join that frame's run and borrow its header.
        records = [
            ActivationRecord("f", 1, "l", [1]),
            ActivationRecord("f", location, "l", [1]),
        ]
        state = ProcessState(module="m", stack=StackState(records))
        refusal = f"format 'l' requires int, got {location!r}"
        for encode in (ProcessState.to_bytes, reference_state_to_bytes):
            with pytest.raises(EncodingError) as refused:
                encode(state)
            assert str(refused.value) == refusal

    @pytest.mark.parametrize("location", [2**40, -(2**40)], ids=["high", "low"])
    def test_a_location_the_machine_cannot_hold_is_refused_like_the_reference(
        self, location
    ):
        # A run of two frames: the location is checked where the run's
        # header is written and where a new header is read.
        records = [ActivationRecord("f", location, "l", [1])] * 2
        state = ProcessState(module="m", stack=StackState(records))
        vax = MACHINES["vax-like"]
        refusals = []
        for encode in (ProcessState.to_bytes, reference_state_to_bytes):
            with pytest.raises(MachineCompatibilityError) as refused:
                encode(state, vax)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert "32-bit native long" in refusals[0]

        packet = state.to_bytes()  # no machine: nothing to check against
        refusals = []
        for decode in (ProcessState.from_bytes, reference_state_from_bytes):
            with pytest.raises(MachineCompatibilityError) as refused:
                decode(packet, vax)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        # A machine with a 64-bit long holds it, and both codecs agree.
        sparc = MACHINES["sparc-like"]
        assert state.to_bytes(sparc) == reference_state_to_bytes(state, sparc)
        ours = ProcessState.from_bytes(packet, sparc).stack
        theirs = reference_state_from_bytes(packet, sparc).stack
        assert [(r.location, r.values) for r in ours] == [
            (r.location, r.values) for r in theirs
        ] == [(location, [1])] * 2
