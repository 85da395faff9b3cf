"""Hardening tests: corrupt inputs and defensive limits."""

import pytest

from repro.bus.message import Message
from repro.errors import DecodingError, EncodingError
from repro.state.encoding import (
    _append_varint,
    decode_any,
    decode_values,
    encode_values,
    write_any,
)
from repro.state.frames import ProcessState
from repro.state.machine import Endianness


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
