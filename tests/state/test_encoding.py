"""Tests for the canonical abstract encoding (repro.state.encoding)."""

import math

import pytest

from repro.errors import (
    DecodingError,
    EncodingError,
    FormatError,
    MachineCompatibilityError,
)
from repro.state.encoding import (
    decode_any,
    decode_values,
    encode_any,
    encode_values,
    encoder_plan,
)
from repro.state.format import parse_format
from repro.state.pointers import SymbolicPointer


class TestScalarRoundtrip:
    @pytest.mark.parametrize(
        "fmt,value",
        [
            ("b", True),
            ("b", False),
            ("i", 0),
            ("i", -1),
            ("i", 2**31 - 1),
            ("l", -(2**62)),
            ("l", 123456789012345),
            ("F", 3.141592653589793),
            ("F", -0.0),
            ("F", 1e308),
            ("s", ""),
            ("s", "héllo wörld ☃"),
            ("B", b""),
            ("B", bytes(range(256))),
            ("n", None),
        ],
    )
    def test_roundtrip(self, fmt, value):
        data = encode_values(fmt, [value])
        assert decode_values(data) == [value]

    def test_float_nan(self):
        (result,) = decode_values(encode_values("F", [float("nan")]))
        assert math.isnan(result)

    def test_float_inf(self):
        assert decode_values(encode_values("F", [float("inf")])) == [float("inf")]

    def test_single_precision_narrows(self):
        (result,) = decode_values(encode_values("f", [1.1]))
        assert result != 1.1  # binary32 cannot hold 1.1 exactly
        assert abs(result - 1.1) < 1e-6

    def test_huge_int_arbitrary_precision(self):
        value = 10**50
        assert decode_values(encode_values("l", [value])) == [value]

    def test_pointer_roundtrip(self):
        pointer = SymbolicPointer("heap:17", -3)
        (result,) = decode_values(encode_values("p", [pointer]))
        assert result == pointer


class TestNullSlots:
    @pytest.mark.parametrize("fmt", ["b", "i", "l", "f", "F", "s", "B", "p", "[i]", "(ss)"])
    def test_none_under_any_declaration(self, fmt):
        # An unassigned local is captured as NULL regardless of its type.
        data = encode_values(fmt, [None])
        assert decode_values(data) == [None]


class TestContainers:
    def test_list(self):
        data = encode_values("[l]", [[1, 2, 3]])
        assert decode_values(data) == [[1, 2, 3]]

    def test_tuple(self):
        data = encode_values("(slF)", [("x", 1, 2.0)])
        assert decode_values(data) == [("x", 1, 2.0)]

    def test_dict_preserves_order(self):
        value = {"b": 2, "a": 1}
        (result,) = decode_values(encode_values("{sl}", [value]))
        assert list(result.items()) == [("b", 2), ("a", 1)]

    def test_deep_nesting(self):
        value = [[(1, {"k": [2.5]})]]
        (result,) = decode_values(encode_any(value), None)
        assert result == value

    def test_list_type_mismatch(self):
        with pytest.raises((EncodingError, Exception)):
            encode_values("[l]", [{"not": "a list"}])

    def test_tuple_arity_mismatch(self):
        with pytest.raises(Exception):
            encode_values("(ll)", [(1, 2, 3)])


class TestSelfDescribing:
    def test_any_roundtrip(self):
        value = {"stack": [(1, 2.5), (2, 3.5)], "name": "compute", "flag": True}
        assert decode_any(encode_any(value)) == value

    def test_decoder_needs_no_format(self):
        data = encode_values("llF", [1, 42, 2.5])
        assert decode_values(data) == [1, 42, 2.5]

    def test_trailing_bytes_rejected(self):
        data = encode_any(1) + b"\x00"
        with pytest.raises(DecodingError, match="trailing"):
            decode_any(data)


class TestMalformedStreams:
    def test_truncated(self):
        data = encode_values("s", ["hello world"])
        with pytest.raises(DecodingError, match="truncated"):
            decode_values(data[:-3])

    def test_unknown_tag(self):
        with pytest.raises(DecodingError, match="unknown tag"):
            decode_values(b"Z")

    def test_empty_ok(self):
        assert decode_values(b"") == []

    def test_truncated_header(self):
        data = encode_values("F", [1.5])
        with pytest.raises(DecodingError):
            decode_values(data[:3])


class TestMachineChecks:
    def test_source_machine_rejects_wide_int(self, vax):
        # vax-like has 32-bit longs: a 2**40 cannot be captured there.
        with pytest.raises(MachineCompatibilityError):
            encode_values("l", [2**40], vax)

    def test_target_machine_rejects_wide_int(self, sparc, vax):
        data = encode_values("l", [2**40], sparc)  # 64-bit long source: fine
        with pytest.raises(MachineCompatibilityError):
            decode_values(data, vax)

    def test_compatible_value_crosses(self, sparc, vax):
        data = encode_values("il", [-5, 2**30], sparc)
        assert decode_values(data, vax) == [-5, 2**30]

    def test_float32_machine_rejects_precise_double(self, m68k):
        with pytest.raises(MachineCompatibilityError):
            encode_values("F", [1.1], m68k)

    def test_float32_machine_accepts_representable(self, m68k):
        assert decode_values(encode_values("F", [1.5], m68k), m68k) == [1.5]

    def test_16bit_int_range(self, m68k):
        with pytest.raises(MachineCompatibilityError):
            encode_values("i", [40000], m68k)
        assert decode_values(encode_values("i", [32767], m68k), m68k) == [32767]


class TestWireStability:
    def test_canonical_bytes_are_machine_independent(self, sparc, vax):
        # The whole point: the same abstract values produce identical
        # canonical bytes regardless of which machine encodes them.
        values = [1, 42, 2.5, "x", [1, 2]]
        fmt = "llFs[l]"
        assert encode_values(fmt, values, sparc) == encode_values(fmt, values, vax)

    def test_varint_boundaries(self):
        for value in (0, 127, 128, 16383, 16384, -127, -128, 2**35):
            assert decode_values(encode_values("l", [value])) == [value]

    def test_encoder_len(self):
        assert encode_values("", []) == b""
        assert len(encode_values("l", [1])) > 0


class TestEncoderValidation:
    def test_str_for_int_rejected(self):
        with pytest.raises(Exception):
            encode_values("l", ["nope"])

    def test_bool_for_int_rejected(self):
        with pytest.raises(Exception):
            encode_values("l", [True])

    def test_bytes_for_str_rejected(self):
        with pytest.raises(Exception):
            encode_values("s", [b"nope"])

    def test_fake_pointer_rejected(self):
        with pytest.raises(Exception):
            encode_values("p", ["not a pointer"])

    # Regression: the original encoder ran f/F values through float(), so
    # on the direct compiled-encoder path (no format check first) a
    # numeric *string* (or a bool, or anything else with __float__) was
    # silently coerced into a legitimate-looking float on the wire.  The
    # encoder now requires an actual int or float at every level.
    @pytest.mark.parametrize("fmt", ["f", "F"])
    @pytest.mark.parametrize("bad", ["1.5", True])
    def test_float_coercion_rejected_on_write(self, fmt, bad):
        (encode,) = encoder_plan(fmt)
        with pytest.raises(EncodingError, match="requires int or float"):
            encode(bytearray(), bad, None)

    @pytest.mark.parametrize("fmt", ["f", "F"])
    def test_numeric_string_for_float_rejected(self, fmt):
        # Via encode_values the arity check reports it first, exactly as
        # the seed did — the point is that nothing coerces.
        with pytest.raises((EncodingError, FormatError)):
            encode_values(fmt, ["1.5"])

    @pytest.mark.parametrize("fmt", ["f", "F"])
    def test_int_for_float_still_accepted(self, fmt):
        (result,) = decode_values(encode_values(fmt, [3]))
        assert result == 3.0 and isinstance(result, float)
