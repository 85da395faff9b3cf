"""Tests for typed format strings (repro.state.format)."""

import pytest

from repro.errors import FormatError
from repro.state.format import (
    DictType,
    ListType,
    ScalarType,
    TupleType,
    format_of_value,
    iter_scalars,
    parse_format,
    pattern_to_format,
)
from repro.state.encoding import check_arity, value_matches
from repro.state.pointers import SymbolicPointer


class TestParseFormat:
    def test_empty(self):
        assert parse_format("") == []

    def test_scalars(self):
        specs = parse_format("bilfFsBpna")
        assert [s.format_char() for s in specs] == list("bilfFsBpna")
        assert all(isinstance(s, ScalarType) for s in specs)

    def test_paper_fmt_llF(self):
        # The exact format from Figure 4: mh_capture("llF", 1, n, response)
        specs = parse_format("llF")
        assert [s.format_char() for s in specs] == ["l", "l", "F"]

    def test_list(self):
        (spec,) = parse_format("[F]")
        assert isinstance(spec, ListType)
        assert spec.element == ScalarType("F")

    def test_nested_list(self):
        (spec,) = parse_format("[[i]]")
        assert spec.format_char() == "[[i]]"

    def test_tuple(self):
        (spec,) = parse_format("(si)")
        assert isinstance(spec, TupleType)
        assert len(spec.elements) == 2

    def test_empty_tuple(self):
        (spec,) = parse_format("()")
        assert isinstance(spec, TupleType)
        assert spec.elements == ()

    def test_dict(self):
        (spec,) = parse_format("{sl}")
        assert isinstance(spec, DictType)
        assert spec.key == ScalarType("s")
        assert spec.value == ScalarType("l")

    def test_mixed_sequence(self):
        specs = parse_format("il[F](si){sa}")
        assert len(specs) == 5

    def test_unknown_char(self):
        with pytest.raises(FormatError):
            parse_format("x")

    def test_unterminated_list(self):
        with pytest.raises(FormatError):
            parse_format("[i")

    def test_unterminated_tuple(self):
        with pytest.raises(FormatError):
            parse_format("(ii")

    def test_unterminated_dict(self):
        with pytest.raises(FormatError):
            parse_format("{si")

    def test_bad_list_close(self):
        with pytest.raises(FormatError):
            parse_format("[ii]")

    def test_roundtrip_format_char(self):
        for fmt in ("i", "[l]", "(sF)", "{s[i]}", "[(bb)]"):
            (spec,) = parse_format(fmt)
            assert spec.format_char() == fmt


class TestPatternToFormat:
    def test_figure2_patterns(self):
        assert pattern_to_format(["integer"]) == "i"
        assert pattern_to_format(["-float"]) == "f"
        assert pattern_to_format(["float"]) == "f"
        assert pattern_to_format(["double"]) == "F"

    def test_multiple(self):
        assert pattern_to_format(["integer", "string"]) == "is"

    def test_unknown_name(self):
        with pytest.raises(FormatError):
            pattern_to_format(["quaternion"])

    def test_case_insensitive(self):
        assert pattern_to_format(["Integer"]) == "i"


class TestFormatOfValue:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, "n"),
            (True, "b"),
            (7, "l"),
            (3.5, "F"),
            ("hi", "s"),
            (b"\x00", "B"),
            ([1, 2], "[l]"),
            ([], "[a]"),
            ([1, "x"], "[a]"),
            ((1, "x"), "(ls)"),
            ({"a": 1}, "{sl}"),
            ({}, "{aa}"),
        ],
    )
    def test_inference(self, value, expected):
        assert format_of_value(value).format_char() == expected

    def test_bool_not_int(self):
        # bool is a subclass of int; inference must pick 'b' first.
        assert format_of_value(True).format_char() == "b"

    def test_pointer(self):
        assert format_of_value(SymbolicPointer("heap:0", 3)).format_char() == "p"

    def test_uninferable(self):
        with pytest.raises(FormatError):
            format_of_value(object())


class TestValueMatches:
    def test_none_matches_everything(self):
        # NULL slots: an unassigned local occupies its declared slot.
        for fmt in ("b", "i", "l", "f", "F", "s", "B", "p", "a", "[i]", "(ss)"):
            (spec,) = parse_format(fmt)
            assert value_matches(spec, None)

    def test_int_not_bool(self):
        (spec,) = parse_format("i")
        assert value_matches(spec, 5)
        assert not value_matches(spec, True)

    def test_float_accepts_int(self):
        (spec,) = parse_format("F")
        assert value_matches(spec, 5)
        assert value_matches(spec, 5.0)

    def test_list_element_check(self):
        (spec,) = parse_format("[i]")
        assert value_matches(spec, [1, 2])
        assert not value_matches(spec, [1, "x"])
        assert not value_matches(spec, (1, 2))

    def test_tuple_arity(self):
        (spec,) = parse_format("(ii)")
        assert value_matches(spec, (1, 2))
        assert not value_matches(spec, (1, 2, 3))

    def test_dict_checks_both(self):
        (spec,) = parse_format("{si}")
        assert value_matches(spec, {"a": 1})
        assert not value_matches(spec, {1: 1})
        assert not value_matches(spec, {"a": "b"})

    def test_any_rejects_uninferable(self):
        (spec,) = parse_format("a")
        assert value_matches(spec, [1, {"k": (1, 2)}])
        assert not value_matches(spec, object())


class TestCheckArity:
    def test_ok(self):
        specs = check_arity("llF", [1, 42, 2.5])
        assert len(specs) == 3

    def test_wrong_count(self):
        with pytest.raises(FormatError, match="declares 3 values but 2"):
            check_arity("llF", [1, 42])

    def test_wrong_type_names_position(self):
        with pytest.raises(FormatError, match="value #1"):
            check_arity("ll", [1, "oops"])


class TestIterScalars:
    def test_flat(self):
        (spec,) = parse_format("i")
        assert [s.char for s in iter_scalars(spec)] == ["i"]

    def test_nested(self):
        (spec,) = parse_format("{s[(iF)]}")
        assert [s.char for s in iter_scalars(spec)] == ["s", "i", "F"]
