"""Tests for the compiled codec plans and the one-walk ``a`` writer.

The fast path rests on three properties:

1. Plans are *shared*: the same format string (or structurally equal
   TypeSpec) always yields the same compiled closures, so a deep capture
   pays the compilation cost once, not once per frame.
2. Plans are *faithful*: for every format character and any acceptable
   value, the compiled encoder emits exactly the bytes the reference
   tree-walk emits (property-tested below with hypothesis).
3. Self-described (``a``) values are written in *one walk* keyed on the
   runtime type of each node: no TypeSpec is inferred, nothing is compiled
   or cached per value shape, and the bytes, machine checks and errors
   are those of the reference codec's infer-then-encode path.
"""

import collections
import enum

import pytest

from hypothesis import given, settings, strategies as st

import repro.state.encoding as encoding_module
import repro.state.format as format_module
import repro.state.frames as frames_module
from repro.errors import DecodingError, FormatError, MachineCompatibilityError
from repro.state.encoding import (
    _ENCODER_CACHE,
    _PLAN_CACHE,
    compiled_encoder,
    decode_any,
    encode_any,
    encode_values,
    encoder_plan,
)
from repro.state.format import (
    ScalarType,
    TypeSpec,
    compiled_matcher,
    matcher_plan,
    parse_format,
    value_matches,
)
from repro.state.frames import ActivationRecord, ProcessState, StackState
from repro.state.heap import HeapCodec
from repro.state.machine import MACHINES
from repro.state.pointers import SymbolicPointer

from tests.state.reference_codec import (
    reference_decode_values,
    reference_encode_any,
    reference_encode_values,
)


class TestPlanCaching:
    def test_encoder_plan_is_cached_per_format(self):
        assert encoder_plan("llF") is encoder_plan("llF")

    def test_structurally_equal_specs_share_encoders(self):
        # TypeSpec hashes by format_char, so "[l]" parsed twice (even in
        # different surrounding formats) compiles once.
        a = parse_format("[l]")[0]
        b = parse_format("i[l]")[1]
        assert compiled_encoder(a) is compiled_encoder(b)

    def test_plan_entries_are_shared_with_spec_cache(self):
        plan = encoder_plan("il")
        assert plan[0] is compiled_encoder(ScalarType("i"))
        assert plan[1] is compiled_encoder(ScalarType("l"))

    def test_matcher_plan_is_cached(self):
        assert matcher_plan("llF") is matcher_plan("llF")
        spec = parse_format("{sl}")[0]
        assert compiled_matcher(spec) is compiled_matcher(spec)

    def test_plan_cache_interplay_with_parse_lru(self):
        # encoder_plan goes through the lru-cached parse_format; a format
        # seen by check_arity first must still hit the same parse result.
        fmt = "l(si)[F]"
        specs = parse_format(fmt)
        plan = encoder_plan(fmt)
        assert len(plan) == len(specs)
        assert all(
            entry is compiled_encoder(spec) for entry, spec in zip(plan, specs)
        )

    def test_plan_cache_bounded(self):
        # The per-format dict refuses to grow past its bound, but still
        # returns a working plan for the overflow format.
        before = dict(_PLAN_CACHE)
        try:
            _PLAN_CACHE.clear()
            _PLAN_CACHE.update({f"fake{i}": () for i in range(4096)})
            plan = encoder_plan("overflow-never-cached" * 0 + "l")
            assert "l" not in _PLAN_CACHE or len(_PLAN_CACHE) <= 4097
            buf = bytearray()
            plan[0](buf, 5, None)
            assert bytes(buf) == encode_values("l", [5])
        finally:
            _PLAN_CACHE.clear()
            _PLAN_CACHE.update(before)

    def test_compiled_encoder_idempotent_for_containers(self):
        spec = parse_format("{s[l]}")[0]
        assert compiled_encoder(spec) is compiled_encoder(spec)
        assert spec in _ENCODER_CACHE


# -- property: compiled == reference for every format char ----------------

finite_floats = st.floats(allow_nan=False, width=64)
pointers = st.builds(
    SymbolicPointer,
    segment=st.text(max_size=8),
    index=st.integers(min_value=-(2**31), max_value=2**31),
)

# Acceptable values per char, plus None (NULL occupies any slot).
VALUES_BY_CHAR = {
    "b": st.booleans(),
    "i": st.integers(min_value=-(2**70), max_value=2**70),
    "l": st.integers(min_value=-(2**70), max_value=2**70),
    "f": st.one_of(finite_floats, st.integers(-(2**40), 2**40)),
    "F": st.one_of(finite_floats, st.integers(-(2**40), 2**40)),
    "s": st.text(max_size=60),
    "B": st.binary(max_size=60),
    "p": pointers,
    "n": st.none(),
    "a": st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**62), 2**62),
            finite_floats,
            st.text(max_size=20),
            st.binary(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=12,
    ),
}


@st.composite
def char_and_value(draw):
    char = draw(st.sampled_from(sorted(VALUES_BY_CHAR)))
    value = draw(st.one_of(st.none(), VALUES_BY_CHAR[char]))
    return char, value


@given(case=char_and_value(), machine=st.sampled_from([None, "sparc-like", "vax-like", "m68k-like"]))
@settings(max_examples=300, deadline=None)
def test_compiled_encoder_matches_reference(case, machine):
    char, value = case
    profile = MACHINES[machine] if machine else None

    def outcome(fn):
        # Any exception is part of the contract (the seed raised a bare
        # OverflowError for doubles beyond float32 range under 'f'; the
        # compiled codec must reproduce even that).
        try:
            return fn(char, [value], profile)
        except Exception as exc:  # noqa: BLE001 - compared, not swallowed
            return (type(exc).__name__, str(exc))

    assert outcome(encode_values) == outcome(reference_encode_values)


@given(case=char_and_value())
@settings(max_examples=200, deadline=None)
def test_compiled_matcher_matches_value_matches_contract(case):
    char, value = case
    spec = ScalarType(char)
    assert compiled_matcher(spec)(value) == value_matches(spec, value)


@given(values=st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_container_formats_match_reference(values):
    for fmt, wrapped in (("[l]", values), ("(" + "l" * len(values) + ")", tuple(values))):
        assert encode_values(fmt, [wrapped]) == reference_encode_values(fmt, [wrapped])


# -- the one-walk 'a' writer ------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 70000


Pair = collections.namedtuple("Pair", "left right")


def _defaultdict(items):
    made = collections.defaultdict(list)
    made.update(items)
    return made


any_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**62), 2**62),
    finite_floats,
    st.text(max_size=20),
    st.sampled_from(["x" * 127, "y" * 128, "é" * 64]),  # one/two-byte length
    st.binary(max_size=20),
    st.binary(max_size=8).map(bytearray),
    st.sampled_from(list(Colour)),
    pointers,
)
any_keys = st.one_of(
    st.text(max_size=6), st.integers(-50, 50), st.booleans(), st.none()
)

# Heterogeneous nesting: mixed-type lists, None inside otherwise
# homogeneous lists, empty containers, bool/int mixes, dict subclasses,
# namedtuples — everything the inference path used to collapse to 'a'.
any_values = st.recursive(
    any_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=5),
        st.lists(st.one_of(st.booleans(), st.integers(0, 1)), max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.tuples(children, children).map(lambda t: Pair(*t)),
        st.dictionaries(any_keys, children, max_size=4),
        # All-str dicts take the packed '}' form unless a NUL falls back.
        st.dictionaries(st.text(max_size=6), st.text(max_size=6), min_size=1),
        st.dictionaries(any_keys, children, max_size=3).map(
            collections.OrderedDict
        ),
        st.dictionaries(any_keys, children, max_size=3).map(_defaultdict),
    ),
    max_leaves=15,
)


def _outcome(fn, *args):
    # Bytes, or the error's class name and text: both are the contract.
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc).__name__, str(exc))


def _heap_image_with_alias_and_cycle():
    shared = {"n": 1, "tags": ["x", "y"]}
    ring = [shared, ("t", 2.5, None)]
    ring.append(ring)
    roots = {"a": shared, "b": shared, "ring": ring, "blob": b"\x00\x01"}
    return HeapCodec().capture(roots).to_abstract()


class TestOneWalkWriter:
    @given(
        value=any_values,
        machine=st.sampled_from([None, "sparc-like", "vax-like", "m68k-like"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_and_errors_match_reference(self, value, machine):
        profile = MACHINES[machine] if machine else None
        ours = _outcome(encode_any, value, profile)
        assert ours == _outcome(reference_encode_any, value, profile)
        if isinstance(ours, bytes):
            # IntEnum/bytearray/dict subclasses compare equal to the plain
            # values they decode as.
            assert decode_any(ours) == value

    def test_heap_image_matches_reference_and_round_trips(self):
        image = _heap_image_with_alias_and_cycle()
        for machine in (None, MACHINES["sparc-like"], MACHINES["vax-like"]):
            data = encode_any(image, machine)
            assert data == reference_encode_any(image, machine)
            assert decode_any(data, machine) == image

    def test_machine_check_fires_deep_inside_a_heap_dict(self):
        vax = MACHINES["vax-like"]
        heap = {"image": {"segments": {"heap:0": ["dict", [["big", 2**40]]]}}}
        with pytest.raises(MachineCompatibilityError) as ours:
            encode_any(heap, vax)
        with pytest.raises(MachineCompatibilityError) as reference:
            reference_encode_any(heap, vax)
        assert str(ours.value) == str(reference.value)
        assert "does not fit a 32-bit native long" in str(ours.value)
        state = ProcessState(module="m", heap=heap)
        with pytest.raises(MachineCompatibilityError) as packet:
            state.to_bytes(vax)
        assert str(packet.value) == str(ours.value)
        assert encode_any(heap, MACHINES["sparc-like"])  # 64-bit long: fine

    def test_unsupported_type_error_matches_reference(self):
        for value in (object(), {"k": [1, {2.5}]}, ("x", [frozenset()])):
            ours = _outcome(encode_any, value, None)
            assert ours == _outcome(reference_encode_any, value, None)
            assert ours[0] == "FormatError"
        with pytest.raises(FormatError, match="cannot infer abstract type for set"):
            encode_values("{sa}", [{"k": set()}])

    def test_any_values_leave_the_encoder_cache_alone(self):
        # The inference path compiled and cached an encoder for every
        # distinct inferred shape, forever.
        encode_any([1, "warm"])
        before = len(_ENCODER_CACHE)
        for n in range(1000):
            shape = tuple([n, "s", 1.5, None][: n % 4 + 1]) + (("x",) * (n % 7),)
            encode_any({f"k{n}": shape, "nest": {n: [shape, {"d": n * 0.5}]}})
        assert len(_ENCODER_CACHE) == before

    def test_no_inference_on_the_packet_path(self, monkeypatch):
        # Structural guard: the pre-pass cannot creep back in unnoticed.
        for module in (encoding_module, frames_module):
            assert not hasattr(module, "format_of_value")
        calls = []
        real = format_module.format_of_value
        monkeypatch.setattr(
            format_module,
            "format_of_value",
            lambda value: calls.append(value) or real(value),
        )
        built = []
        real_init = ScalarType.__post_init__
        monkeypatch.setattr(
            ScalarType,
            "__post_init__",
            lambda self: built.append(self) or real_init(self),
        )
        machine = MACHINES["sparc-like"]
        store = {f"k0.{i:04d}": f"v{i}" for i in range(4096)}
        frames = [
            ActivationRecord("descend", 3, "lllF", [3, 256, level, float(level)])
            for level in range(256)
        ]
        state = ProcessState(
            module="shard_0",
            stack=StackState(frames),
            statics={"served": 1, "label": "x"},
            heap={"image": HeapCodec().capture({"store": store}).to_abstract()},
        )
        state.to_bytes(machine)  # warm the machine's checks and frame plans
        calls.clear()
        built.clear()
        packet = state.to_bytes(machine)
        encode_any(state.heap, machine)
        compiled_encoder(ScalarType("a"))(
            bytearray(), state.heap, machine.codec_checks()
        )
        assert calls == []
        assert [spec for spec in built if isinstance(spec, TypeSpec)] == [
            ScalarType("a")
        ]  # the one spec this test itself constructed
        assert ProcessState.from_bytes(packet).heap == state.heap


class Label(str):
    pass


#: Strings around the one-byte length a container loop writes and reads
#: in place: empty, 127/128 bytes, and non-ASCII text whose character
#: count is below 128 while its UTF-8 length is not.
BOUNDARY_STRINGS = [
    "",
    "x" * 127,
    "y" * 128,
    "é" * 63 + "a",  # 64 characters, 127 bytes
    "é" * 64,  # 64 characters, 128 bytes
    "€" * 43,  # 43 characters, 129 bytes
    Label("sub"),
    Label("z" * 130),
]


class TestInPlaceStrings:
    @pytest.mark.parametrize("text", BOUNDARY_STRINGS, ids=repr)
    @pytest.mark.parametrize("machine", [None, "sparc-like", "vax-like"])
    def test_matches_reference_in_every_container(self, text, machine):
        profile = MACHINES[machine] if machine else None
        # {text: text} takes the packed '}' form; {text: None} keeps the
        # '{' walk and its in-place key read.
        for value in (
            {text: text},
            {text: None},
            [text],
            (text,),
            {"k": [text, (text,)]},
        ):
            data = encode_any(value, profile)
            assert data == reference_encode_any(value, profile)
            assert decode_any(data, profile) == reference_decode_values(data)[0]
            assert decode_any(data) == value

    def test_length_boundary_on_the_wire(self):
        assert encode_any(["x" * 127])[:4] == bytes.fromhex("5b01737f")
        assert encode_any(["y" * 128])[:5] == bytes.fromhex("5b01738001")
        # A str -> str dict is packed, so the dict walk's two-byte key
        # length is pinned on a dict with a non-str value.
        assert encode_any({"é" * 64: 0})[:5] == bytes.fromhex("7b01738001")
        assert encode_any({"é" * 64: ""})[:5] == bytes.fromhex("7d018101c3")

    @pytest.mark.parametrize(
        "data,message",
        [
            ("7b0173016b730576616c", "need 5 bytes at offset 7, have 3"),
            ("7b0173016b73", "need 1 bytes at offset 6, have 0"),
            ("7b0173016b738c01c3a9c3a9", "need 140 bytes at offset 8, have 4"),
        ],
    )
    def test_truncated_value_inside_a_dict(self, data, message):
        # {"k": <str>} cut short inside the value string: the in-place
        # read reports what the recursive read reported.
        with pytest.raises(DecodingError) as error:
            decode_any(bytes.fromhex(data))
        assert str(error.value) == f"truncated abstract state: {message}"


class TestAnyMatcher:
    def test_accepts_everything_the_writer_encodes(self):
        image = _heap_image_with_alias_and_cycle()
        for value in (None, 1, "s", [1, "x", None], image, Colour.RED, Pair(1, [2])):
            assert value_matches(ScalarType("a"), value)

    def test_rejects_unsupported_types_at_any_depth(self):
        for value in (object(), [1, {2}], {"k": (1, [object()])}, {frozenset(): 1}):
            assert not value_matches(ScalarType("a"), value)

    def test_builds_no_typespec(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            ScalarType, "__post_init__", lambda self: built.append(self)
        )
        assert compiled_matcher(ScalarType("a"))({"k": [1, "x", (2.5, None)]})
        assert len(built) == 1  # the spec passed to compiled_matcher above
