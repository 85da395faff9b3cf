"""The carrier against its oracle, the wire round trip.

A message that changes machine inside the bus process is carried
(``Message.transferred``), not encoded and decoded.  The carrier's
contract is the round trip's: for every ordered pair of catalogued
machines, ``message.transferred(sender, receiver)`` returns the header
and values ``Message.from_wire(message.to_wire(sender), receiver)``
reads back, with the same type at every node, or raises the same
exception class with the same text.  It shares no list, dict or
``bytearray`` with the message it carried.  And an in-process delivery
that changes machine — ``route``, ``route_to``, ``cq``, a put to a
sealed queue — builds no wire at all.
"""

import enum
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message, changes_machine
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import DecodingError, EncodingError, MachineCompatibilityError
from repro.state.encoding import _PLANS, encode_values
from repro.state.format import ListType, ScalarType, TupleType, parse_format
from repro.state.machine import MACHINES, renamed
from repro.state.pointers import SymbolicPointer

#: Every ordered pair of distinct catalogued machines, and two machines
#: of one architecture under different names (32-bit floats both ends).
PAIRS = [
    (sender, receiver)
    for sender in MACHINES.values()
    for receiver in MACHINES.values()
    if sender is not receiver
] + [(MACHINES["m68k-like"], renamed(MACHINES["m68k-like"], "m68k-b"))]
M68K_B = PAIRS[-1][1]


class Colour(enum.IntEnum):
    RED = 1
    HUGE = 2**40


class Loud(str):
    def __str__(self):
        return "LOUD"


@pytest.fixture(autouse=True, scope="module")
def _plans_as_found():
    # The property compiles hundreds of formats; leave the one plan cache
    # as this module found it, for the cache's own tests.
    found = dict(_PLANS)
    yield
    _PLANS.clear()
    _PLANS.update(found)


# -- outcomes -------------------------------------------------------------------


def typed(value):
    """``value`` with the type of every node spelled out (a float by its
    bits, so NaN and -0.0 compare exactly)."""
    if isinstance(value, list):
        return (type(value), [typed(item) for item in value])
    if isinstance(value, tuple):
        return (type(value), tuple(typed(item) for item in value))
    if isinstance(value, dict):
        return (type(value), [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, float):
        return (type(value), struct.pack(">d", value))
    if isinstance(value, SymbolicPointer):
        return (type(value), typed(value.segment), typed(value.index))
    return (type(value), value)


def outcome(deliver):
    try:
        message = deliver()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc), str(exc))
    header = typed([message.source_instance, message.source_interface, message.seq])
    return ("delivered", header, message.fmt, typed(message.values))


def mutable_ids(value, into):
    if isinstance(value, (list, dict, bytearray)):
        into.add(id(value))
    if isinstance(value, (list, tuple)):
        for item in value:
            mutable_ids(item, into)
    elif isinstance(value, dict):
        for key, item in value.items():
            mutable_ids(key, into)
            mutable_ids(item, into)
    return into


def assert_carried_as_on_the_wire(message, sender, receiver):
    carried = outcome(lambda: message.transferred(sender, receiver))
    wired = outcome(lambda: Message.from_wire(message.to_wire(sender), receiver))
    assert carried == wired
    if carried[0] == "delivered":
        moved = message.transferred(sender, receiver)
        assert moved is not message
        shared = mutable_ids(message.values, set()) & mutable_ids(moved.values, set())
        assert not shared
    return carried


# -- strategies -----------------------------------------------------------------

#: Integers around every native bound of the catalogue (16/32/64 bits).
edge_ints = st.sampled_from(
    [b + d for bits in (15, 31, 63) for b in (2**bits, -(2**bits)) for d in (-1, 0)]
    + [2**70, -(2**70)]
)
ints = st.one_of(st.integers(-1000, 1000), st.integers(-(2**70), 2**70), edge_ints)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.1, 0.5, -0.0, 3.5e38, 1e39, 2.0**30 + 1, math.nan]),
)
texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["\ud800", "a\x00b", "é", "", "x" * 130]),
)
pointers = st.builds(SymbolicPointer, texts, ints)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    floats,
    texts,
    st.binary(max_size=6),
    st.binary(max_size=6).map(bytearray),
    pointers,
    st.sampled_from([Colour.RED, Colour.HUGE, Loud("quiet")]),
)
keys = st.one_of(st.none(), st.booleans(), ints, floats, texts, st.sampled_from([Loud("k")]))
any_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(texts, texts, min_size=1, max_size=4),  # packed '}'
    ),
    max_leaves=12,
)

TYPED = {
    "b": st.booleans(),
    "i": ints,
    "l": ints,
    "f": floats,
    "F": st.one_of(floats, ints),
    "s": texts,
    "B": st.one_of(st.binary(max_size=6), st.binary(max_size=6).map(bytearray)),
    "p": pointers,
    "n": st.none(),
    "a": any_values,
}


def spec_formats():
    leaf = st.sampled_from("bilfFsBpna")
    key = st.sampled_from("bilFsna")
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(lambda f: f"[{f}]"),
            st.lists(inner, min_size=1, max_size=3).map(lambda fs: "(" + "".join(fs) + ")"),
            st.tuples(key, inner).map(lambda kv: "{" + kv[0] + kv[1] + "}"),
        ),
        max_leaves=4,
    )


def values_for(spec, hashable=False):
    """Values that fit ``spec``, now and then one that does not."""
    if isinstance(spec, ScalarType):
        fits = TYPED[spec.char] if not hashable else keys
    elif isinstance(spec, ListType):
        fits = st.lists(values_for(spec.element), max_size=3)
    elif isinstance(spec, TupleType):
        fits = st.tuples(*(values_for(e) for e in spec.elements))
    else:
        fits = st.dictionaries(
            values_for(spec.key, hashable=True), values_for(spec.value), max_size=3
        )
    misfit = keys if hashable else any_values
    return st.one_of(st.none(), fits, fits, fits, misfit)


header_names = st.one_of(texts, st.sampled_from([None, 5, Loud("mod")]))
seqs = st.one_of(
    st.integers(1, 2**40), st.sampled_from([2**31, 2**63, -1, True, None])
)


@st.composite
def messages(draw):
    fmt = draw(st.one_of(st.just(""), st.lists(spec_formats(), max_size=4).map("".join)))
    if fmt:
        values = [draw(values_for(spec)) for spec in parse_format(fmt)]
        if draw(st.integers(0, 19)) == 0:
            values = values[:-1]  # arity mismatch
    else:
        values = draw(st.lists(any_values, max_size=4))
    return Message(
        values=values,
        fmt=fmt,
        source_instance=draw(header_names),
        source_interface=draw(header_names),
        seq=draw(seqs),
    )


# -- the differential property ----------------------------------------------------


@given(message=messages(), pair=st.sampled_from(PAIRS))
@settings(max_examples=300, deadline=None)
def test_carrier_matches_the_wire_round_trip(message, pair):
    assert changes_machine(*pair)
    assert_carried_as_on_the_wire(message, *pair)


def msg(fmt, *values, **header):
    return Message(
        values=list(values),
        fmt=fmt,
        source_instance=header.get("instance", "src"),
        source_interface=header.get("interface", "out"),
        seq=header.get("seq", 7),
    )


SPARC, VAX = MACHINES["sparc-like"], MACHINES["vax-like"]
MODERN, M68K, ALPHA = MACHINES["modern-64"], MACHINES["m68k-like"], MACHINES["alpha-like"]


class TestNarrowingPairs:
    """The pairs where the receiver refuses what the sender wrote."""

    @pytest.mark.parametrize(
        "sender, receiver, fmt, value, words",
        [
            (SPARC, VAX, "l", 2**40, "32-bit native long on machine 'vax-like'"),
            (MODERN, M68K, "i", 40_000, "16-bit native int on machine 'm68k-like'"),
            (ALPHA, M68K, "F", 0.1, "32-bit-float machine 'm68k-like'"),
            (SPARC, M68K, "F", 2**30 + 1, "32-bit-float machine 'm68k-like'"),
            # Same architecture: the writer checks a double only once it
            # is a float, so an int under 'F' is refused on arrival.
            (M68K, M68K_B, "F", 2**30 + 1, "32-bit-float machine 'm68k-b'"),
            (SPARC, VAX, "", 2**40, "32-bit native long"),  # 'a' travels as 'l'
            (SPARC, VAX, "[l]", [1, 2**40], "32-bit native long"),
        ],
    )
    def test_the_receiver_refuses(self, sender, receiver, fmt, value, words):
        result = assert_carried_as_on_the_wire(msg(fmt, value), sender, receiver)
        assert result[:2] == ("raised", MachineCompatibilityError)
        assert words in result[2]

    def test_a_long_header_seq_is_refused_on_arrival(self):
        result = assert_carried_as_on_the_wire(msg("s", "x", seq=2**40), SPARC, VAX)
        assert result[:2] == ("raised", MachineCompatibilityError)

    def test_the_sender_refusal_comes_first_even_when_it_comes_later(self):
        # vax would refuse the first value, but sparc refuses the second
        # while writing, before anything is read.
        result = assert_carried_as_on_the_wire(msg("ll", 2**40, 2**70), SPARC, VAX)
        assert result[:2] == ("raised", MachineCompatibilityError)
        assert "64-bit native long on machine 'sparc-like'" in result[2]

    def test_wider_receivers_accept(self):
        result = assert_carried_as_on_the_wire(msg("l", 2**40), VAX, SPARC)
        assert result[:2] == ("raised", MachineCompatibilityError)  # vax writes
        result = assert_carried_as_on_the_wire(msg("l", 2**40), SPARC, ALPHA)
        assert result[0] == "delivered"


class TestValues:
    @pytest.mark.parametrize(
        "fmt, value",
        [
            ("l", Colour.RED),
            ("", Colour.RED),
            ("", [Colour.HUGE]),
            ("i", True),  # refused: a bool is not an int here
            ("", True),
            ("s", Loud("quiet")),
            ("", {Loud("k"): Loud("v")}),  # packed, as the wire packs it
            ("B", bytearray(b"\x00\xff")),
            ("", bytearray(b"ab")),
            ("f", 0.1),
            ("f", 1e39),  # beyond binary32: the wire's OverflowError
            ("F", math.nan),
            ("f", math.nan),
            ("s", "\ud800"),
            ("", {"k": "\ud800"}),
            ("{sa}", {"k": "v", "n": "a\x00b"}),
            ("", [1, (2.5, [None, {"k": [b"x", {"d": "e"}]}])]),
            ("[(sF)]", [("a", 1), ("b", 2.5)]),
            ("p", SymbolicPointer("heap:1", 3)),
            ("", [SymbolicPointer("seg", -2)]),
            ("p", "not a pointer"),
            ("", object()),
        ],
    )
    @pytest.mark.parametrize("pair", [(SPARC, VAX), (ALPHA, M68K)], ids=["sv", "am"])
    def test_value(self, fmt, value, pair):
        assert_carried_as_on_the_wire(msg(fmt, value), *pair)

    def test_f_narrows(self):
        moved = msg("f", 0.1).transferred(SPARC, VAX)
        assert moved.values[0] != 0.1
        assert moved.values[0] == struct.unpack(">f", struct.pack(">f", 0.1))[0]

    def test_plain_types_come_out(self):
        moved = msg("lsB", Colour.RED, Loud("quiet"), bytearray(b"z")).transferred(
            SPARC, VAX
        )
        assert [type(v) for v in moved.values] == [int, str, bytes]
        assert moved.values[1] == "quiet"
        assert moved.fmt == ""

    def test_nothing_mutable_is_shared(self):
        inner = {"k": [1, 2]}
        message = msg("", [inner, bytearray(b"x")], (inner,))
        moved = message.transferred(SPARC, VAX)
        assert moved.values == [[{"k": [1, 2]}, b"x"], ({"k": [1, 2]},)]
        assert not mutable_ids(message.values, set()) & mutable_ids(moved.values, set())

    def test_a_malformed_header_is_refused_as_the_reader_refuses_it(self):
        result = assert_carried_as_on_the_wire(msg("l", 1, instance=None), SPARC, VAX)
        assert result[:2] == ("raised", DecodingError)

    def test_an_unencodable_value_names_the_endpoint(self):
        result = assert_carried_as_on_the_wire(msg("", object()), SPARC, VAX)
        assert result[:2] == ("raised", EncodingError)
        assert "src.out is not wire-encodable" in result[2]


class TestMalformedHeader:
    @pytest.mark.parametrize(
        "fmt, header",
        [("lls", [1, 2, "x"]), ("ssa", ["a", "b", [1]]), ("ssb", ["a", "b", True])],
    )
    def test_from_wire_refuses_it(self, fmt, header):
        with pytest.raises(DecodingError, match="malformed message header"):
            Message.from_wire(encode_values(fmt, header), None)


# -- no wire in process -----------------------------------------------------------


IDLE = "def main():\n    pass\n"


def _spec(name, role, interface):
    return ModuleSpec(
        name=name,
        inline_source=IDLE,
        interfaces=[InterfaceDecl(interface, role, pattern="l")],
    )


@pytest.fixture
def no_wire(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built or read a wire inside the bus process")

    monkeypatch.setattr(Message, "to_wire", refuse)
    monkeypatch.setattr(Message, "from_wire", refuse)


@pytest.fixture
def xbus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("alpha", SPARC)
    bus.add_host("beta", VAX)
    bus.add_module(_spec("sender", Role.DEFINE, "out"), machine="alpha")
    bus.add_module(_spec("receiver", Role.USE, "inp"), instance="r1", machine="beta")
    bus.add_binding(BindingSpec("sender", "out", "r1", "inp"))
    yield bus
    bus.shutdown()


def _send(value):
    return Message(values=[value], fmt="l", source_instance="sender",
                   source_interface="out")


def _drained(bus, name="r1"):
    return [m.values[0] for m in bus.get_module(name).queue("inp").drain()]


class TestNoWireInProcess:
    def test_route_and_route_to(self, xbus, no_wire):
        xbus.route("sender", "out", _send(1))
        xbus.route_to("sender", "out", "r1", _send(2))
        assert _drained(xbus) == [1, 2]

    def test_a_receivers_refusal(self, xbus, no_wire):
        with pytest.raises(MachineCompatibilityError, match="on machine 'beta'"):
            xbus.route("sender", "out", _send(2**40))
        with pytest.raises(MachineCompatibilityError, match="on machine 'beta'"):
            xbus.route_to("sender", "out", "r1", _send(2**40))
        assert _drained(xbus) == []

    def test_cq_and_a_sealed_queue_forward(self, xbus, no_wire):
        xbus.route("sender", "out", _send(1))
        stale = xbus._routing_table["sender"]["out"]
        old = xbus.get_module("r1")
        clone = xbus.build_clone(_spec("receiver", Role.USE, "inp"), "r1", machine="alpha")
        assert xbus.hand_over(old, clone) == {"inp": 1}  # cq beta -> alpha
        for put in stale.puts + [p for _, puts in stale.groups[0] for p in puts]:
            put(_send(2))  # reaches the sealed queue, forwarded to alpha
        xbus.route("sender", "out", _send(3))
        assert _drained(xbus) == [1, 2, 3]

    def test_cq_of_one_interface_between_machines(self, xbus, no_wire):
        xbus.add_module(_spec("receiver", Role.USE, "inp"), instance="r2", machine="alpha")
        xbus.route("sender", "out", _send(4))
        assert xbus.copy_queue("r1", "inp", "r2") == 1
        assert _drained(xbus, "r2") == [4]
