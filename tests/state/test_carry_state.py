"""The state carrier against its oracle, the packet round trip.

A state handed to a module in the same interpreter is carried
(:func:`carry_state`: the divulge serializes it and keeps a copy, the
module resumes from the copy), not decoded.  Its contract is the round
trip's: for every ordered pair of catalogued machines,
``carry_state(state, writer, reader)`` returns the state
``ProcessState.from_bytes(state.to_bytes(writer), reader)`` reads back,
with the same type at every node, or raises the same exception with the
same text; and the carried state shares no list, dict or ``bytearray``
with the state it carried.
"""

import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.errors import DecodingError, EncodingError, MachineCompatibilityError
from repro.state.encoding import _PLANS
from repro.state.frames import ActivationRecord, Handoff, ProcessState, StackState, carry_state
from repro.state.machine import MACHINES
from tests.state.stacks import deep_state
from tests.strategies import (
    MACHINE_PAIRS,
    Colour,
    Loud,
    process_states,
    state_mutable_ids,
    typed_state,
)

SPARC, VAX = MACHINES["sparc-like"], MACHINES["vax-like"]
ALPHA, M68K = MACHINES["alpha-like"], MACHINES["m68k-like"]


@pytest.fixture(autouse=True, scope="module")
def _plans_as_found():
    # The property compiles many formats; leave the one plan cache as
    # this module found it, for the cache's own tests.
    found = dict(_PLANS)
    yield
    _PLANS.clear()
    _PLANS.update(found)


def outcome(run):
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc), str(exc))
    return ("ok", result)


def assert_carried_as_on_the_wire(state, writer, reader):
    wired = outcome(lambda: typed_state(ProcessState.from_bytes(state.to_bytes(writer), reader)))
    carried = outcome(lambda: typed_state(carry_state(state, writer, reader)))
    assert carried == wired
    if carried[0] == "ok":
        moved = carry_state(state, writer, reader)
        assert not state_mutable_ids(state) & state_mutable_ids(moved)
    return carried


def state(*records, **fields):
    return ProcessState(module=fields.pop("module", "m"), stack=StackState(list(records)), **fields)


# The four cases found by hand before any oracle drew whole states.
BOOL_LOCATION = state(ActivationRecord("main", True, "l", [True]))
NOT_UTF8 = state(ActivationRecord("main", 1, "ls", [1, "\ud800"]), reconfig_point="\ud800")
NULL_HEADER = state(ActivationRecord(None, 1, "l", [1]))
LONG_LOCATION = state(ActivationRecord("main", 2**40, "l", [1]))


def _check(state, pair):
    writer, reader = pair
    result = assert_carried_as_on_the_wire(state, writer, reader)
    event(result[0] if result[0] == "ok" else result[1].__name__)


@given(state=process_states(), pair=st.sampled_from(MACHINE_PAIRS))
@example(state=BOOL_LOCATION, pair=(SPARC, VAX))
@example(state=NOT_UTF8, pair=(SPARC, VAX))
@example(state=NULL_HEADER, pair=(SPARC, VAX))
@example(state=LONG_LOCATION, pair=(SPARC, VAX))
@example(state=LONG_LOCATION, pair=(VAX, SPARC))
@settings(max_examples=120, deadline=None)
def test_carrier_matches_the_packet_round_trip(state, pair):
    _check(state, pair)


@pytest.mark.chaos
@given(state=process_states(), pair=st.sampled_from(MACHINE_PAIRS))
@settings(max_examples=2000, deadline=None)
def test_carrier_matches_the_packet_round_trip_at_length(state, pair):
    _check(state, pair)


class TestHandFoundCases:
    """Each of the four, refused the same way by both paths."""

    def test_a_bool_location_is_refused_by_the_writer(self):
        result = assert_carried_as_on_the_wire(BOOL_LOCATION, SPARC, VAX)
        assert result[:2] == ("raised", EncodingError)

    def test_a_lone_surrogate_is_refused_by_the_writer(self):
        result = assert_carried_as_on_the_wire(NOT_UTF8, SPARC, VAX)
        assert result[:2] == ("raised", UnicodeEncodeError)

    def test_a_null_procedure_is_refused_by_the_reader(self):
        result = assert_carried_as_on_the_wire(NULL_HEADER, SPARC, VAX)
        assert result == ("raised", DecodingError, "corrupt activation record header")

    @pytest.mark.parametrize(
        "writer, reader, words",
        [
            (VAX, SPARC, "32-bit native long on machine 'vax-like'"),
            (SPARC, VAX, "32-bit native long on machine 'vax-like'"),
        ],
    )
    def test_a_long_location_is_refused_by_the_narrower_end(self, writer, reader, words):
        result = assert_carried_as_on_the_wire(LONG_LOCATION, writer, reader)
        assert result[:2] == ("raised", MachineCompatibilityError)
        assert words in result[2]


class TestShapes:
    @pytest.mark.parametrize("pair", [(SPARC, VAX), (VAX, SPARC), (ALPHA, M68K), (SPARC, SPARC)])
    def test_the_deep_shard_state(self, pair):
        assert_carried_as_on_the_wire(deep_state(256, 4096), *pair)

    @pytest.mark.parametrize("fmt", ["lil", "lla", "laa"])
    def test_scalar_frames_meet_every_bound_of_the_catalogue(self, fmt):
        # An all-scalar frame skips the check calls for small ints: every
        # int just inside or outside a 16-, 32- or 64-bit bound, as a
        # writer and as a reader, must still be refused as the wire does.
        edges = [b + d for bits in (15, 31, 63) for b in (2**bits, -(2**bits)) for d in (-1, 0)]
        for value in edges:
            frame = state(ActivationRecord("main", 1, fmt, [1, value, value]))
            for writer, reader in MACHINE_PAIRS:
                assert_carried_as_on_the_wire(frame, writer, reader)

    def test_null_fields_read_as_the_decoder_reads_them(self):
        carried = carry_state(state(reconfig_point=None, source_machine=None), SPARC, VAX)
        assert carried.reconfig_point == "" and carried.source_machine == ""
        result = assert_carried_as_on_the_wire(state(module=None), SPARC, VAX)
        assert result == ("raised", DecodingError, "corrupt process state field 'module'")

    def test_subclasses_come_out_plain(self):
        carried = carry_state(
            state(
                ActivationRecord(Loud("main"), Colour.RED, "lsa", [Colour.RED, Loud("s"), Colour.HUGE]),
                statics={Loud("k"): Loud("v"), "n": [Colour.RED]},
            ),
            SPARC,
            ALPHA,
        )
        (record,) = carried.stack
        assert [type(v) for v in (record.procedure, record.location, *record.values)] == [str, int, int, str, int]
        assert [type(k) for k in carried.statics] == [str, str]
        assert type(carried.statics["n"][0]) is int

    def test_a_packed_dict_is_copied(self):
        store = {f"k{i}": f"v{i}" for i in range(64)}
        carried = carry_state(state(heap={"store": store}), SPARC, VAX)
        assert carried.heap["store"] == store and carried.heap["store"] is not store

    def test_an_f_value_narrows_and_an_out_of_range_f_value_overflows(self):
        carried = carry_state(state(ActivationRecord("main", 1, "lf", [1, 0.1])), SPARC, VAX)
        assert carried.stack.records()[0].values[1] != 0.1
        result = assert_carried_as_on_the_wire(
            state(ActivationRecord("main", 1, "lf", [1, 1e39])), SPARC, VAX
        )
        assert result[:2] == ("raised", OverflowError)

    def test_the_writer_refusal_comes_first(self):
        # vax would refuse the statics while reading, but sparc refuses a
        # frame while writing, before anything is read.
        result = assert_carried_as_on_the_wire(
            state(ActivationRecord("main", 1, "ll", [1, 2**70]), statics={"n": 2**40}),
            SPARC,
            VAX,
        )
        assert result[:2] == ("raised", MachineCompatibilityError)
        assert "sparc-like" in result[2]


class TestHandoff:
    def test_the_divulge_serializes_once_and_the_first_reader_takes_the_copy(self, monkeypatch):
        parsed = []
        from_bytes = ProcessState.from_bytes.__func__
        monkeypatch.setattr(
            ProcessState,
            "from_bytes",
            classmethod(lambda cls, data, m=None: parsed.append(1) or from_bytes(cls, data, m)),
        )
        state = deep_state(8, 16)
        divulged = Handoff.divulged(state, SPARC)
        assert divulged.packet == state.to_bytes(SPARC) and divulged.frames == 9
        first = divulged.read(VAX)
        assert parsed == []
        second = divulged.read(VAX)
        assert parsed == [1]
        assert first == second == from_bytes(ProcessState, divulged.packet, VAX)
        assert not state_mutable_ids(first) & state_mutable_ids(second)
        assert not state_mutable_ids(first) & state_mutable_ids(state)

    def test_the_copy_is_the_state_as_divulged(self):
        # A container the state shares with the running application may
        # change after the divulge; the module that resumes sees none of it.
        shared, store = [1, 2], {"k": "v"}
        state = ProcessState(
            module="m",
            stack=StackState([ActivationRecord("main", 1, "la", [1, shared])]),
            statics={"shared": shared},
            heap={"store": store},
        )
        divulged = Handoff.divulged(state, SPARC)
        shared.append(3)
        store["late"] = "x"
        for reader in (VAX, SPARC):  # the copy, then the packet
            resumed = divulged.read(reader)
            assert resumed.stack.records()[0].values[1] == [1, 2]
            assert resumed.statics["shared"] == [1, 2]
            assert resumed.heap["store"] == {"k": "v"}

    def test_the_reader_refuses_the_first_value_it_cannot_hold(self):
        # sparc-like writes both longs; vax-like refuses the statics' one
        # first, as its decode would, from the probe's record alone.
        wide = state(ActivationRecord("main", 1, "ll", [1, 2**50]), statics={"n": 2**40})
        result = assert_carried_as_on_the_wire(wide, SPARC, VAX)
        assert result[:2] == ("raised", MachineCompatibilityError)
        assert str(2**40) in result[2]
        assert assert_carried_as_on_the_wire(wide, SPARC, ALPHA)[0] == "ok"

    @pytest.mark.parametrize("value", [0.1, 1e39, 0.5])
    def test_a_32_bit_float_reader_checks_each_double(self, value):
        # 0.1 is not exact in 32 bits and 1e39 overflows them; 0.5 fits.
        for doubles in (
            state(ActivationRecord("main", 1, "lF", [1, value])),
            state(statics={"x": [value]}),
        ):
            result = assert_carried_as_on_the_wire(doubles, SPARC, M68K)
            assert result[0] == ("ok" if value == 0.5 else "raised")

    def test_a_packet_is_decoded(self):
        packet = deep_state(4, 4).to_bytes(SPARC)
        arrived = Handoff(packet, 5)
        assert arrived.read(VAX) == ProcessState.from_bytes(packet, VAX)
        assert (arrived.frames, arrived.packet) == (5, packet)
        assert Handoff.of(arrived) is arrived and Handoff.of(packet).packet == packet

    def test_a_host_behind_a_link_keeps_no_copy(self, monkeypatch):
        divulged = Handoff.divulged(deep_state(4, 4), SPARC, copy=False)
        monkeypatch.setattr(ProcessState, "carried", None)  # never reached
        assert divulged.read(VAX) == ProcessState.from_bytes(divulged.packet, VAX)

    def test_the_writer_refusal_comes_before_anything_is_kept(self):
        with pytest.raises(MachineCompatibilityError):
            Handoff.divulged(LONG_LOCATION, VAX)
