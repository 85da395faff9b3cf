"""Shared Hypothesis strategies for the codec-facing differential tests.

The values a test feeds a codec path and its oracle come from here, so
every such test draws the same hard cases: integers at each catalogued
machine's native bounds, floats past binary32, strings with a NUL or a
lone surrogate, subclasses that the wire turns into their base type, and
values that fit no declaration at all.

- :func:`values_for` draws values for a parsed format spec, now and then
  one that does not fit it; :func:`spec_formats` draws the specs.
- :func:`process_states` draws whole :class:`ProcessState` s: frame runs
  that repeat a header and runs that change it, header strings that are
  NULL, empty or not UTF-8, ``bool`` and out-of-range frame locations,
  heap segments that are all-scalar, packed ``}`` string dicts or
  nested, and statics holding containers.
- :data:`MACHINE_PAIRS` is every ordered (writer, reader) pair of the
  catalogue, a machine with itself included.
"""

from __future__ import annotations

import enum
import math
import struct
from typing import Dict, NamedTuple, Optional

from hypothesis import strategies as st

from repro.state.format import ListType, ScalarType, TupleType, parse_format
from repro.state.frames import ActivationRecord, ProcessState, StackState
from repro.state.machine import MACHINES
from repro.state.pointers import SymbolicPointer

#: Every ordered (writer, reader) pair of catalogued machines.
MACHINE_PAIRS = [
    (writer, reader) for writer in MACHINES.values() for reader in MACHINES.values()
]


class Colour(enum.IntEnum):
    RED = 1
    HUGE = 2**40


class Loud(str):
    def __str__(self):
        return "LOUD"


# -- values ------------------------------------------------------------------------------


class Values(NamedTuple):
    """One family of value strategies: ``any`` for ``a``, ``typed`` by
    scalar char, ``keys`` for dict keys, and ``misfits`` (or None) for a
    value that fits no declaration."""

    any: st.SearchStrategy
    typed: Dict[str, st.SearchStrategy]
    keys: st.SearchStrategy
    misfits: Optional[st.SearchStrategy]


def _values(ints, floats, texts, odd: bool) -> Values:
    pointers = st.builds(SymbolicPointer, texts, ints)
    subclasses = [Colour.RED, Loud("quiet")] + ([Colour.HUGE] if odd else [])
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        ints,
        floats,
        texts,
        st.binary(max_size=6),
        st.binary(max_size=6).map(bytearray),
        pointers,
        st.sampled_from(subclasses),
    )
    keys = st.one_of(st.none(), st.booleans(), ints, floats, texts, st.just(Loud("k")))
    # Packed '}' candidates: non-empty str -> str dicts, a str subclass
    # now and then (and, as texts may, a NUL or a lone surrogate).
    string_dicts = st.dictionaries(
        st.one_of(texts, st.just(Loud("k"))),
        st.one_of(texts, st.just(Loud("v"))),
        min_size=1,
        max_size=5,
    )
    any_values = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
            string_dicts,
        ),
        max_leaves=12,
    )
    typed = {
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
    misfits = st.one_of(any_values, st.builds(object)) if odd else None
    return Values(any_values, typed, keys, misfits)


#: Integers around every native bound of the catalogue (16/32/64 bits).
edge_ints = st.sampled_from(
    [b + d for bits in (15, 31, 63) for b in (2**bits, -(2**bits)) for d in (-1, 0)]
    + [2**70, -(2**70)]
)

#: Values any machine writes and reads: ints of 16 bits, floats exact in
#: binary32 (or not finite), strings with no lone surrogate.
CLEAN = _values(
    st.integers(-(2**15), 2**15 - 1),
    st.one_of(st.floats(width=16), st.sampled_from([0.5, -0.0, math.inf, math.nan])),
    st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
        st.sampled_from(["a\x00b", "é", "", "x" * 130]),
    ),
    odd=False,
)
#: Values some machine, or the wire, refuses: past a native bound, past
#: binary32, not UTF-8, or of a type no format takes.
ODD = _values(
    st.one_of(st.integers(-1000, 1000), st.integers(-(2**70), 2**70), edge_ints),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.1, 0.5, -0.0, 3.5e38, 1e39, 2.0**30 + 1, math.nan]),
    ),
    st.one_of(st.text(max_size=6), st.sampled_from(["\ud800", "a\x00b", "é", "", "x" * 130])),
    odd=True,
)


# -- declared values ------------------------------------------------------------------


def spec_formats():
    """One spec's format string: a scalar, or lists, tuples and dicts of
    them."""
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


def values_for(spec, values: Values = ODD, hashable=False):
    """Values that fit ``spec``, now and then (from :data:`ODD`) one that
    does not."""
    if isinstance(spec, ScalarType):
        fits = values.typed[spec.char] if not hashable else values.keys
    elif isinstance(spec, ListType):
        fits = st.lists(values_for(spec.element, values), max_size=3)
    elif isinstance(spec, TupleType):
        fits = st.tuples(*(values_for(e, values) for e in spec.elements))
    else:
        fits = st.dictionaries(
            values_for(spec.key, values, hashable=True),
            values_for(spec.value, values),
            max_size=3,
        )
    if values.misfits is None:
        return st.one_of(st.none(), fits, fits, fits)
    misfit = values.keys if hashable else values.misfits
    return st.one_of(st.none(), fits, fits, fits, misfit)


# -- whole process states ---------------------------------------------------------------

#: A header field that is not a plain name: NULL, empty, not UTF-8, a
#: ``str`` subclass, or no string at all.
odd_strings = st.sampled_from([None, "", "\ud800", Loud("m"), 5])
names = st.sampled_from(["main", "descend", "compute"])
#: A frame location that is a ``bool``, an ``int`` subclass, a ``float``,
#: or one past a 32- or 64-bit long.
odd_locations = st.sampled_from(
    [True, False, Colour.RED, Colour.HUGE, 3.0, 2**31, 2**40, 2**63, -(2**63) - 1]
)
#: Capture formats: the shapes real capture blocks write (all-scalar
#: frames, the deep shard's ``llaaaaa``), then generated ones.
frame_formats = st.one_of(
    st.sampled_from(["l", "llaaaaa", "lllF", "lsf", "lib", "lF"]),
    st.lists(spec_formats(), max_size=3).map(lambda specs: "l" + "".join(specs)),
)
#: A frame header's format that is NULL, does not parse, or is not UTF-8.
odd_formats = st.sampled_from([None, "l(", "\ud800"])


@st.composite
def frame_values(draw, fmt, location, values: Values):
    """A frame's values under ``fmt`` (its location first): now and then
    an idle frame (all ``None`` after the location), and from
    :data:`ODD` now and then one value too few."""
    try:
        specs = parse_format(fmt)
    except Exception:  # noqa: BLE001 - a header that names no format
        return [location]
    if draw(st.integers(0, 3)) == 0:
        drawn = [location] + [None] * (len(specs) - 1)
    else:
        drawn = [location] + [draw(values_for(spec, values)) for spec in specs[1:]]
    if values.misfits is not None and draw(st.integers(0, 19)) == 0:
        drawn = drawn[:-1]  # arity mismatch
    return drawn


@st.composite
def stacks(draw, values: Values = ODD):
    """Runs of frames: a run repeats one header (procedure, location,
    format) over frames of their own values; the next run changes one or
    more of the three.  Under :data:`ODD` one header field in five is
    odd."""
    odd = values.misfits is not None
    records = []
    for _ in range(draw(st.integers(0, 4))):
        procedure, location, fmt = draw(names), draw(st.integers(0, 9)), draw(frame_formats)
        if odd and draw(st.integers(0, 4)) == 0:
            field = draw(st.integers(0, 2))
            if field == 0:
                procedure = draw(odd_strings)
            elif field == 1:
                location = draw(odd_locations)
            else:
                fmt = draw(odd_formats)
        for _ in range(draw(st.integers(1, 4))):
            if isinstance(fmt, str):
                frame = draw(frame_values(fmt, location, values))
            else:
                frame = [location]
            records.append(ActivationRecord(procedure, location, fmt, frame))
    return StackState(records)


@st.composite
def heaps(draw, values: Values = ODD):
    """The heap as ``MH`` captures it: an image of roots and segments —
    each all-scalar, a packed ``}`` string dict, or nested — and the
    open files; now and then any dict."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.dictionaries(values.keys, values.any, max_size=3))
    scalar = values.typed
    segments = st.one_of(
        st.lists(st.one_of(st.none(), st.booleans(), scalar["l"], scalar["F"], scalar["s"]), max_size=5),
        st.dictionaries(scalar["s"], st.one_of(st.none(), scalar["l"], scalar["s"]), max_size=5),
        st.dictionaries(scalar["s"], scalar["s"], min_size=1, max_size=8),
        values.any,
    )
    segment_names = draw(
        st.lists(st.sampled_from(["heap:0", "heap:1", "heap:2"]), unique=True, max_size=3)
    )
    return {
        "image": {
            "roots": {name: SymbolicPointer(name, 0) for name in segment_names},
            "segments": {name: draw(segments) for name in segment_names},
        },
        "files": draw(st.lists(values.any, max_size=2)),
    }


@st.composite
def process_states(draw):
    """Whole states, half of them drawn from :data:`CLEAN` values (which
    every machine pair carries) and half from :data:`ODD` ones; in one
    odd state in five, one of the four header fields is odd."""
    values = draw(st.sampled_from([CLEAN, ODD]))
    fields = {"module": "m", "status": "clone", "reconfig_point": "Q", "source_machine": "sparc-like"}
    if values is ODD and draw(st.integers(0, 4)) == 0:
        fields[draw(st.sampled_from(sorted(fields)))] = draw(odd_strings)
    return ProcessState(
        stack=draw(stacks(values)),
        statics=draw(st.dictionaries(values.typed["s"], values.any, max_size=4)),
        heap=draw(heaps(values)),
        **fields,
    )


# -- outcomes ----------------------------------------------------------------------------


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


def typed_state(state: ProcessState):
    """A whole state, typed node by node (:func:`typed`)."""
    return (
        typed([state.module, state.status, state.reconfig_point, state.source_machine]),
        typed(state.statics),
        typed(state.heap),
        [
            (typed(record.procedure), typed(record.location), typed(record.fmt), typed(record.values))
            for record in state.stack
        ],
    )


def mutable_ids(value, into):
    """The ids of every list, dict and ``bytearray`` inside ``value``."""
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


def state_mutable_ids(state: ProcessState) -> set:
    into = mutable_ids(state.statics, set())
    mutable_ids(state.heap, into)
    for record in state.stack:
        mutable_ids(record.values, into)
    return into
