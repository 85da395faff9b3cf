"""Property-based tests for the abstract state layer (hypothesis)."""

import math

from hypothesis import given, settings, strategies as st

from repro.state.encoding import decode_any, decode_values, encode_any, encode_values
from repro.state.format import format_of_value
from repro.state.frames import ActivationRecord, ProcessState, StackState
from repro.state.heap import HeapCodec, HeapImage
from repro.state.machine import MACHINES
from repro.state.pointers import SymbolicPointer

# Values whose equality survives a roundtrip (floats: finite doubles only,
# NaN breaks ==; they are covered by the unit tests).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
    st.binary(max_size=40),
)

abstract_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


@given(abstract_values)
@settings(max_examples=200, deadline=None)
def test_any_encoding_roundtrip(value):
    assert decode_any(encode_any(value)) == value


@given(abstract_values)
@settings(max_examples=100, deadline=None)
def test_inferred_format_always_matches(value):
    spec = format_of_value(value)
    data = encode_values(spec.format_char(), [value])
    assert decode_values(data) == [value]


@given(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
@settings(max_examples=100, deadline=None)
def test_cross_machine_transfer_preserves_representable_values(i, f):
    # A value crosses every machine pair on which it is representable,
    # unchanged; unrepresentable targets are covered by the unit tests.
    profiles = list(MACHINES.values())
    for source in profiles:
        if i not in source.int_range("i"):
            continue
        data = encode_values("iF", [i, f], source)
        for target in profiles:
            if i not in target.int_range("i"):
                continue
            if target.float_bits == 32 and f != 0.0:
                continue  # float32 exactness already covered separately
            decoded = decode_values(data, target)
            assert decoded[0] == i
            assert math.isclose(decoded[1], f, rel_tol=1e-6, abs_tol=1e-30)


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None)
def test_process_state_roundtrip_any_depth(depth):
    # Stack capture/restore order is exact at every recursion depth.
    stack = StackState()
    stack.push_captured(
        ActivationRecord("compute", 4, "lllF", [4, 1, 0, 0.0])
    )
    for level in range(depth - 1):
        stack.push_captured(
            ActivationRecord("compute", 3, "lllF", [3, 1, level, float(level)])
        )
    stack.push_captured(ActivationRecord("main", 1, "llF", [1, depth, 0.0]))
    state = ProcessState(module="m", stack=stack, reconfig_point="R")
    restored = ProcessState.from_bytes(state.to_bytes())
    assert restored.stack.depth == depth + 1
    assert restored.stack.pop_for_restore().procedure == "main"
    last = None
    while restored.stack.depth:
        last = restored.stack.pop_for_restore()
    assert last is not None and last.location == 4


# Pointers into other areas (statics, files) pass through the heap codec;
# their segment names never collide with the codec's own "heap:N".
outside_pointers = st.builds(
    SymbolicPointer,
    segment=st.text(max_size=5).map(lambda s: "static:" + s),
    index=st.integers(-3, 3),
)
heap_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=10),
    outside_pointers,
)
heap_keys = st.one_of(
    st.text(max_size=5),
    st.integers(-5, 5),
    outside_pointers,
    st.tuples(st.text(max_size=3), st.integers(0, 3)),
    st.tuples(),
)
heap_values = st.recursive(
    heap_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(heap_keys, children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@given(st.dictionaries(st.text(min_size=1, max_size=6), heap_values, max_size=4))
@settings(max_examples=100, deadline=None)
def test_heap_codec_roundtrip(roots):
    assert HeapCodec().roundtrip(roots) == roots
    # ...and across the wire, between two machines, in key order.
    image = encode_any(HeapCodec().capture(roots).to_abstract(), MACHINES["sparc-like"])
    rebuilt = HeapCodec().restore(
        HeapImage.from_abstract(decode_any(image, MACHINES["vax-like"]))
    )
    assert rebuilt == roots
    assert [list(v) for v in rebuilt.values() if isinstance(v, dict)] == [
        list(v) for v in roots.values() if isinstance(v, dict)
    ]


@given(st.lists(st.integers(), min_size=1, max_size=8), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_heap_codec_preserves_alias_structure(payload, copies):
    shared = list(payload)
    roots = {f"r{i}": shared for i in range(copies)}
    roots["container"] = [shared, shared]
    restored = HeapCodec().roundtrip(roots)
    first = restored["r0"]
    for i in range(copies):
        assert restored[f"r{i}"] is first
    assert restored["container"][0] is first
    assert restored["container"][1] is first
