"""Golden-bytes tests: the compiled codec is wire-identical to the seed.

The compiled encoder/decoder plans (repro.state.encoding) are a pure
performance change; every byte they produce must match the original
tree-walking codec, which is preserved verbatim in
``tests/state/reference_codec.py`` as the executable wire specification.  Two
layers of protection here:

1. Hard-coded hex vectors produced by the seed codec — these catch a
   wire change even if someone "fixes" the reference module to match a
   regression in the compiled one.
2. Live compiled-vs-reference comparison over the same corpus, plus a
   full ProcessState packet, so any divergence on composite structures
   is caught byte-for-byte.
"""

import collections
import hashlib

import pytest

from repro.errors import DecodingError
from repro.state.encoding import decode_any, decode_values, encode_any, encode_values
from repro.state.frames import ProcessState, ActivationRecord, StackState
from repro.state.heap import HeapCodec, HeapImage
from repro.state.machine import MACHINES
from repro.state.pointers import SymbolicPointer

from tests.state.reference_codec import (
    reference_decode_values,
    reference_encode_values,
    reference_state_from_bytes,
    reference_state_to_bytes,
)
from tests.state.stacks import deep_state

#: sha256 of ``deep_state()``'s packet under sparc-like, written by the
#: codec that wrote every frame header afresh; never regenerate it from
#: the current code.
DEEP_STATE_SHA256 = "eb3da631e93ed248a54002f49697de05ef9c6c714a65d42218e6261bef39a56b"

# (fmt, values, seed-encoder hex) — generated once from the pre-rewrite
# codec; never regenerate these from the current code.
GOLDEN_VECTORS = [
    ("b", [True], "6201"),
    ("b", [False], "6200"),
    ("n", [None], "6e"),
    ("i", [-1], "6901"),
    ("l", [4611686018427387904], "6c80808080808080808001"),
    ("l", [-4611686018427387904], "6cffffffffffffffff7f"),
    ("f", [1.5], "663fc00000"),
    ("F", [3.141592653589793], "46400921fb54442d18"),
    ("F", [-0.0], "468000000000000000"),
    ("s", ["héllo ☃"], "730a68c3a96c6c6f20e29883"),
    ("p", [SymbolicPointer(segment="heap:17", index=-3)], "7007686561703a313705"),
    ("[l]", [[1, 2, 3]], "5b036c026c046c06"),
    ("(slF)", [("x", 1, 2.0)], "28037301786c02464000000000000000"),
    ("{sl}", [{"b": 2, "a": 1}], "7b027301626c047301616c02"),
    (
        "a",
        [{"k": [(1, 2.5), None], "f": True}],
        "7b0273016b5b0228026c024640040000000000006e7301666201",
    ),
    (
        "il[F](si)",
        [1, 2, [1.5, 2.5], ("s", 9)],
        "69026c045b02463ff800000000000046400400000000000028027301736912",
    ),
    ("b", [None], "6e"),
    ("[i]", [None], "6e"),
    ("a", [None], "6e"),
    # Self-described ('a') values the seed wrote through type inference and
    # the live codec writes in one walk: mixed-type list, None inside a
    # homogeneous list, empty containers, bool/int mix, bytearray, pointers
    # in tuples and lists, a heap-image-shaped dict, mixed dict keys, and
    # a string whose length needs a two-byte varint.
    (
        "a",
        [[1, "x", 2.5, None, True, b"\x00\xff"]],
        "5b066c027301784640040000000000006e6201420200ff",
    ),
    ("a", [[1, None, 3]], "5b036c026e6c06"),
    ("a", [[[], {}, ()]], "5b035b007b002800"),
    ("a", [[True, 1, False, 0]], "5b0462016c0262006c00"),
    ("a", [bytearray(b"raw")], "4203726177"),
    (
        "a",
        [("p", SymbolicPointer("heap:0", 0), [SymbolicPointer("obj:3", -2)])],
        "28037301707006686561703a30005b0170056f626a3a3303",
    ),
    (
        "a",
        [
            {
                "image": {
                    "roots": {"store": SymbolicPointer("heap:0", 0)},
                    "segments": {"heap:0": ["dict", [["k", "v"], ["n", 7]]]},
                },
                "files": [],
            }
        ],
        "7b027305696d6167657b027305726f6f74737b01730573746f72657006686561703a3000"
        "73087365676d656e74737b017306686561703a305b027304646963745b025b0273016b73"
        "01765b0273016e6c0e730566696c65735b00",
    ),
    (
        "a",
        [{1: "int key", "s": 2, None: [None]}],
        "7b036c027307696e74206b65797301736c046e5b016e",
    ),
    ("a", ["x" * 130], "738201" + "78" * 130),
]

# The packed string dict ('}'): pair count, byte length, then the UTF-8 of
# k1 NUL v1 NUL ... vn.  Not produced by the seed codec: each hex string
# below is derived by hand from that rule (or, for the fallbacks, from
# the '{' grammar), so a drift in both codecs at once still fails here.
PACKED_VECTORS = [
    ("a", [{"a": "b"}], "7d0103610062"),
    ("{ss}", [{"a": "b"}], "7d0103610062"),
    ("{sa}", [{"b": "2", "a": "1"}], "7d020762003200610031"),
    ("a", [{"": ""}], "7d010100"),
    ("a", [{"é": "☃"}], "7d0106c3a900e29883"),
    # 129 payload bytes: a two-byte length varint.
    ("a", [{"k": "x" * 127}], "7d0181016b00" + "78" * 127),
    # Only the innermost dict is all-str.
    ("a", [{"k": {"a": "b"}}], "7b0173016b7d0103610062"),
    # The empty dict, a NUL inside a key or a value, one non-str value,
    # and a declared value spec that is neither 's' nor 'a' keep '{'.
    ("a", [{}], "7b00"),
    ("a", [{"a\x00": "b"}], "7b0173026100730162"),
    ("a", [{"a": "\x00"}], "7b01730161730100"),
    ("a", [{"a": "b", "n": 1}], "7b0273016173016273016e6c02"),
    ("a", [{"a": None}], "7b017301616e"),
    ("{ss}", [{"a": None}], "7b017301616e"),
]


def sample_state() -> ProcessState:
    frames = [
        ActivationRecord("main", 2, "llF", [2, 40, 1.25]),
        ActivationRecord("compute", 1, "lls", [1, 7, "window"]),
        ActivationRecord("helper", 3, "l[i]{sl}", [3, [1, 2], {"k": 9}]),
    ]
    return ProcessState(
        module="compute",
        stack=StackState(list(frames)),
        statics={"total": 1234, "label": "running"},
        heap={"image": {"roots": {}, "cells": []}, "files": []},
        reconfig_point="R1",
        source_machine="sparc-like",
        status="clone",
    )


class TestGoldenVectors:
    @pytest.mark.parametrize("fmt,values,expected", GOLDEN_VECTORS)
    def test_compiled_matches_seed_bytes(self, fmt, values, expected):
        assert encode_values(fmt, values).hex() == expected

    @pytest.mark.parametrize("fmt,values,expected", GOLDEN_VECTORS)
    def test_reference_matches_seed_bytes(self, fmt, values, expected):
        assert reference_encode_values(fmt, values).hex() == expected

    @pytest.mark.parametrize("fmt,values,expected", GOLDEN_VECTORS)
    def test_decoders_agree_on_seed_bytes(self, fmt, values, expected):
        data = bytes.fromhex(expected)
        assert decode_values(data) == reference_decode_values(data)


class TestPackedStringDict:
    @pytest.mark.parametrize("fmt,values,expected", PACKED_VECTORS)
    def test_both_codecs_write_the_derived_bytes(self, fmt, values, expected):
        assert encode_values(fmt, values).hex() == expected
        assert reference_encode_values(fmt, values).hex() == expected

    @pytest.mark.parametrize("fmt,values,expected", PACKED_VECTORS)
    def test_both_codecs_read_them_back(self, fmt, values, expected):
        data = bytes.fromhex(expected)
        assert decode_values(data) == reference_decode_values(data) == values

    def test_dict_subclass_packs_like_a_plain_dict(self):
        plain = {f"k{i}": f"v{i}" for i in range(40)}
        expected = encode_any(plain)
        assert expected[0] == ord("}")
        for subclass in (
            collections.OrderedDict(plain),
            collections.defaultdict(str, plain),
        ):
            assert encode_any(subclass) == expected
            assert encode_values("{ss}", [subclass]) == expected

    def test_fallback_keeps_the_walks_errors(self):
        # A lone surrogate and a non-str under a declared 's' fail the
        # packed attempt; the walk then raises exactly as before.
        def outcome(fn, *args):
            try:
                return fn(*args)
            except Exception as exc:  # noqa: BLE001 - compared, not swallowed
                return (type(exc).__name__, str(exc))

        for fmt, values in (
            ("a", [{"a": "\ud800"}]),
            ("{ss}", [{"a": "\ud800"}]),
            ("{ss}", [{"a": 1}]),
            ("{sl}", [{"a": "b"}]),
        ):
            ours = outcome(encode_values, fmt, values)
            assert isinstance(ours, tuple)
            assert ours == outcome(reference_encode_values, fmt, values)

    @pytest.mark.parametrize(
        "data,message",
        [
            ("7d0103616262", "packed dict of 1 pairs holds 1 strings"),
            ("7d0203610062", "packed dict of 2 pairs holds 2 strings"),
            ("7d00026100", "packed dict of 0 pairs holds 2 strings"),
            ("7d010a610062", "truncated abstract state: need 10 bytes"),
            ("7d01", "truncated abstract state"),
        ],
    )
    def test_malformed_payload_is_a_decoding_error(self, data, message):
        with pytest.raises(DecodingError, match=message):
            decode_any(bytes.fromhex(data))
        with pytest.raises(DecodingError):
            reference_decode_values(bytes.fromhex(data))


class TestLiveComparison:
    @pytest.mark.parametrize("machine", [None, MACHINES["sparc-like"], MACHINES["vax-like"]])
    @pytest.mark.parametrize("fmt,values,_expected", GOLDEN_VECTORS)
    def test_compiled_equals_reference(self, fmt, values, _expected, machine):
        # Outcomes must agree exactly: same bytes, or the same error with
        # the same message (e.g. 2**62 under vax-like's 32-bit long).
        def outcome(fn):
            try:
                return fn(fmt, values, machine)
            except Exception as exc:  # noqa: BLE001 - captured for comparison
                return (type(exc).__name__, str(exc))

        assert outcome(encode_values) == outcome(reference_encode_values)

    def test_process_state_packet_identical(self):
        machine = MACHINES["sparc-like"]
        state = sample_state()
        compiled = state.to_bytes(machine)
        reference = reference_state_to_bytes(sample_state(), machine)
        assert compiled == reference

    def test_heap_bearing_packet_identical(self):
        # The shape that made inference quadratic: a captured heap image
        # (container segments behind symbolic pointers, an alias and a
        # cycle) nested four dicts deep under the packet's heap field.
        shared = {"hits": 3, "tags": ["a", "b"]}
        ring: list = [1, shared]
        ring.append(ring)
        roots = {
            "store": {f"k{i:03d}": f"v{i}" for i in range(200)},
            "shared": shared,
            "again": shared,
            "ring": ring,
        }

        def state() -> ProcessState:
            return ProcessState(
                module="shard",
                stack=StackState(
                    [ActivationRecord("main", 1, "lla", [1, 7, {"mixed": [1, "x"]}])]
                ),
                statics={"served": 12, "name": "shard_0", "ratio": 0.5},
                heap={
                    "image": HeapCodec().capture(roots).to_abstract(),
                    "files": [],
                },
                reconfig_point="Q",
                source_machine="sparc-like",
            )

        machine = MACHINES["sparc-like"]
        packet = state().to_bytes(machine)
        assert packet == reference_state_to_bytes(state(), machine)
        ours = ProcessState.from_bytes(packet, MACHINES["vax-like"])
        ref = reference_state_from_bytes(packet, MACHINES["vax-like"])
        assert ours.heap == ref.heap and ours.statics == ref.statics
        rebuilt = HeapCodec().restore(HeapImage.from_abstract(ours.heap["image"]))
        assert rebuilt["store"] == roots["store"]
        assert rebuilt["shared"] is rebuilt["again"] is rebuilt["ring"][1]
        assert rebuilt["ring"][2] is rebuilt["ring"]
        assert ours.stack.depth == 1

    def test_deep_state_packet_identical(self):
        # 255 idle frames repeat one header: written once per run, the
        # packet is still the reference walk's, byte for byte.
        machine = MACHINES["sparc-like"]
        packet = deep_state().to_bytes(machine)
        assert packet == reference_state_to_bytes(deep_state(), machine)
        assert hashlib.sha256(packet).hexdigest() == DEEP_STATE_SHA256
        ours = ProcessState.from_bytes(packet, MACHINES["vax-like"])
        ref = reference_state_from_bytes(packet, MACHINES["vax-like"])
        assert ours.stack == ref.stack == deep_state().stack
        assert ours.heap == ref.heap and ours.statics == ref.statics

    def test_process_state_decoders_agree(self):
        machine = MACHINES["sparc-like"]
        packet = sample_state().to_bytes(machine)
        ours = ProcessState.from_bytes(packet, MACHINES["vax-like"])
        ref = reference_state_from_bytes(packet, MACHINES["vax-like"])
        assert ours.module == ref.module
        assert ours.statics == ref.statics
        assert ours.heap == ref.heap
        assert [r.values for r in ours.stack.records()] == [
            r.values for r in ref.stack.records()
        ]

    def test_peek_header_matches_full_decode(self):
        # The packet's header fields and depth, read by the one decoder,
        # agree with the seed codec's full decode.
        packet = sample_state().to_bytes(MACHINES["sparc-like"])
        header = ProcessState.from_bytes(packet)
        full = reference_state_from_bytes(packet, None)
        assert header.module == full.module == "compute"
        assert header.reconfig_point == full.reconfig_point == "R1"
        assert header.source_machine == full.source_machine
        assert header.stack.depth == full.stack.depth == 3
