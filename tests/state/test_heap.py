"""Tests for heap capture/restore (repro.state.heap)."""

from enum import IntEnum

import pytest

from repro.errors import HeapError
from repro.state.encoding import decode_any, encode_any
from repro.state.heap import HeapCodec, HeapImage
from repro.state.pointers import SymbolicPointer

POINTER = SymbolicPointer("heap:0", 0)


class TestHeapCodecScalars:
    def test_scalars_pass_through(self):
        codec = HeapCodec()
        roots = {"a": 1, "b": "x", "c": 2.5, "d": None, "e": True, "f": b"\x01"}
        assert codec.roundtrip(roots) == roots

    def test_empty(self):
        assert HeapCodec().roundtrip({}) == {}


class TestHeapCodecContainers:
    def test_list(self):
        assert HeapCodec().roundtrip({"xs": [1, 2, 3]}) == {"xs": [1, 2, 3]}

    def test_dict(self):
        roots = {"d": {"k": [1, 2], "j": "v"}}
        assert HeapCodec().roundtrip(roots) == roots

    def test_tuple_flattened_in_place(self):
        roots = {"t": (1, (2, 3))}
        assert HeapCodec().roundtrip(roots) == roots

    def test_deep_nesting(self):
        roots = {"x": [{"a": [(1, [2])]}]}
        assert HeapCodec().roundtrip(roots) == roots


class TestStringStoreSegments:
    def test_plain_store_round_trips_to_a_distinct_dict(self):
        store = {f"k{i}": f"v{i}" for i in range(64)}
        restored = HeapCodec().roundtrip({"store": store})["store"]
        assert restored == store and restored is not store
        restored["k0"] = "changed"
        del restored["k1"]
        assert store["k0"] == "v0" and "k1" in store

    def test_restore_shares_no_container_with_the_image(self):
        # All-scalar segments are copied whole, each way: the image holds
        # no live container and each restore gets fresh ones.
        store = {"a": "b", 1: 2.5, None: True}
        xs = [1, "x", b"y", None]
        image = HeapCodec().capture({"store": store, "xs": xs})
        first = HeapCodec().restore(image)
        second = HeapCodec().restore(image)
        assert first == second == {"store": store, "xs": xs}
        for name, live in (("store", store), ("xs", xs)):
            segment = image.segments[image.roots[name].segment]
            assert segment is not live and type(segment) is type(live)
            assert first[name] is not segment and first[name] is not second[name]
            assert type(first[name]) is type(live)
        first["store"]["a"] = "changed"
        first["xs"].append(2)
        assert store["a"] == "b" and len(xs) == 4
        assert HeapCodec().restore(image) == {"store": store, "xs": xs}

    def test_subclassed_entries_take_the_walk_and_keep_their_types(self):
        class Key(str):
            pass

        class Level(IntEnum):
            HIGH = 2

        store = {"a": "b", Key("k"): "v", "level": Level.HIGH}
        xs = ["x", Level.HIGH]
        restored = HeapCodec().roundtrip({"store": store, "xs": xs})
        assert restored == {"store": store, "xs": xs}
        assert {type(k) for k in restored["store"]} == {str, Key}
        assert type(restored["store"]["level"]) is Level
        assert type(restored["xs"][1]) is Level

    def test_a_store_with_one_pointer_value(self):
        shared = ["x"]
        store = {"a": "b", "c": "d", "list": shared}
        image = HeapCodec().capture({"store": store, "shared": shared})
        segment = image.segments[image.roots["store"].segment]
        assert isinstance(segment["list"], SymbolicPointer)
        restored = HeapCodec().restore(image)
        assert restored["store"] == store
        assert restored["store"]["list"] is restored["shared"]

    def test_store_over_the_wire(self):
        store = {f"k{i}": f"v{i}" for i in range(64)}
        wire = encode_any(HeapCodec().capture({"store": store}).to_abstract())
        assert b"}\x40" in wire  # the packed tag and a count of 64
        restored = HeapCodec().restore(HeapImage.from_abstract(decode_any(wire)))
        assert restored["store"] == store and list(restored["store"]) == list(store)


class TestAliasingAndCycles:
    def test_shared_list_stays_shared(self):
        shared = [1, 2]
        restored = HeapCodec().roundtrip({"a": shared, "b": shared})
        assert restored["a"] is restored["b"]
        restored["a"].append(3)
        assert restored["b"] == [1, 2, 3]

    def test_distinct_lists_stay_distinct(self):
        restored = HeapCodec().roundtrip({"a": [1], "b": [1]})
        assert restored["a"] is not restored["b"]

    def test_self_cycle(self):
        xs: list = [1]
        xs.append(xs)
        restored = HeapCodec().roundtrip({"xs": xs})
        assert restored["xs"][1] is restored["xs"]

    def test_mutual_cycle(self):
        a: dict = {}
        b = {"a": a}
        a["b"] = b
        restored = HeapCodec().roundtrip({"a": a})
        assert restored["a"]["b"]["a"] is restored["a"]

    def test_image_is_canonically_encodable(self):
        # The flattened image must survive the abstract wire format —
        # that is how heap state crosses machines.
        shared = [1, 2]
        image = HeapCodec().capture({"a": shared, "b": shared})
        wire = encode_any(image.to_abstract())
        rebuilt = HeapCodec().restore(HeapImage.from_abstract(decode_any(wire)))
        assert rebuilt["a"] is rebuilt["b"]

    def test_keys_pointers_and_empties_survive_the_wire(self):
        shared = {"n": 1}
        ring: list = [shared]
        ring.append(ring)
        outside = SymbolicPointer("static:x", 3)
        roots = {
            "store": {
                (1, "a"): [2, (3, shared)],
                outside: SymbolicPointer("file:log", -1),
                "empty_list": [],
                "empty_dict": {},
                "empty_tuple": (),
                "": "",
            },
            "ring": ring,
            "again": shared,
        }
        restored = _over_the_wire(roots)
        store = restored["store"]
        assert store == roots["store"] and list(store) == list(roots["store"])
        assert store[outside] == SymbolicPointer("file:log", -1)
        assert store[(1, "a")][1][1] is restored["again"] is restored["ring"][0]
        assert restored["ring"][1] is restored["ring"]
        assert store["empty_list"] is not store["empty_dict"]


def _over_the_wire(roots):
    image = HeapCodec().capture(roots).to_abstract()
    return HeapCodec().restore(HeapImage.from_abstract(decode_any(encode_any(image))))


def _strings(value):
    """Every string anywhere in an image value, keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strings(key)
            yield from _strings(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _strings(item)


class TestImageLayout:
    def test_segments_are_the_codecs_own_containers(self):
        roots = {"store": {"k": ["x", "y"], "j": 2}, "xs": [1, {"d": None}]}
        image = HeapCodec().capture(roots)
        store = image.segments[image.roots["store"].segment]
        xs = image.segments[image.roots["xs"].segment]
        assert type(store) is dict and type(xs) is list
        assert store["j"] == 2
        assert type(image.segments[store["k"].segment]) is list
        assert type(image.segments[xs[1].segment]) is dict
        for value in (image.to_abstract(), decode_any(encode_any(image.to_abstract()))):
            assert not {"dict", "list"} & set(_strings(value))

    def test_segment_entries_are_flattened_once(self):
        # Scalars are copied as they are; only containers, tuples and
        # pointers are rewritten.
        image = HeapCodec().capture({"m": {"a": "b", 1: (2,), "l": [None]}})
        segment = image.segments[image.roots["m"].segment]
        assert segment["a"] == "b"
        assert segment[1] == ("tuple", (2,))
        assert isinstance(segment["l"], SymbolicPointer)


class TestHeapErrors:
    def test_unsupported_type_names_hook(self):
        class Custom:
            pass

        hook = r"mh\.register_heap_hook\(name, capture, restore\)"
        with pytest.raises(HeapError, match=hook):
            HeapCodec().capture({"x": Custom()})

    def test_malformed_image(self):
        with pytest.raises(HeapError):
            HeapImage.from_abstract("nonsense")

    def test_malformed_image_fields(self):
        with pytest.raises(HeapError):
            HeapImage.from_abstract({"roots": [], "segments": {}})

    def test_dangling_segment(self):
        image = HeapImage(roots={"x": SymbolicPointer("heap:9", 0)}, segments={"heap:9": None})
        with pytest.raises(HeapError):
            HeapCodec().restore(image)

    @pytest.mark.parametrize(
        "roots,segments,message",
        [
            # A segment must be a list or a dict...
            ({"x": POINTER}, {"heap:0": ("a", "b")}, "malformed heap segment"),
            ({"x": POINTER}, {"heap:0": "list"}, "malformed heap segment"),
            # ...and a container only ever appears behind a pointer: the
            # version-1 tagged form is now an inline list inside a list.
            ({"x": POINTER}, {"heap:0": ["dict", [["k", "v"]]]}, "malformed heap image value"),
            ({"x": POINTER}, {"heap:0": {"k": {"inline": 1}}}, "malformed heap image value"),
            ({"x": [1, 2]}, {}, "malformed heap image value"),
            ({"x": SymbolicPointer("heap:0", 2)}, {"heap:0": []}, "non-zero index"),
        ],
    )
    def test_malformed_segments(self, roots, segments, message):
        image = HeapImage(roots=roots, segments=segments)
        with pytest.raises(HeapError, match=message):
            HeapCodec().restore(image)

    def test_pointer_outside_image_kept_symbolic(self):
        pointer = SymbolicPointer("static:x", 0)
        image = HeapCodec().capture({"p": pointer})
        assert HeapCodec().restore(image)["p"] == pointer

