"""Heap capture and restoration.

The paper (Section 1.2): "The data stored in the heap is dynamically
allocated by the programmer.  At the present time, the programmer must
write code to capture and restore heap data structures."  That mechanism
is ``mh.register_heap_hook`` (programmer-written capture/restore
routines, per module); this file is the *automatic* codec
(:class:`HeapCodec`) for plain object graphs, built on the symbolic
pointer translation the paper sketches for pointer variables.  The
automatic codec handles aliasing and cycles: every container becomes a
named heap segment and references between containers become
:class:`~repro.state.pointers.SymbolicPointer` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import HeapError
from repro.state.pointers import SymbolicPointer

@dataclass
class HeapImage:
    """A flattened, machine-independent image of a heap object graph.

    ``roots`` maps root names to values; ``segments`` maps segment ids to
    flattened container contents: a list segment *is* a ``list`` and a
    dict segment *is* a ``dict``, in the codec's own containers, so the
    image carries no per-entry wrapper.  Inside both, references to
    shared or cyclic containers appear as :class:`SymbolicPointer` values
    whose segment names key into ``segments``.  The whole image is
    encodable with format char ``a``.
    """

    roots: Dict[str, object] = field(default_factory=dict)
    segments: Dict[str, object] = field(default_factory=dict)

    def to_abstract(self) -> Dict[str, object]:
        return {"roots": dict(self.roots), "segments": dict(self.segments)}

    @classmethod
    def from_abstract(cls, value: object) -> "HeapImage":
        if not isinstance(value, dict) or set(value) != {"roots", "segments"}:
            raise HeapError(f"malformed heap image: {value!r}")
        roots = value["roots"]
        segments = value["segments"]
        if not isinstance(roots, dict) or not isinstance(segments, dict):
            raise HeapError("malformed heap image: roots/segments not dicts")
        return cls(roots=dict(roots), segments=dict(segments))


_SCALARS = (type(None), bool, int, float, str, bytes)
#: Exact-type membership, tested before the ``isinstance`` chains: nearly
#: every heap node is a plain scalar, and no scalar is a pointer or tuple.
#: Container elements of these types are copied without a call at all,
#: and a segment made only of them is copied in one C call.
_EXACT_SCALARS = frozenset(_SCALARS)


class HeapCodec:
    """Automatic capture/restore of plain heap object graphs.

    Supported node types: scalars, ``list``, ``dict``, ``tuple`` and
    :class:`SymbolicPointer` (passed through).  Lists and dicts are
    mutable and therefore interned as segments, so aliasing and cycles
    are preserved exactly; tuples are immutable and flattened in place
    unless they participate in a cycle through a mutable container.

    A segment is the container's flattened copy, of the container's own
    kind (``{flatten(k): flatten(v)}`` or ``[flatten(v), ...]``), so the
    restore side tells the two apart by ``type(node)``.  Containers occur
    in an image only as segments: one found inline, not behind a pointer,
    is malformed.

    An exact ``list`` or ``dict`` whose elements are all of exact scalar
    types (a ``str -> str`` store) is checked by one C scan of their
    types and copied whole, on capture and on restore; the copy is a
    fresh container all the same.  Any other segment takes the walk.
    """

    def __init__(self, prefix: str = "heap"):
        self._prefix = prefix

    # -- capture -----------------------------------------------------------------

    def capture(self, roots: Dict[str, object]) -> HeapImage:
        image = HeapImage()
        seen: Dict[int, str] = {}
        counter = [0]
        exact = _EXACT_SCALARS

        def intern(obj: object) -> SymbolicPointer:
            key = id(obj)
            if key in seen:
                return SymbolicPointer(seen[key], 0)
            segment = f"{self._prefix}:{counter[0]}"
            counter[0] += 1
            seen[key] = segment
            # Reserve the slot before recursing so cycles terminate.
            image.segments[segment] = None
            image.segments[segment] = flatten_children(obj)
            return SymbolicPointer(segment, 0)

        def flatten_children(obj: object) -> object:
            if isinstance(obj, list):
                if type(obj) is list and exact.issuperset(map(type, obj)):
                    return list(obj)
                return [v if type(v) in exact else flatten(v) for v in obj]
            if isinstance(obj, dict):
                if (
                    type(obj) is dict
                    and exact.issuperset(map(type, obj))
                    and exact.issuperset(map(type, obj.values()))
                ):
                    return dict(obj)
                return {
                    (k if type(k) in exact else flatten(k)): (
                        v if type(v) in exact else flatten(v)
                    )
                    for k, v in obj.items()
                }
            raise HeapError(f"cannot intern heap node of type {type(obj).__name__}")

        def flatten(obj: object) -> object:
            if type(obj) in _EXACT_SCALARS:
                return obj
            if isinstance(obj, SymbolicPointer):
                return obj
            if isinstance(obj, _SCALARS):
                return obj
            if isinstance(obj, (list, dict)):
                return intern(obj)
            if isinstance(obj, tuple):
                return ("tuple", tuple(flatten(v) for v in obj))
            raise HeapError(
                f"heap value of type {type(obj).__name__} needs "
                f"mh.register_heap_hook(name, capture, restore) (the paper "
                f"requires programmer code for such structures)"
            )

        for name, obj in roots.items():
            image.roots[name] = flatten(obj)
        return image

    # -- restore ------------------------------------------------------------------

    def restore(self, image: HeapImage) -> Dict[str, object]:
        rebuilt: Dict[str, object] = {}
        exact = _EXACT_SCALARS

        def build_segment(segment: str) -> object:
            if segment in rebuilt:
                return rebuilt[segment]
            try:
                node = image.segments[segment]
            except KeyError:
                raise HeapError(f"dangling heap segment {segment!r}") from None
            # The shell is registered before its children are rebuilt, so
            # a cycle back to this segment finds it.
            if type(node) is list:
                if exact.issuperset(map(type, node)):
                    rebuilt[segment] = items = list(node)
                    return items
                items = []
                rebuilt[segment] = items
                items.extend([v if type(v) in exact else unflatten(v) for v in node])
                return items
            if type(node) is dict:
                if exact.issuperset(map(type, node)) and exact.issuperset(
                    map(type, node.values())
                ):
                    rebuilt[segment] = entries = dict(node)
                    return entries
                entries = {}
                rebuilt[segment] = entries
                for key, value in node.items():
                    entries[key if type(key) in exact else unflatten(key)] = (
                        value if type(value) in exact else unflatten(value)
                    )
                return entries
            raise HeapError(f"malformed heap segment {segment!r}: {node!r}")

        def unflatten(value: object) -> object:
            if type(value) in _EXACT_SCALARS:
                return value
            if isinstance(value, SymbolicPointer):
                if value.segment in image.segments:
                    target = build_segment(value.segment)
                    if value.index:
                        raise HeapError(
                            f"non-zero index {value.index} into container segment"
                        )
                    return target
                # Pointer to something outside the heap image: keep symbolic.
                return value
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "tuple":
                return tuple(unflatten(v) for v in value[1])
            if isinstance(value, _SCALARS):
                return value
            raise HeapError(f"malformed heap image value {value!r}")

        return {name: unflatten(value) for name, value in image.roots.items()}

    # -- convenience ---------------------------------------------------------------

    def roundtrip(self, roots: Dict[str, object]) -> Dict[str, object]:
        """Capture then restore — used by tests and the heap benchmarks."""
        image = HeapImage.from_abstract(self.capture(roots).to_abstract())
        return self.restore(image)
