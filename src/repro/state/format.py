"""Typed format strings for abstract state capture (the paper's ``"llF"``).

In Figure 4 the generated code captures state with calls such as
``mh_capture("llF", 1, n, response)``: a format string declares the abstract
type of every captured value, and the first value is always the integer
*location* where execution resumes.  This module defines the format-string
language used throughout the reproduction.

Scalar format characters
------------------------

======  =============================================================
 char    meaning
======  =============================================================
``b``   boolean
``i``   machine integer (width from the machine profile)
``l``   machine long integer (width from the machine profile)
``f``   single-precision float (round-tripped through IEEE binary32)
``F``   double-precision float (IEEE binary64)
``s``   text string (UTF-8 in the canonical encoding)
``B``   byte string
``p``   symbolic pointer (a translated address, paper Section 3)
``n``   the unit/None value
``a``   *any*: self-describing; the canonical encoding embeds a tag
======  =============================================================

Compound syntax
---------------

- ``[T]``     homogeneous list of ``T``
- ``(T1T2)``  tuple whose elements are ``T1``, ``T2``, ...
- ``{KV}``    dict mapping key type ``K`` to value type ``V``

Example: ``"il[F](si)"`` declares an int, a long, a list of doubles and an
(str, int) tuple.

The POLYLITH configuration language of Figure 2 declares interface message
*patterns* with names (``pattern = {integer}``); :func:`pattern_to_format`
maps those names onto format characters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import FormatError
from repro.state.pointers import SymbolicPointer

SCALAR_CHARS = frozenset("bilfFsBpna")

#: MIL pattern names (Figure 2) -> format characters.
MIL_PATTERN_NAMES = {
    "boolean": "b",
    "integer": "i",
    "long": "l",
    "float": "f",
    "double": "F",
    "string": "s",
    "bytes": "B",
    "pointer": "p",
    "none": "n",
    "any": "a",
}


class TypeSpec:
    """Base class for a parsed format-string node."""

    def format_char(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeSpec) and self.format_char() == other.format_char()

    def __hash__(self) -> int:
        return hash(self.format_char())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.format_char()!r})"


@dataclass(frozen=True, eq=False)
class ScalarType(TypeSpec):
    """A scalar format node, one of :data:`SCALAR_CHARS`."""

    char: str

    def __post_init__(self) -> None:
        if self.char not in SCALAR_CHARS:
            raise FormatError(f"unknown scalar format char {self.char!r}")

    def format_char(self) -> str:
        return self.char


@dataclass(frozen=True, eq=False)
class ListType(TypeSpec):
    """A homogeneous list node ``[T]``."""

    element: TypeSpec

    def format_char(self) -> str:
        return f"[{self.element.format_char()}]"


@dataclass(frozen=True, eq=False)
class TupleType(TypeSpec):
    """A fixed-arity tuple node ``(T1T2...)``."""

    elements: Tuple[TypeSpec, ...] = field(default_factory=tuple)

    def format_char(self) -> str:
        inner = "".join(e.format_char() for e in self.elements)
        return f"({inner})"


@dataclass(frozen=True, eq=False)
class DictType(TypeSpec):
    """A dict node ``{KV}`` with key type ``K`` and value type ``V``."""

    key: TypeSpec
    value: TypeSpec

    def format_char(self) -> str:
        return "{" + self.key.format_char() + self.value.format_char() + "}"


class _Parser:
    """Recursive-descent parser over a format string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"{message} at index {self.pos} in format {self.text!r}")

    def peek(self) -> str:
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if not ch:
            raise self.error("unexpected end of format")
        self.pos += 1
        return ch

    def parse_one(self) -> TypeSpec:
        ch = self.take()
        if ch in SCALAR_CHARS:
            return ScalarType(ch)
        if ch == "[":
            element = self.parse_one()
            if self.take() != "]":
                raise self.error("expected ']' closing list type")
            return ListType(element)
        if ch == "(":
            elements: List[TypeSpec] = []
            while self.peek() != ")":
                if not self.peek():
                    raise self.error("unterminated tuple type")
                elements.append(self.parse_one())
            self.take()  # consume ')'
            return TupleType(tuple(elements))
        if ch == "{":
            key = self.parse_one()
            value = self.parse_one()
            if self.take() != "}":
                raise self.error("expected '}' closing dict type")
            return DictType(key, value)
        raise self.error(f"unknown format character {ch!r}")

    def parse_all(self) -> List[TypeSpec]:
        specs: List[TypeSpec] = []
        while self.peek():
            specs.append(self.parse_one())
        return specs


@lru_cache(maxsize=4096)
def _parse_format_cached(fmt: str) -> Tuple[TypeSpec, ...]:
    """Parse once per distinct format string.

    Formats recur heavily — every message on an interface carries the
    interface's declared pattern, and every wire header is ``"ssl"`` —
    so the parsed structure is memoized.  :class:`TypeSpec` nodes are
    immutable, making the shared tuple safe to hand out repeatedly.
    """
    return tuple(_Parser(fmt).parse_all())


def parse_format(fmt: str) -> List[TypeSpec]:
    """Parse a format string into a list of :class:`TypeSpec` nodes.

    >>> [s.format_char() for s in parse_format("il[F]")]
    ['i', 'l', '[F]']
    """
    return list(_parse_format_cached(fmt))


def pattern_to_format(names: Sequence[str]) -> str:
    """Translate MIL pattern names into a format string.

    Figure 2 writes ``pattern = {integer}``; the MIL parser hands this
    function ``["integer"]`` and receives ``"i"``.  A leading ``-`` on a
    name (the paper writes ``{-float}``) marks the *reply* part of a
    client/server pattern and is stripped here.
    """
    chars = []
    for name in names:
        clean = name.lstrip("-").strip().lower()
        if clean not in MIL_PATTERN_NAMES:
            raise FormatError(f"unknown MIL pattern name {name!r}")
        chars.append(MIL_PATTERN_NAMES[clean])
    return "".join(chars)


#: Reverse of :data:`MIL_PATTERN_NAMES`, for pretty-printing specs.
FORMAT_CHAR_NAMES = {char: name for name, char in MIL_PATTERN_NAMES.items()}


def format_to_pattern(fmt: str) -> str:
    """Render a scalar format string as MIL pattern names (``"is"`` ->
    ``"integer string"``); inverse of :func:`pattern_to_format`."""
    names = []
    for spec in parse_format(fmt):
        char = spec.format_char()
        if char not in FORMAT_CHAR_NAMES:
            raise FormatError(
                f"format {char!r} has no MIL pattern name (compound "
                f"patterns are not expressible in the MIL)"
            )
        names.append(FORMAT_CHAR_NAMES[char])
    return " ".join(names)


#: Wire tag of a self-described (``a``) value, keyed by its exact runtime
#: type.  The ``a`` writer (:mod:`repro.state.encoding`), the ``a`` matcher
#: and :func:`format_of_value` all dispatch through this one table, so a
#: value always travels under the tag inference would name for it.
ANY_TAG_BY_TYPE: Dict[type, int] = {
    type(None): 0x6E,  # 'n'
    bool: 0x62,  # 'b'
    int: 0x6C,  # 'l'
    float: 0x46,  # 'F'
    str: 0x73,  # 's'
    bytes: 0x42,  # 'B'
    bytearray: 0x42,
    list: 0x5B,  # '['
    tuple: 0x28,  # '('
    dict: 0x7B,  # '{'
    SymbolicPointer: 0x70,  # 'p'
}


def any_tag(value: object) -> int:
    """The tag ``value`` travels under as an ``a`` value; 0 if unsupported.

    Subclasses (``IntEnum``, ``defaultdict``, namedtuples, ...) fall
    through to an ``isinstance`` chain; its order is part of the wire
    contract — ``bool`` is tested before ``int`` because it subclasses it.
    """
    tag = ANY_TAG_BY_TYPE.get(type(value))
    if tag is not None:
        return tag
    if isinstance(value, bool):
        return 0x62
    if isinstance(value, int):
        return 0x6C
    if isinstance(value, float):
        return 0x46
    if isinstance(value, str):
        return 0x73
    if isinstance(value, (bytes, bytearray)):
        return 0x42
    if isinstance(value, list):
        return 0x5B
    if isinstance(value, tuple):
        return 0x28
    if isinstance(value, dict):
        return 0x7B
    # Foreign pointer classes are accepted structurally, by name; the
    # writer then validates their segment/index fields.
    if type(value).__name__ == "SymbolicPointer":
        return 0x70
    return 0


def unsupported_any(value: object) -> FormatError:
    """The error for a value no ``a`` tag covers (``any_tag`` returned 0)."""
    return FormatError(f"cannot infer abstract type for {type(value).__name__}")


def format_of_value(value: object) -> TypeSpec:
    """Infer the most specific :class:`TypeSpec` for a Python value.

    The public inference helper (diagnostics, tests, the reference
    codec).  The live codec never calls it: an ``a`` value is written in
    one walk straight from :func:`any_tag`, because inferring a spec for a
    heterogeneous container re-infers every child at every nesting level.
    """
    tag = any_tag(value)
    if tag == 0x5B:
        if value:
            first = format_of_value(value[0])
            if all(format_of_value(v) == first for v in value[1:]):
                return ListType(first)
        return ListType(ScalarType("a"))
    if tag == 0x28:
        return TupleType(tuple(format_of_value(v) for v in value))
    if tag == 0x7B:
        if value:
            key_specs = {format_of_value(k) for k in value}
            val_specs = {format_of_value(v) for v in value.values()}
            key = key_specs.pop() if len(key_specs) == 1 else ScalarType("a")
            val = val_specs.pop() if len(val_specs) == 1 else ScalarType("a")
            return DictType(key, val)
        return DictType(ScalarType("a"), ScalarType("a"))
    if not tag:
        raise unsupported_any(value)
    return ScalarType(chr(tag))


# ---------------------------------------------------------------------------
# Compiled matchers
#
# ``value_matches`` used to re-dispatch on the TypeSpec class and re-branch
# on the scalar char for every value of every frame of every capture — a
# measurable cost on the reconfiguration critical path (and on every bus
# message, via ``check_arity``).  Each spec now compiles once into a flat
# closure; compiled matchers are cached per spec and bundled per format
# string, mirroring the compiled encoder plans in ``repro.state.encoding``.
# ---------------------------------------------------------------------------

_Matcher = Callable[[object], bool]


def _match_any(value: object) -> bool:
    # Anything the ``a`` writer can encode matches: the same tag table,
    # walked without building a TypeSpec.
    tag = any_tag(value)
    if tag == 0x5B or tag == 0x28:
        return all(_match_any(item) for item in value)
    if tag == 0x7B:
        return all(_match_any(k) and _match_any(v) for k, v in value.items())
    return tag != 0


def _build_matcher(spec: TypeSpec) -> _Matcher:
    if isinstance(spec, ScalarType):
        ch = spec.char
        if ch == "a":
            return _match_any
        if ch == "n":
            return lambda value: value is None
        if ch == "b":
            return lambda value: value is None or isinstance(value, bool)
        if ch in ("i", "l"):
            return lambda value: value is None or (
                isinstance(value, int) and not isinstance(value, bool)
            )
        if ch in ("f", "F"):
            return lambda value: value is None or (
                isinstance(value, (int, float)) and not isinstance(value, bool)
            )
        if ch == "s":
            return lambda value: value is None or isinstance(value, str)
        if ch == "B":
            return lambda value: value is None or isinstance(value, (bytes, bytearray))
        if ch == "p":
            return lambda value: value is None or type(value).__name__ == "SymbolicPointer"
        return lambda value: value is None  # pragma: no cover - closed set
    if isinstance(spec, ListType):
        element = compiled_matcher(spec.element)
        return lambda value: value is None or (
            isinstance(value, list) and all(element(v) for v in value)
        )
    if isinstance(spec, TupleType):
        elements = tuple(compiled_matcher(e) for e in spec.elements)
        arity = len(elements)
        return lambda value: value is None or (
            isinstance(value, tuple)
            and len(value) == arity
            and all(m(v) for m, v in zip(elements, value))
        )
    if isinstance(spec, DictType):
        key = compiled_matcher(spec.key)
        val = compiled_matcher(spec.value)
        return lambda value: value is None or (
            isinstance(value, dict)
            and all(key(k) and val(v) for k, v in value.items())
        )
    return lambda value: value is None  # pragma: no cover - parser is closed


#: Compiled matcher per distinct spec.  TypeSpec hashes by format_char, so
#: structurally equal specs share one closure.  Plain dict (no lock): a
#: racing rebuild just produces an equivalent closure.
_MATCHER_CACHE: Dict[TypeSpec, _Matcher] = {}


def compiled_matcher(spec: TypeSpec) -> _Matcher:
    """The compiled form of :func:`value_matches` for one spec."""
    matcher = _MATCHER_CACHE.get(spec)
    if matcher is None:
        matcher = _build_matcher(spec)
        _MATCHER_CACHE[spec] = matcher
    return matcher


@lru_cache(maxsize=4096)
def matcher_plan(fmt: str) -> Tuple[_Matcher, ...]:
    """One compiled matcher per top-level spec of ``fmt``, parse-cached."""
    return tuple(compiled_matcher(spec) for spec in _parse_format_cached(fmt))


def value_matches(spec: TypeSpec, value: object) -> bool:
    """Return True when ``value`` is acceptable for ``spec``.

    The check is used both by capture (fail fast with a clear error rather
    than emit a corrupt abstract state) and by interface pattern checking
    on the software bus.

    ``None`` is acceptable for *every* format: a pre-initialised local that
    has not been assigned yet is captured as NULL, exactly as an
    uninitialised C variable occupies its declared slot.  The canonical
    encoding is self-describing, so a NULL travels as the ``n`` tag and
    restores as ``None`` regardless of the declared format.
    """
    return compiled_matcher(spec)(value)


def check_arity(fmt: str, values: Sequence[object]) -> List[TypeSpec]:
    """Parse ``fmt`` and verify it matches ``values`` element-wise.

    Returns the parsed specs.  Raises :class:`FormatError` on arity or
    type mismatch; the error message names the failing position, which
    ``mh.encode`` surfaces verbatim, with the procedure's name, so a module
    author can find the bad capture block.
    """
    specs = _parse_format_cached(fmt)
    if len(specs) != len(values):
        raise FormatError(
            f"format {fmt!r} declares {len(specs)} values but {len(values)} supplied"
        )
    plan = matcher_plan(fmt)
    for index, (matcher, value) in enumerate(zip(plan, values)):
        if not matcher(value):
            raise FormatError(
                f"value #{index} ({value!r}) does not match format "
                f"{specs[index].format_char()!r} in {fmt!r}"
            )
    return list(specs)


def iter_scalars(spec: TypeSpec) -> Iterator[ScalarType]:
    """Yield every scalar leaf of ``spec`` (used by width diagnostics)."""
    if isinstance(spec, ScalarType):
        yield spec
    elif isinstance(spec, ListType):
        yield from iter_scalars(spec.element)
    elif isinstance(spec, TupleType):
        for element in spec.elements:
            yield from iter_scalars(element)
    elif isinstance(spec, DictType):
        yield from iter_scalars(spec.key)
        yield from iter_scalars(spec.value)
