"""Canonical byte-level encoding of abstract process state.

The paper requires that process state cross machines "in an abstract, not
machine-specific, format" (Section 1.2).  This module defines that format:
a tagged, big-endian (network order), self-describing encoding.  Integers
are arbitrary-precision varints in canonical form — width limits are a
property of *machines* (see :mod:`repro.state.machine`), not of the wire.

Wire grammar (one value)::

    value   := tag payload
    tag     := 1 byte, the ASCII format character ('i', 'F', '[', ...),
               or '}' for a packed string dict (below)
    payload := fixed per tag; containers carry a varint count then values

Self-description means the decoder never needs the format string; format
strings validate a capture as it is encoded (a typo'd capture block fails
loudly at the module, not mysteriously at the clone).

Implementation notes (the reconfiguration critical path, see
``docs/state-encoding.md``):

- **Declared values: compiled encoder plans.**  Each :class:`TypeSpec`
  compiles once into a flat closure that validates and appends in a
  single walk (:func:`compiled_encoder`); each format string compiles
  once into a tuple of those closures (:func:`encoder_plan`, cached
  alongside format parsing).  This is the path of every activation
  record and every bus message.
- **Self-described values: one walk, no inference.**  The wire form of an
  ``a`` value depends only on the runtime type of each node, so
  :func:`write_any` dispatches on ``type(value)`` and appends tag and
  payload directly.  It is the path of the statics and heap dicts of every
  state packet.  It builds no :class:`TypeSpec` and compiles nothing: an
  inferred spec for a heterogeneous container collapses to ``a`` and must
  be inferred again one level down, so inference costs a pass over the
  whole subtree *per nesting level*, and every distinct inferred shape
  would be compiled and cached forever.
- **A string-to-string dict is one packed run.**  A non-empty dict whose
  keys and values are all ``str`` with no NUL in any of them travels as
  the ``}`` tag: the pair count, then the byte length and UTF-8 of
  ``k1 NUL v1 NUL k2 ... vn`` — joined and encoded in C on the way out,
  one slice, one UTF-8 decode and one ``split`` on the way in, instead
  of a tag, a length and a decode per string.  The rule depends only on
  the entries, so the encoding stays canonical; it applies to every
  ``{``-tagged value (``a`` values, dict subclasses, declared ``{..}``
  formats whose key and value specs are ``s`` or ``a``).  A dict whose
  first key or value is not a ``str`` is turned away before the join;
  otherwise the attempt falls back to the per-entry walk on any failure
  — a later non-str entry, a NUL inside an entry, a lone surrogate — so
  the walk's errors and their messages are unchanged.
- **Machine checks are compiled per profile.**  Both writers take the
  machine's check suite as a call argument (``MachineProfile.codec_checks``:
  ``(check_i, check_l, check_F)``, closures with bounds and error
  strings pre-resolved, ``None`` where the machine imposes nothing), so
  heterogeneity errors surface at capture time with the messages of
  ``MachineProfile.check_representable``.  Strings, bytes, booleans,
  ``None`` and pointers fit every machine and are never checked.
- **Decode: the same walk from the other side.**  The decode core
  (:func:`_read_checked`, behind :func:`decode_values`, :func:`decode_any`
  and ``ProcessState.from_bytes``) is a position-passing function over the
  packet's own ``bytes``: a caller decodes a region by starting at its
  offset, so nothing is copied out first.  Scalars are read in place
  (``struct.unpack_from``), tags are tested in the order state packets
  contain them, and one-byte varints and short string elements are read
  inline (``ProcessState.from_bytes`` reads a frame's ``n`` values and
  short longs itself, and a repeated frame header once per run).  A
  string costs one slice of ``bytes`` and one UTF-8 decode;
  a packed dict costs one of each for all of its strings.  A payload
  that is not UTF-8 raises ``DecodingError``: the core lets the
  ``UnicodeDecodeError`` through and each decode entry point converts
  it (:func:`_bad_utf8`), so the per-string reads carry no handler.

The naive tree-walk implementation this replaced — infer-then-encode for
``a`` values included — is preserved in ``tests/state/reference_codec.py``
as the executable wire specification (it writes and reads the packed ``}``
form entry by entry, as the rule states it); a golden-bytes test pins
this module to it byte-for-byte.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DecodingError, EncodingError
from repro.state.format import (
    ANY_TAG_BY_TYPE,
    DictType,
    ListType,
    ScalarType,
    TupleType,
    TypeSpec,
    any_tag,
    check_arity,
    unsupported_any,
)
from repro.state.machine import MachineProfile
from repro.state.pointers import SymbolicPointer


_pack_f32 = struct.Struct(">f").pack
_pack_f64 = struct.Struct(">d").pack
_unpack_f32 = struct.Struct(">f").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from
_chain = chain.from_iterable

def _append_varint(buf: bytearray, n: int) -> None:
    if n < 0:
        raise EncodingError("varint must be non-negative")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _append_signed(buf: bytearray, n: int) -> None:
    _append_varint(buf, n * 2 if n >= 0 else -n * 2 - 1)


def _pointer_parts(value: object) -> Tuple[str, int]:
    # The 'p' matcher's test (by class name, so a foreign SymbolicPointer
    # class passes), then the fields the wire form needs.
    if type(value).__name__ != "SymbolicPointer":
        raise EncodingError(f"format 'p' requires SymbolicPointer, got {value!r}")
    segment = getattr(value, "segment", None)
    index = getattr(value, "index", None)
    if not isinstance(segment, str) or not isinstance(index, int):
        raise EncodingError(f"format 'p' requires SymbolicPointer, got {value!r}")
    return segment, index


def _write_packed(buf: bytearray, value: dict) -> bool:
    """Append ``value`` in the packed ``}`` form if the rule admits it.

    The rule: the dict is non-empty, and every key and value is a ``str``
    holding no NUL.  Then ``k1 NUL v1 NUL k2 ... vn`` is joined, counted
    and encoded in C.  Any failure of the attempt returns False with
    ``buf`` untouched, and the caller's per-entry walk writes the ``{``
    form and raises its own errors: ``TypeError`` from a non-str entry,
    a NUL count other than 2n - 1 from a NUL inside an entry, or
    ``UnicodeEncodeError`` from a lone surrogate.  An empty dict, or one
    whose first key or value is not a ``str`` (statics, int-valued
    heaps), is turned away before the join, so it pays no throwaway
    list and no exception.
    """
    for key, item in value.items():
        if not (isinstance(key, str) and isinstance(item, str)):
            return False
        break
    else:
        return False
    try:
        text = "\x00".join(_chain(value.items()))
    except TypeError:
        return False
    count = len(value)
    if text.count("\x00") != 2 * count - 1:
        return False
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    buf.append(0x7D)  # '}'
    _append_varint(buf, count)
    _append_varint(buf, len(data))
    buf += data
    return True


# ---------------------------------------------------------------------------
# Self-describing values: one walk
# ---------------------------------------------------------------------------

def write_any(buf: bytearray, value: object, checks: Optional[tuple]) -> None:
    """Append the self-describing (``a``) wire form of ``value``.

    The wire form of an ``a`` value depends only on the runtime type of
    each node — every element carries its own tag — so one recursive walk
    writes tag and payload directly: exact-type lookup in
    ``ANY_TAG_BY_TYPE``, then :func:`any_tag`'s ``isinstance`` chain for
    subclasses.  Strings, longs and containers — nearly every node of a
    state packet — are written here; the rarer scalars go to the compiled
    encoder of their tag.  Either way machine checks fire per scalar,
    exactly as under a declared format; an unsupported type raises the
    inference :class:`FormatError`.  No :class:`TypeSpec` is built and
    nothing is compiled or cached per value shape.  ``None`` — the NULL
    slot, the commonest ``a`` value of a deep stack — is tested first.
    """
    if value is None:
        buf.append(0x6E)  # 'n'
        return
    tag = ANY_TAG_BY_TYPE.get(type(value)) or any_tag(value)
    if tag == 0x73:  # 's'
        data = value.encode("utf-8")
        buf.append(0x73)
        length = len(data)
        if length < 0x80:
            buf.append(length)
        else:
            _append_varint(buf, length)
        buf += data
    elif tag == 0x6C:  # 'l'
        if checks is not None:
            checks[1](value)
        buf.append(0x6C)
        n = value * 2 if value >= 0 else -value * 2 - 1
        while n > 0x7F:
            buf.append(n & 0x7F | 0x80)
            n >>= 7
        buf.append(n)
    elif tag == 0x5B or tag == 0x28:  # '[' / '('
        buf.append(tag)
        _append_varint(buf, len(value))
        # A short str element is written right here, not through a call.
        for item in value:
            if type(item) is str and len(data := item.encode("utf-8")) < 0x80:
                buf.append(0x73)
                buf.append(len(data))
                buf += data
            else:
                write_any(buf, item, checks)
    elif tag == 0x7B:  # '{', or '}' when every entry is a str
        if _write_packed(buf, value):
            return
        buf.append(0x7B)
        _append_varint(buf, len(value))
        for key, item in value.items():
            if type(key) is str and len(data := key.encode("utf-8")) < 0x80:
                buf.append(0x73)
                buf.append(len(data))
                buf += data
            else:
                write_any(buf, key, checks)
            if type(item) is str and len(data := item.encode("utf-8")) < 0x80:
                buf.append(0x73)
                buf.append(len(data))
                buf += data
            else:
                write_any(buf, item, checks)
    elif tag:  # 'b' / 'F' / 'B' / 'p'
        _SCALAR_ENCODER_BY_TAG[tag](buf, value, checks)
    else:
        raise unsupported_any(value)


# ---------------------------------------------------------------------------
# Compiled encoders
# ---------------------------------------------------------------------------

#: An encoder closure: append the canonical form of ``value`` to ``buf``.
#: ``checks`` is a machine's compiled check suite (see
#: ``MachineProfile.codec_checks``), resolved once per encode call rather
#: than once per value, or None when no machine constraint applies.
_EncodeFn = Callable[[bytearray, object, Optional[tuple]], None]


def _checks_of(machine: MachineProfile) -> tuple:
    # The compiled (check_i, check_l, check_F) suite, attached to the
    # machine on first use — see MachineProfile.codec_checks.
    return machine.__dict__.get("_codec_checks") or machine.codec_checks()


def _build_scalar_encoder(spec: ScalarType) -> _EncodeFn:
    char = spec.char

    if char == "a":
        return write_any

    if char == "n":

        def enc_none(buf, value, checks):
            if value is None:
                buf.append(0x6E)  # 'n'
                return
            raise EncodingError(f"format 'n' requires None, got {value!r}")

        return enc_none

    if char == "b":

        def enc_bool(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if not isinstance(value, bool):
                raise EncodingError(f"format 'b' requires bool, got {value!r}")
            buf.append(0x62)  # 'b'
            buf.append(1 if value else 0)

        return enc_bool

    if char in ("i", "l"):
        tag = ord(char)
        check_index = 0 if char == "i" else 1

        def enc_int(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if checks is not None:
                checks[check_index](value)
            if type(value) is not int and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise EncodingError(f"format {char!r} requires int, got {value!r}")
            buf.append(tag)
            n = value * 2 if value >= 0 else -value * 2 - 1
            while True:
                byte = n & 0x7F
                n >>= 7
                if n:
                    buf.append(byte | 0x80)
                else:
                    buf.append(byte)
                    return

        return enc_int

    if char in ("f", "F"):
        tag = ord(char)
        pack = _pack_f32 if char == "f" else _pack_f64
        is_double = char == "F"

        def enc_float(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if is_double and checks is not None and checks[2] is not None:
                checks[2](value)
            if type(value) is not float and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise EncodingError(
                    f"format {char!r} requires int or float, got {value!r}"
                )
            buf.append(tag)
            buf.extend(pack(float(value)))

        return enc_float

    if char == "s":

        def enc_str(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if not isinstance(value, str):
                raise EncodingError(f"format 's' requires str, got {value!r}")
            data = value.encode("utf-8")
            buf.append(0x73)  # 's'
            _append_varint(buf, len(data))
            buf.extend(data)

        return enc_str

    if char == "B":

        def enc_bytes(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if not isinstance(value, (bytes, bytearray)):
                raise EncodingError(f"format 'B' requires bytes, got {value!r}")
            buf.append(0x42)  # 'B'
            _append_varint(buf, len(value))
            buf.extend(value)

        return enc_bytes

    if char == "p":

        def enc_pointer(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            segment, index = _pointer_parts(value)
            data = segment.encode("utf-8")
            buf.append(0x70)  # 'p'
            _append_varint(buf, len(data))
            buf.extend(data)
            _append_signed(buf, index)

        return enc_pointer

    raise EncodingError(f"unknown scalar format {char!r}")  # pragma: no cover


def _build_encoder(spec: TypeSpec) -> _EncodeFn:
    if isinstance(spec, ScalarType):
        return _build_scalar_encoder(spec)

    if isinstance(spec, ListType):
        enc_element = compiled_encoder(spec.element)

        def enc_list(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if not isinstance(value, list):
                raise EncodingError(f"expected list, got {type(value).__name__}")
            buf.append(0x5B)  # '['
            _append_varint(buf, len(value))
            for item in value:
                enc_element(buf, item, checks)

        return enc_list

    if isinstance(spec, TupleType):
        elements = tuple(compiled_encoder(e) for e in spec.elements)
        arity = len(elements)

        def enc_tuple(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if not isinstance(value, tuple) or len(value) != arity:
                raise EncodingError(f"expected {arity}-tuple, got {value!r}")
            buf.append(0x28)  # '('
            _append_varint(buf, arity)
            for enc_element, item in zip(elements, value):
                enc_element(buf, item, checks)

        return enc_tuple

    if isinstance(spec, DictType):
        enc_key = compiled_encoder(spec.key)
        enc_val = compiled_encoder(spec.value)
        # Only a dict whose key and value specs both admit a str can take
        # the packed form; any other declaration always walks.
        packable = all(
            isinstance(part, ScalarType) and part.char in "sa"
            for part in (spec.key, spec.value)
        )

        def enc_dict(buf, value, checks):
            if value is None:
                buf.append(0x6E)
                return
            if not isinstance(value, dict):
                raise EncodingError(f"expected dict, got {type(value).__name__}")
            if packable and _write_packed(buf, value):
                return
            buf.append(0x7B)  # '{'
            _append_varint(buf, len(value))
            for key, item in value.items():
                enc_key(buf, key, checks)
                enc_val(buf, item, checks)

        return enc_dict

    raise EncodingError(f"unknown type spec {spec!r}")  # pragma: no cover


#: Compiled encoder per distinct spec (TypeSpec hashes by format_char, so
#: structurally equal specs share one closure).  Plain dict, no lock: a
#: racing rebuild just installs an equivalent closure.
_ENCODER_CACHE: Dict[TypeSpec, _EncodeFn] = {}


def compiled_encoder(spec: TypeSpec) -> _EncodeFn:
    """The compiled single-walk encoder for one spec."""
    encoder = _ENCODER_CACHE.get(spec)
    if encoder is None:
        encoder = _build_encoder(spec)
        _ENCODER_CACHE[spec] = encoder
    return encoder


#: The compiled encoders :func:`write_any` hands its rarer scalars to.
_SCALAR_ENCODER_BY_TAG: Dict[int, _EncodeFn] = {
    ord(char): compiled_encoder(ScalarType(char)) for char in "bFBp"
}


def encoder_plan(fmt: str) -> Tuple[_EncodeFn, ...]:
    """One compiled encoder per top-level spec of ``fmt``.

    Cached per distinct format string (formats recur heavily: every frame
    of a deep capture reuses its procedure's format, every message on an
    interface reuses the declared pattern), sharing the lru-cached parse
    from :mod:`repro.state.format`.
    """
    plan = _PLAN_CACHE.get(fmt)
    if plan is None:
        from repro.state.format import parse_format

        plan = tuple(compiled_encoder(spec) for spec in parse_format(fmt))
        if len(_PLAN_CACHE) < 4096:
            _PLAN_CACHE[fmt] = plan
    return plan


_PLAN_CACHE: Dict[str, Tuple[_EncodeFn, ...]] = {}


# ---------------------------------------------------------------------------
# Decode core
# ---------------------------------------------------------------------------


def _truncated(pos: int, need: int, end: int) -> DecodingError:
    return DecodingError(
        f"truncated abstract state: need {need} bytes at offset "
        f"{pos}, have {end - pos}"
    )


def _read_varint(buf, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise _truncated(pos, 1, end)
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 10_000:  # defensive: corrupt stream
            raise DecodingError("runaway varint in abstract state")


def _bad_utf8(exc: UnicodeDecodeError) -> DecodingError:
    """The typed error for a string payload that is not UTF-8.

    The decode core lets ``UnicodeDecodeError`` through, so its string
    reads stay one slice and one decode; each decode entry point converts
    it here, once, on its way out.
    """
    return DecodingError(f"invalid UTF-8 in abstract state: {exc.reason}")


#: Tags whose payload starts with a varint (length, count or zigzag value).
_VARINT_TAGS = frozenset(b"sli[({}Bp")


def _read_checked(buf, pos: int, end: int, checks) -> Tuple[object, int]:
    # The decode core; ``checks`` is a machine's compiled check suite
    # (resolved once per top-level value, not once per scalar) or None.
    # Tags are tested in the order state packets contain them (strings,
    # longs, lists, dicts), a one-byte varint is read in place, and the
    # container loops read a short string element (a dict's key and
    # value alike) in place instead of paying a call and a tuple for it.
    if pos >= end:
        raise _truncated(pos, 1, end)
    tag = buf[pos]
    pos += 1
    if tag in _VARINT_TAGS:
        if pos >= end:
            raise _truncated(pos, 1, end)
        n = buf[pos]
        if n < 0x80:
            pos += 1
        else:
            n, pos = _read_varint(buf, pos, end)
        if tag == 0x73:  # 's'
            stop = pos + n
            if stop > end:
                raise _truncated(pos, n, end)
            return str(buf[pos:stop], "utf-8"), stop
        if tag == 0x6C or tag == 0x69:  # 'l' / 'i'
            value = (n >> 1) if n % 2 == 0 else -((n + 1) >> 1)
            if checks is not None:
                checks[1 if tag == 0x6C else 0](value)
            return value, pos
        if tag == 0x5B or tag == 0x28:  # '[' / '('
            items = []
            append = items.append
            for _ in range(n):
                if pos + 1 < end and buf[pos] == 0x73 and buf[pos + 1] < 0x80:
                    start = pos + 2
                    pos = start + buf[pos + 1]
                    if pos > end:
                        raise _truncated(start, pos - start, end)
                    append(str(buf[start:pos], "utf-8"))
                else:
                    item, pos = _read_checked(buf, pos, end, checks)
                    append(item)
            return (items if tag == 0x5B else tuple(items)), pos
        if tag == 0x7B:  # '{'
            result = {}
            for _ in range(n):
                if pos + 1 < end and buf[pos] == 0x73 and buf[pos + 1] < 0x80:
                    start = pos + 2
                    pos = start + buf[pos + 1]
                    if pos > end:
                        raise _truncated(start, pos - start, end)
                    key = str(buf[start:pos], "utf-8")
                else:
                    key, pos = _read_checked(buf, pos, end, checks)
                if pos + 1 < end and buf[pos] == 0x73 and buf[pos + 1] < 0x80:
                    start = pos + 2
                    pos = start + buf[pos + 1]
                    if pos > end:
                        raise _truncated(start, pos - start, end)
                    result[key] = str(buf[start:pos], "utf-8")
                else:
                    result[key], pos = _read_checked(buf, pos, end, checks)
            return result, pos
        if tag == 0x7D:  # '}': n pairs as one NUL-joined UTF-8 run
            size, pos = _read_varint(buf, pos, end)
            stop = pos + size
            if stop > end:
                raise _truncated(pos, size, end)
            parts = str(buf[pos:stop], "utf-8").split("\x00")
            if len(parts) != 2 * n:
                raise DecodingError(
                    f"packed dict of {n} pairs holds {len(parts)} strings "
                    f"at offset {pos}"
                )
            it = iter(parts)
            return dict(zip(it, it)), stop
        stop = pos + n
        if stop > end:
            raise _truncated(pos, n, end)
        if tag == 0x42:  # 'B'
            return bytes(buf[pos:stop]), stop
        # 'p': segment string, then the zigzag index
        segment = str(buf[pos:stop], "utf-8")
        z, pos = _read_varint(buf, stop, end)
        index = (z >> 1) if z % 2 == 0 else -((z + 1) >> 1)
        return SymbolicPointer(segment, index), pos
    if tag == 0x46:  # 'F'
        if pos + 8 > end:
            raise _truncated(pos, 8, end)
        value = _unpack_f64(buf, pos)[0]
        if checks is not None:
            check = checks[2]
            if check is not None:
                check(value)
        return value, pos + 8
    if tag == 0x6E:  # 'n'
        return None, pos
    if tag == 0x62:  # 'b'
        if pos >= end:
            raise _truncated(pos, 1, end)
        return buf[pos] != 0, pos + 1
    if tag == 0x66:  # 'f'
        if pos + 4 > end:
            raise _truncated(pos, 4, end)
        return _unpack_f32(buf, pos)[0], pos + 4
    raise DecodingError(f"unknown tag {chr(tag)!r} at offset {pos - 1}")


def encode_values(
    fmt: str, values: Sequence[object], machine: Optional[MachineProfile] = None
) -> bytes:
    """Validate ``values`` against ``fmt`` and encode them canonically.

    The values of the paper's ``mh_capture("llF", 1, n, response)``
    encode as ``encode_values("llF", [1, n, response], machine)`` would
    write them (a frame goes through the same ``encoder_plan``).

    Validation and encoding are one compiled walk; when a value does not
    match its declaration, the slow-path re-check reproduces the exact
    :class:`FormatError` the naive implementation raised, naming the
    failing position.
    """
    plan = encoder_plan(fmt)
    if len(plan) != len(values):
        from repro.errors import FormatError

        raise FormatError(
            f"format {fmt!r} declares {len(plan)} values but {len(values)} supplied"
        )
    buf = bytearray()
    checks = None if machine is None else _checks_of(machine)
    try:
        for encode, value in zip(plan, values):
            encode(buf, value, checks)
    except EncodingError:
        # A declaration mismatch must surface as the position-naming
        # FormatError of the pre-compiled implementation; re-walk with the
        # full checker to distinguish it from a genuine encoding failure.
        check_arity(fmt, values)
        raise
    return bytes(buf)


def decode_values(
    data, machine: Optional[MachineProfile] = None
) -> List[object]:
    """Decode a canonical stream back into Python values."""
    values: List[object] = []
    pos = 0
    end = len(data)
    checks = None if machine is None else _checks_of(machine)
    try:
        while pos < end:
            value, pos = _read_checked(data, pos, end, checks)
            values.append(value)
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    return values


def encode_any(value: object, machine: Optional[MachineProfile] = None) -> bytes:
    """Encode a single self-described value (format char ``a``)."""
    buf = bytearray()
    write_any(buf, value, None if machine is None else _checks_of(machine))
    return bytes(buf)


def decode_any(data, machine: Optional[MachineProfile] = None) -> object:
    """Decode a single self-described value, requiring full consumption.

    When a :class:`MachineProfile` is supplied, decoded integers and
    doubles are checked against that (target) machine's native ranges —
    this is where a 2**40 captured on a 64-bit host fails to land on a
    simulated 32-bit host.
    """
    end = len(data)
    try:
        value, pos = _read_checked(
            data, 0, end, None if machine is None else _checks_of(machine)
        )
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    if pos < end:
        raise DecodingError(f"{end - pos} trailing bytes after value")
    return value
