"""Reference (pre-compilation) codec — the executable wire specification.

This is the original tree-walking implementation of the canonical
encoding, preserved verbatim when :mod:`repro.state.encoding` moved to
compiled plans (now one ``format_plan`` per format string, whose checks
and writers are built side by side).  It imports only ``check_arity``
from the live codec: the seed's per-frame check, which reads the same
plan's checks.  Nothing in the package runs it, so it lives
beside its callers, outside ``src/``.  It exists for two reasons:

1. **Golden-bytes testing.**  Byte-identical wire output is a hard
   constraint of the fast path (cross-architecture translation must be
   unaffected), and the clearest way to pin that is an executable spec:
   ``tests/state/test_golden_bytes.py`` asserts the compiled encoder
   produces exactly these bytes for every format char and for whole
   process-state packets.
2. **Benchmark baseline.**  ``benchmarks/bench_a5_state_path.py`` measures
   the compiled path against this implementation live, so the recorded
   speedups are same-container comparisons rather than stale constants.

Do not "fix" or optimise this module; its only job is to stay equal to
the seed semantics, plus the one deliberate wire change since: a
non-empty dict of NUL-free strings under an ``s``/``a`` key and value
spec travels as the packed ``}`` tag (count, byte length, the UTF-8 of
``k1 NUL v1 NUL ... vn``), written and read here entry by entry, as the
rule states it (``STATE_VERSION`` 3).  A string that is not UTF-8 is
refused with the live codec's ``DecodingError``.  (The one deliberate
divergence of the live codec — rejecting non-numeric values under ``'f'``/``'F'``
instead of silently coercing through ``float()`` — is documented where
the live codec does it; this reference keeps the old coercion so the
divergence is testable.)
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.errors import DecodingError, EncodingError
from repro.state.format import (
    DictType,
    ListType,
    ScalarType,
    TupleType,
    TypeSpec,
    format_of_value,
)
from repro.state.encoding import check_arity
from repro.state.machine import MachineProfile


def _zigzag_big(n: int) -> int:
    return n * 2 if n >= 0 else -n * 2 - 1


def _unzigzag(z: int) -> int:
    return (z >> 1) if z % 2 == 0 else -((z + 1) >> 1)


class ReferenceEncoder:
    """The seed ``Encoder``: per-value tree walk with isinstance dispatch."""

    def __init__(self, machine: Optional[MachineProfile] = None):
        self.machine = machine
        self._buffer = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def _write_varint(self, n: int) -> None:
        if n < 0:
            raise EncodingError("varint must be non-negative")
        while True:
            byte = n & 0x7F
            n >>= 7
            if n:
                self._buffer.append(byte | 0x80)
            else:
                self._buffer.append(byte)
                return

    def _write_signed(self, n: int) -> None:
        self._write_varint(_zigzag_big(n))

    def write(self, spec: TypeSpec, value: object) -> None:
        if value is None and not (isinstance(spec, ScalarType) and spec.char == "a"):
            self._buffer.append(ord("n"))
            return
        if isinstance(spec, ScalarType):
            self._write_scalar(spec, value)
        elif isinstance(spec, ListType):
            if not isinstance(value, list):
                raise EncodingError(f"expected list, got {type(value).__name__}")
            self._buffer.append(ord("["))
            self._write_varint(len(value))
            for item in value:
                self.write(spec.element, item)
        elif isinstance(spec, TupleType):
            if not isinstance(value, tuple) or len(value) != len(spec.elements):
                raise EncodingError(f"expected {len(spec.elements)}-tuple, got {value!r}")
            self._buffer.append(ord("("))
            self._write_varint(len(value))
            for element, item in zip(spec.elements, value):
                self.write(element, item)
        elif isinstance(spec, DictType):
            if not isinstance(value, dict):
                raise EncodingError(f"expected dict, got {type(value).__name__}")
            packed = _packed_payload(spec, value)
            if packed is not None:
                self._buffer.append(ord("}"))
                self._write_varint(len(value))
                self._write_varint(len(packed))
                self._buffer.extend(packed)
                return
            self._buffer.append(ord("{"))
            self._write_varint(len(value))
            for key, item in value.items():
                self.write(spec.key, key)
                self.write(spec.value, item)
        else:  # pragma: no cover - parser produces only the above
            raise EncodingError(f"unknown type spec {spec!r}")

    def _write_scalar(self, spec: ScalarType, value: object) -> None:
        char = spec.char
        if char == "a":
            self.write(format_of_value(value), value)
            return
        if self.machine is not None:
            self.machine.check_representable(spec, value)
        if char == "n":
            if value is not None:
                raise EncodingError(f"format 'n' requires None, got {value!r}")
            self._buffer.append(ord("n"))
        elif char == "b":
            if not isinstance(value, bool):
                raise EncodingError(f"format 'b' requires bool, got {value!r}")
            self._buffer.append(ord("b"))
            self._buffer.append(1 if value else 0)
        elif char in ("i", "l"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise EncodingError(f"format {char!r} requires int, got {value!r}")
            self._buffer.append(ord(char))
            self._write_signed(value)
        elif char == "f":
            self._buffer.append(ord("f"))
            self._buffer.extend(struct.pack(">f", float(value)))  # type: ignore[arg-type]
        elif char == "F":
            self._buffer.append(ord("F"))
            self._buffer.extend(struct.pack(">d", float(value)))  # type: ignore[arg-type]
        elif char == "s":
            if not isinstance(value, str):
                raise EncodingError(f"format 's' requires str, got {value!r}")
            data = value.encode("utf-8")
            self._buffer.append(ord("s"))
            self._write_varint(len(data))
            self._buffer.extend(data)
        elif char == "B":
            if not isinstance(value, (bytes, bytearray)):
                raise EncodingError(f"format 'B' requires bytes, got {value!r}")
            self._buffer.append(ord("B"))
            self._write_varint(len(value))
            self._buffer.extend(value)
        elif char == "p":
            segment, index = _pointer_parts(value)
            data = segment.encode("utf-8")
            self._buffer.append(ord("p"))
            self._write_varint(len(data))
            self._buffer.extend(data)
            self._write_signed(index)
        else:  # pragma: no cover - SCALAR_CHARS is closed
            raise EncodingError(f"unknown scalar format {char!r}")


def _packed_payload(spec: DictType, value: dict) -> Optional[bytes]:
    """The ``}`` payload of ``value`` under ``spec``, or None for ``{``.

    The rule as stated, entry by entry: a non-empty dict whose key and
    value specs both admit a str (``s`` or ``a``), every key and value a
    ``str`` with no NUL, and the whole run encodable as UTF-8.
    """
    if not value:
        return None
    for part in (spec.key, spec.value):
        if not isinstance(part, ScalarType) or part.char not in ("s", "a"):
            return None
    strings = []
    for key, item in value.items():
        for text in (key, item):
            if not isinstance(text, str) or "\x00" in text:
                return None
            strings.append(text)
    try:
        return "\x00".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        return None


def _pointer_parts(value: object) -> Tuple[str, int]:
    segment = getattr(value, "segment", None)
    index = getattr(value, "index", None)
    if not isinstance(segment, str) or not isinstance(index, int):
        raise EncodingError(f"format 'p' requires SymbolicPointer, got {value!r}")
    return segment, index


class ReferenceDecoder:
    """The seed ``Decoder``: bytes-slicing streaming reads."""

    def __init__(self, data: bytes, machine: Optional[MachineProfile] = None):
        self._data = data
        self._pos = 0
        self.machine = machine

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise DecodingError(
                f"truncated abstract state: need {count} bytes at offset "
                f"{self._pos}, have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def _read_varint(self) -> int:
        shift = 0
        result = 0
        while True:
            byte = self._take(1)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 10_000:  # defensive: corrupt stream
                raise DecodingError("runaway varint in abstract state")

    def _read_signed(self) -> int:
        return _unzigzag(self._read_varint())

    def _take_text(self, length: int) -> str:
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodingError(
                f"invalid UTF-8 in abstract state: {exc.reason}"
            ) from exc

    def read(self) -> object:
        tag = chr(self._take(1)[0])
        if tag == "n":
            return None
        if tag == "b":
            return self._take(1)[0] != 0
        if tag in ("i", "l"):
            value = self._read_signed()
            if self.machine is not None:
                self.machine.check_representable(ScalarType(tag), value)
            return value
        if tag == "f":
            return struct.unpack(">f", self._take(4))[0]
        if tag == "F":
            value = struct.unpack(">d", self._take(8))[0]
            if self.machine is not None:
                self.machine.check_representable(ScalarType("F"), value)
            return value
        if tag == "s":
            length = self._read_varint()
            return self._take_text(length)
        if tag == "B":
            length = self._read_varint()
            return self._take(length)
        if tag == "p":
            length = self._read_varint()
            segment = self._take_text(length)
            index = self._read_signed()
            from repro.state.pointers import SymbolicPointer

            return SymbolicPointer(segment, index)
        if tag == "[":
            count = self._read_varint()
            return [self.read() for _ in range(count)]
        if tag == "(":
            count = self._read_varint()
            return tuple(self.read() for _ in range(count))
        if tag == "{":
            count = self._read_varint()
            result = {}
            for _ in range(count):
                key = self.read()
                result[key] = self.read()
            return result
        if tag == "}":
            count = self._read_varint()
            length = self._read_varint()
            strings = self._take_text(length).split("\x00")
            if len(strings) != 2 * count:
                raise DecodingError(
                    f"packed dict of {count} pairs holds {len(strings)} strings"
                )
            return {
                strings[i]: strings[i + 1] for i in range(0, len(strings), 2)
            }
        raise DecodingError(f"unknown tag {tag!r} at offset {self._pos - 1}")

    def read_all(self) -> List[object]:
        values: List[object] = []
        while not self.at_end():
            values.append(self.read())
        return values


def reference_encode_values(
    fmt: str, values: Sequence[object], machine: Optional[MachineProfile] = None
) -> bytes:
    """The seed ``encode_values``: validate, then tree-walk encode."""
    specs = check_arity(fmt, values)
    encoder = ReferenceEncoder(machine)
    for spec, value in zip(specs, values):
        encoder.write(spec, value)
    return encoder.getvalue()


def reference_decode_values(
    data: bytes, machine: Optional[MachineProfile] = None
) -> List[object]:
    return ReferenceDecoder(data, machine).read_all()


def reference_encode_any(
    value: object, machine: Optional[MachineProfile] = None
) -> bytes:
    encoder = ReferenceEncoder(machine)
    encoder.write(ScalarType("a"), value)
    return encoder.getvalue()


def reference_state_to_bytes(state, machine=None) -> bytes:
    """The seed ``ProcessState.to_bytes`` walk, against any ProcessState."""
    from repro.state.frames import STATE_MAGIC, STATE_VERSION

    encoder = ReferenceEncoder(machine)
    encoder.write(ScalarType("s"), state.module)
    encoder.write(ScalarType("s"), state.status)
    encoder.write(ScalarType("s"), state.reconfig_point)
    encoder.write(ScalarType("s"), state.source_machine)
    encoder.write(ScalarType("a"), dict(state.statics))
    encoder.write(ScalarType("a"), dict(state.heap))
    encoder.write(ScalarType("l"), len(state.stack))
    for record in state.stack:
        encoder.write(ScalarType("s"), record.procedure)
        encoder.write(ScalarType("l"), record.location)
        encoder.write(ScalarType("s"), record.fmt)
        for spec, value in zip(check_arity(record.fmt, record.values), record.values):
            encoder.write(spec, value)
    body = encoder.getvalue()
    header = STATE_MAGIC + bytes([STATE_VERSION])
    return header + len(body).to_bytes(4, "big") + body


def reference_state_from_bytes(data: bytes, machine=None):
    """The seed ``ProcessState.from_bytes``: eager full decode."""
    from repro.state.format import parse_format
    from repro.state.frames import (
        STATE_MAGIC,
        STATE_VERSION,
        ActivationRecord,
        ProcessState,
        StackState,
    )

    if len(data) < len(STATE_MAGIC) + 5:
        raise DecodingError("process state packet too short")
    if data[: len(STATE_MAGIC)] != STATE_MAGIC:
        raise DecodingError("bad process state magic")
    version = data[len(STATE_MAGIC)]
    if version != STATE_VERSION:
        raise DecodingError(f"unsupported process state version {version}")
    offset = len(STATE_MAGIC) + 1
    length = int.from_bytes(data[offset : offset + 4], "big")
    body = data[offset + 4 :]
    if len(body) != length:
        raise DecodingError(
            f"process state length mismatch: header says {length}, "
            f"packet has {len(body)}"
        )
    decoder = ReferenceDecoder(bytes(body), machine)
    module = decoder.read()
    status = decoder.read()
    reconfig_point = decoder.read()
    source_machine = decoder.read()
    statics = decoder.read()
    heap = decoder.read()
    frame_count = decoder.read()
    for name, value in (("module", module), ("status", status)):
        if not isinstance(value, str):
            raise DecodingError(f"corrupt process state field {name!r}")
    # The point and the source machine may be NULL: 'n' is the default "".
    if reconfig_point is None:
        reconfig_point = ""
    if source_machine is None:
        source_machine = ""
    for name, value in (
        ("reconfig_point", reconfig_point),
        ("source_machine", source_machine),
    ):
        if not isinstance(value, str):
            raise DecodingError(f"corrupt process state field {name!r}")
    if not isinstance(frame_count, int) or frame_count < 0:
        raise DecodingError("corrupt frame count in process state")
    records = []
    for _ in range(frame_count):
        procedure = decoder.read()
        location = decoder.read()
        fmt = decoder.read()
        if not isinstance(procedure, str) or not isinstance(fmt, str):
            raise DecodingError("corrupt activation record header")
        if not isinstance(location, int):
            raise DecodingError("corrupt activation record location")
        values = [decoder.read() for _ in parse_format(fmt)]
        check_arity(fmt, values)
        records.append(
            ActivationRecord(
                procedure=procedure, location=location, fmt=fmt, values=values
            )
        )
    if not decoder.at_end():
        raise DecodingError(
            f"{decoder.remaining} trailing bytes in process state packet"
        )
    return ProcessState(
        module=module,  # type: ignore[arg-type]
        stack=StackState(records),
        statics=dict(statics),  # type: ignore[arg-type]
        heap=dict(heap),  # type: ignore[arg-type]
        reconfig_point=reconfig_point,  # type: ignore[arg-type]
        source_machine=source_machine,  # type: ignore[arg-type]
        status=status,  # type: ignore[arg-type]
    )
