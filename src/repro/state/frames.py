"""Activation records, stack state, and the whole abstract process state.

Paper Section 1.2 enumerates what a process state contains.  This module
gives each item a concrete, machine-independent representation:

- static data            -> :attr:`ProcessState.statics`
- dynamic data (AR stack)-> :class:`StackState` of :class:`ActivationRecord`
- user-allocated heap    -> :attr:`ProcessState.heap` (see ``state.heap``)
- program counter / call
  and return information -> *not stored*: encoded implicitly as resume
  *locations* inside each record, exactly as in the paper ("the module
  thread is captured and restored without explicit reference to the
  program counter or to any of the call/return information")

The serialized form (:meth:`ProcessState.to_bytes`) is the packet that
``mh_objstate_move`` ships between the old and new module.

Critical-path layout (see ``docs/state-encoding.md``): serialization
appends every field and frame into **one** ``bytearray`` through compiled
encoder plans; deserialization is the same walk from the other side, one
pass over the packet's own ``bytes`` from the end of the fixed header that
decodes header fields, statics, heap and every frame before it returns.
Both sides pay for a frame header once per run of frames that repeat it
(the idle frames of a recursion), and the frame loops write and read a
``None`` value and a short long or int themselves.  The stack depth a
coordinator reports comes from the encoding module's frame count, sent
with the packet, never from parsing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DecodingError, EncodingError, FormatError
from repro.state.encoding import (
    _append_varint,
    _checks_of,
    _bad_utf8,
    _read_checked,
    encoder_plan,
    write_any,
)
from repro.state.format import check_arity, parse_format
from repro.state.machine import MachineProfile

#: Magic prefix of a serialized process state packet.
STATE_MAGIC = b"MHST"
#: Version of the packet layout; bumped on incompatible change.  Version 2:
#: heap segments are the codec's own dicts and lists (version 1 wrapped
#: them as ``["dict", [[k, v], ...]]`` / ``["list", [...]]``).  Version 3:
#: a non-empty ``str -> str`` dict travels as one packed ``}`` value.
STATE_VERSION = 3

#: ``len(STATE_MAGIC) + 1`` (version byte) — start of the body-length word.
_LEN_OFFSET = len(STATE_MAGIC) + 1
#: Full fixed-header size: magic + version + 4-byte body length.
_BODY_OFFSET = _LEN_OFFSET + 4


def _append_str(buf: bytearray, value: object) -> None:
    # The 's' wire form, inlined for the packet header fields (a NULL
    # field travels as the 'n' tag, as everywhere in the encoding).
    if isinstance(value, str):
        data = value.encode("utf-8")
        buf.append(0x73)
        _append_varint(buf, len(data))
        buf.extend(data)
    elif value is None:
        buf.append(0x6E)
    else:
        raise EncodingError(f"format 's' requires str, got {value!r}")


@dataclass
class ActivationRecord:
    """The abstract image of one stack frame.

    ``location`` is the integer resume label (the paper's first captured
    value, "an integer 1, 2, 3, or 4 ... marking the statement where
    execution should resume"); ``fmt``/``values`` are the frame's captured
    locals in declaration order; ``procedure`` names the function for
    diagnostics and for the restore-time sanity check that the rebuilt
    call chain matches the captured one.

    Construction does not validate: ``values`` are checked against
    ``fmt`` once, by the compiled encoder plan, when the record is
    encoded (:meth:`ProcessState.to_bytes`).
    """

    procedure: str
    location: int
    fmt: str
    values: List[object] = field(default_factory=list)


class StackState:
    """The captured activation-record stack.

    Records are stored in *capture order*: the topmost frame (the one
    containing the reconfiguration point) first, ``main`` last — that is
    the order the paper's capture blocks emit them as each ``return`` pops
    a frame.  Restoration consumes them in the opposite order
    (:meth:`pop_for_restore` yields ``main`` first), mirroring how the
    restore blocks rebuild the stack by re-executing calls downward.
    """

    def __init__(self, records: Optional[Sequence[ActivationRecord]] = None):
        self._records: List[ActivationRecord] = list(records or [])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StackState):
            return False
        return self._records == other._records

    def records(self) -> List[ActivationRecord]:
        return list(self._records)

    @property
    def depth(self) -> int:
        return len(self._records)

    def push_captured(self, record: ActivationRecord) -> None:
        """Append a frame during capture (top of stack arrives first)."""
        self._records.append(record)

    def pop_for_restore(self) -> ActivationRecord:
        """Remove and return the next frame to restore (outermost first)."""
        if not self._records:
            raise DecodingError("restore consumed more frames than captured")
        return self._records.pop()

    def peek_for_restore(self) -> Optional[ActivationRecord]:
        return self._records[-1] if self._records else None

    def call_chain(self) -> List[str]:
        """Procedure names from ``main`` down to the reconfiguration point."""
        return [record.procedure for record in reversed(self._records)]


def _check_packet_framing(data) -> None:
    """Validate magic, version and length word."""
    if len(data) < _LEN_OFFSET + 4:
        raise DecodingError("process state packet too short")
    if bytes(data[: len(STATE_MAGIC)]) != STATE_MAGIC:
        raise DecodingError("bad process state magic")
    version = data[len(STATE_MAGIC)]
    if version != STATE_VERSION:
        raise DecodingError(f"unsupported process state version {version}")
    length = int.from_bytes(data[_LEN_OFFSET:_BODY_OFFSET], "big")
    if len(data) - _BODY_OFFSET != length:
        raise DecodingError(
            f"process state length mismatch: header says {length}, "
            f"packet has {len(data) - _BODY_OFFSET}"
        )


def _read_str_field(
    buf, pos: int, end: int, name: str, null: Optional[str] = None
) -> Tuple[str, int]:
    # A str field; ``null`` is what an 'n' tag decodes to where the field
    # may be NULL (None: it may not).  Any other value refuses the packet.
    value, pos = _read_checked(buf, pos, end, None)
    if not isinstance(value, str):
        if value is None and null is not None:
            return null, pos
        raise DecodingError(f"corrupt process state field {name!r}")
    return value, pos


@dataclass
class ProcessState:
    """Everything a clone needs to resume the original module's thread.

    ``status`` mirrors the paper's module STATUS attribute: a freshly
    created replacement carries ``"clone"`` so its restore prologue fires
    (Figure 4: ``if (strcmp(mh_getstatus(),"clone")==0)``).
    """

    module: str
    stack: StackState = field(default_factory=StackState)
    statics: Dict[str, object] = field(default_factory=dict)
    heap: Dict[str, object] = field(default_factory=dict)
    reconfig_point: str = ""
    source_machine: str = ""
    status: str = "clone"

    # -- serialization ----------------------------------------------------------

    def to_bytes(self, machine: Optional[MachineProfile] = None) -> bytes:
        """Serialize to the canonical packet moved by ``objstate_move``.

        One ``bytearray`` end to end: the fixed header goes in first with
        a placeholder length word, the body is appended — statics and
        heap by the one-walk ``a`` writer, frames through their compiled
        encoder plans — and the length is patched in place: no header+body
        concatenation copy.

        This is where a captured frame is validated against its format: a
        value that does not match ``fmt`` raises the position-naming
        :class:`FormatError` of :func:`check_arity`.  A frame header
        (procedure, location, format) is written once per run of frames
        that repeat it — the idle frames of a recursion — and its bytes
        are appended again for the rest of the run, which shares one plan
        lookup; a location that is not an ``int`` (or is a ``bool``), or
        that ``machine``'s long cannot hold, is refused there.  A ``None`` value is the ``n`` tag under every
        compiled encoder, so a NULL slot is written here without a call.
        """
        checks = None if machine is None else _checks_of(machine)
        buf = bytearray(STATE_MAGIC)
        buf.append(STATE_VERSION)
        buf.extend(b"\x00\x00\x00\x00")  # length word, patched below
        _append_str(buf, self.module)
        _append_str(buf, self.status)
        _append_str(buf, self.reconfig_point)
        _append_str(buf, self.source_machine)
        write_any(buf, dict(self.statics), checks)
        write_any(buf, dict(self.heap), checks)
        buf.append(0x6C)  # 'l'
        _append_varint(buf, len(self.stack) * 2)  # zigzag of a non-negative
        run = header = plan = None
        for record in self.stack:
            key = (record.procedure, record.location, record.fmt)
            # An exact int location only: 3.0 == 3 and True == 1, but only
            # an int location is written, so neither borrows an int's header.
            if key == run and type(key[1]) is int:
                buf += header
            else:
                start = len(buf)
                procedure, location, fmt = key
                if not isinstance(location, int) or isinstance(location, bool):
                    raise EncodingError(f"format 'l' requires int, got {location!r}")
                if checks is not None:
                    checks[1](location)  # the machine's long range
                _append_str(buf, procedure)
                buf.append(0x6C)  # 'l'
                _append_varint(
                    buf, location * 2 if location >= 0 else -location * 2 - 1
                )
                _append_str(buf, fmt)
                header = buf[start:]
                plan = encoder_plan(fmt)
                run = key
            values = record.values
            if len(plan) != len(values):
                check_arity(record.fmt, values)  # raises the arity FormatError
            try:
                for encode, value in zip(plan, values):
                    if value is None:
                        buf.append(0x6E)  # 'n'
                    else:
                        encode(buf, value, checks)
            except (EncodingError, FormatError):
                # A declaration mismatch surfaces as check_arity's
                # position-naming FormatError; anything else is re-raised.
                check_arity(record.fmt, values)
                raise
        body_length = len(buf) - _BODY_OFFSET
        buf[_LEN_OFFSET:_BODY_OFFSET] = body_length.to_bytes(4, "big")
        return bytes(buf)

    @classmethod
    def from_bytes(
        cls, data: bytes, machine: Optional[MachineProfile] = None
    ) -> "ProcessState":
        """Parse a packet produced by :meth:`to_bytes`.

        ``machine`` is the *target* machine profile; representability of
        every value is checked as it decodes.  One pass over ``data``
        itself, from the end of the fixed header: header fields, statics,
        heap and every activation record are decoded before this returns,
        so a corrupt or truncated frame, bytes after the last frame, or a
        value the target cannot hold refuses the whole packet here, before
        a module installs any of it.

        A frame whose header bytes repeat the previous frame's byte for
        byte (``startswith`` at the frame's offset) reuses that header's
        decoded fields and arity; any other header is decoded and checked
        afresh, its location against the target's long range.  A frame's NULL slots, and its longs and ints whose varint
        takes one or two bytes, are read in place, each long or int through
        the target's machine check; every other value goes through
        :func:`_read_checked`.
        """
        _check_packet_framing(data)
        checks = None if machine is None else _checks_of(machine)
        end = len(data)
        try:
            module, pos = _read_str_field(data, _BODY_OFFSET, end, "module")
            status, pos = _read_str_field(data, pos, end, "status")
            reconfig_point, pos = _read_str_field(
                data, pos, end, "reconfig_point", null=""
            )
            source_machine, pos = _read_str_field(
                data, pos, end, "source_machine", null=""
            )
            statics, pos = _read_checked(data, pos, end, checks)
            heap, pos = _read_checked(data, pos, end, checks)
            frame_count, pos = _read_checked(data, pos, end, None)
            if not isinstance(statics, dict) or not isinstance(heap, dict):
                raise DecodingError("corrupt statics/heap in process state")
            if not isinstance(frame_count, int) or frame_count < 0:
                raise DecodingError("corrupt frame count in process state")
            records = []
            header = None  # the previous frame's header bytes
            for _ in range(frame_count):
                if header is not None and data.startswith(header, pos):
                    pos += len(header)
                else:
                    start = pos
                    procedure, pos = _read_checked(data, pos, end, None)
                    location, pos = _read_checked(data, pos, end, checks)
                    fmt, pos = _read_checked(data, pos, end, None)
                    if not isinstance(procedure, str) or not isinstance(fmt, str):
                        raise DecodingError("corrupt activation record header")
                    if not isinstance(location, int):
                        raise DecodingError("corrupt activation record location")
                    arity = len(parse_format(fmt))
                    header = data[start:pos]
                values = []
                append = values.append
                for _ in range(arity):
                    tag = data[pos] if pos < end else 0
                    if tag == 0x6E:  # 'n'
                        append(None)
                        pos += 1
                        continue
                    if tag == 0x6C or tag == 0x69:  # 'l' / 'i'
                        # A varint of one or two bytes is read here.
                        if pos + 1 < end and (n := data[pos + 1]) < 0x80:
                            pos += 2
                        elif pos + 2 < end and data[pos + 2] < 0x80:
                            n = (n & 0x7F) | data[pos + 2] << 7
                            pos += 3
                        else:
                            value, pos = _read_checked(data, pos, end, checks)
                            append(value)
                            continue
                        value = (n >> 1) if n % 2 == 0 else -((n + 1) >> 1)
                        if checks is not None:
                            checks[1 if tag == 0x6C else 0](value)
                        append(value)
                        continue
                    value, pos = _read_checked(data, pos, end, checks)
                    append(value)
                records.append(ActivationRecord(procedure, location, fmt, values))
        except UnicodeDecodeError as exc:
            raise _bad_utf8(exc) from exc
        if pos < end:
            raise DecodingError(f"{end - pos} trailing bytes in process state packet")
        return cls(
            module=module,
            stack=StackState(records),
            statics=statics,
            heap=heap,
            reconfig_point=reconfig_point,
            source_machine=source_machine,
            status=status,
        )

    # -- convenience ---------------------------------------------------------------

    def summary(self) -> str:
        """One-line description used in logs and reconfiguration traces."""
        chain = " -> ".join(self.stack.call_chain()) or "(empty)"
        return (
            f"ProcessState(module={self.module!r}, point={self.reconfig_point!r}, "
            f"depth={self.stack.depth}, chain={chain})"
        )

    def translate(
        self,
        source: Optional[MachineProfile],
        target: Optional[MachineProfile],
    ) -> "ProcessState":
        """Round-trip through the canonical encoding between two machines.

        This is exactly what a cross-machine move does; exposing it as a
        method lets tests and the heterogeneity benchmark (D5) exercise
        the translation without a running bus.
        """
        return ProcessState.from_bytes(self.to_bytes(source), target)

