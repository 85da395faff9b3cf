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
The stack depth a coordinator reports comes from the encoding module's
frame count, sent with the packet, never from parsing it.
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
    encoded (:meth:`encode_into_buffer`).
    """

    procedure: str
    location: int
    fmt: str
    values: List[object] = field(default_factory=list)

    def encode_into_buffer(
        self, buf: bytearray, machine: Optional[MachineProfile], checks=None
    ) -> None:
        """Append this frame's wire form; the capture/encode hot path.

        ``checks`` is the machine's resolved check suite when the caller
        already holds it (``ProcessState.to_bytes`` resolves once for the
        whole packet); otherwise it is derived from ``machine``.  A value
        that does not match ``fmt`` raises the position-naming
        :class:`FormatError` of :func:`check_arity`.
        """
        if checks is None and machine is not None:
            checks = _checks_of(machine)
        _append_str(buf, self.procedure)
        buf.append(0x6C)  # 'l'
        _append_varint(
            buf,
            self.location * 2 if self.location >= 0 else -self.location * 2 - 1,
        )
        _append_str(buf, self.fmt)
        plan = encoder_plan(self.fmt)
        values = self.values
        if len(plan) != len(values):
            check_arity(self.fmt, values)  # raises the arity FormatError
        try:
            for encode, value in zip(plan, values):
                encode(buf, value, checks)
        except (EncodingError, FormatError):
            # A declaration mismatch surfaces as check_arity's
            # position-naming FormatError; anything else is re-raised.
            check_arity(self.fmt, values)
            raise


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


def _read_str_field(buf, pos: int, end: int, name: str) -> Tuple[str, int]:
    value, pos = _read_checked(buf, pos, end, None)
    if not isinstance(value, str):
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
        concatenation copy.  This is where a captured frame is validated
        against its format (:meth:`ActivationRecord.encode_into_buffer`).
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
        for record in self.stack:
            record.encode_into_buffer(buf, machine, checks)
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
        """
        _check_packet_framing(data)
        checks = None if machine is None else _checks_of(machine)
        end = len(data)
        try:
            module, pos = _read_str_field(data, _BODY_OFFSET, end, "module")
            status, pos = _read_str_field(data, pos, end, "status")
            reconfig_point, pos = _read_checked(data, pos, end, None)
            source_machine, pos = _read_checked(data, pos, end, None)
            statics, pos = _read_checked(data, pos, end, checks)
            heap, pos = _read_checked(data, pos, end, checks)
            frame_count, pos = _read_checked(data, pos, end, None)
            if not isinstance(statics, dict) or not isinstance(heap, dict):
                raise DecodingError("corrupt statics/heap in process state")
            if not isinstance(frame_count, int) or frame_count < 0:
                raise DecodingError("corrupt frame count in process state")
            records = []
            for _ in range(frame_count):
                procedure, pos = _read_checked(data, pos, end, None)
                location, pos = _read_checked(data, pos, end, None)
                fmt, pos = _read_checked(data, pos, end, None)
                if not isinstance(procedure, str) or not isinstance(fmt, str):
                    raise DecodingError("corrupt activation record header")
                if not isinstance(location, int):
                    raise DecodingError("corrupt activation record location")
                values = []
                for _ in parse_format(fmt):
                    value, pos = _read_checked(data, pos, end, checks)
                    values.append(value)
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
            reconfig_point=str(reconfig_point),
            source_machine=str(source_machine),
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

