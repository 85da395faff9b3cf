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
encoder plans; deserialization reads header fields from a ``memoryview``
of the packet body and leaves the frames as an undecoded byte region that
:class:`StackState` materialises on first access.  Callers that only need
identity or depth — the coordinator recording ``stack_depth``, trace
lines, queue accounting — use :func:`peek_state_header` and never decode
a frame at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DecodingError, EncodingError
from repro.state.encoding import (
    Decoder,
    Encoder,
    _append_varint,
    _checks_of,
    _read_checked,
    encoder_plan,
    read_value,
    skip_value,
    write_any,
)
from repro.state.format import check_arity, parse_format
from repro.state.machine import MachineProfile

#: Magic prefix of a serialized process state packet.
STATE_MAGIC = b"MHST"
#: Version of the packet layout; bumped on incompatible change.  Version 2:
#: heap segments are the codec's own dicts and lists (version 1 wrapped
#: them as ``["dict", [[k, v], ...]]`` / ``["list", [...]]``).
STATE_VERSION = 2

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
    """

    procedure: str
    location: int
    fmt: str
    values: List[object] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_arity(self.fmt, self.values)

    def encode_into_buffer(
        self, buf: bytearray, machine: Optional[MachineProfile], checks=None
    ) -> None:
        """Append this frame's wire form; the capture/encode hot path.

        ``checks`` is the machine's resolved check suite when the caller
        already holds it (``ProcessState.to_bytes`` resolves once for the
        whole packet); otherwise it is derived from ``machine``.
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
        except EncodingError:
            # Values mutated since construction: surface the same
            # position-naming FormatError the eager walk raised.
            check_arity(self.fmt, values)
            raise

    def encode_into(self, encoder: Encoder) -> None:
        self.encode_into_buffer(encoder._buffer, encoder.machine)

    @classmethod
    def decode_from(cls, decoder: Decoder) -> "ActivationRecord":
        procedure = decoder.read()
        location = decoder.read()
        fmt = decoder.read()
        if not isinstance(procedure, str) or not isinstance(fmt, str):
            raise DecodingError("corrupt activation record header")
        if not isinstance(location, int):
            raise DecodingError("corrupt activation record location")
        values = [decoder.read() for _ in parse_format(fmt)]
        return cls(procedure=procedure, location=location, fmt=fmt, values=values)


class StackState:
    """The captured activation-record stack.

    Records are stored in *capture order*: the topmost frame (the one
    containing the reconfiguration point) first, ``main`` last — that is
    the order the paper's capture blocks emit them as each ``return`` pops
    a frame.  Restoration consumes them in the opposite order
    (:meth:`pop_for_restore` yields ``main`` first), mirroring how the
    restore blocks rebuild the stack by re-executing calls downward.

    A stack parsed from a packet starts **lazy**: :attr:`depth` comes from
    the packet's frame count and the records stay an undecoded byte region
    until something touches a frame.  Restoration pops the *last* wire
    frame first, so frames cannot stream one at a time — the first touch
    decodes them all.  Depth-only consumers never pay for a decode.
    """

    def __init__(self, records: Optional[Sequence[ActivationRecord]] = None):
        self._records: List[ActivationRecord] = list(records or [])
        self._pending = 0
        self._materializer: Optional[Callable[[], List[ActivationRecord]]] = None

    @classmethod
    def lazy(
        cls, count: int, materializer: Callable[[], List[ActivationRecord]]
    ) -> "StackState":
        """A stack of ``count`` frames decoded on first record access."""
        stack = cls()
        stack._pending = count
        stack._materializer = materializer
        return stack

    def _ensure(self) -> None:
        if self._materializer is not None:
            materializer, self._materializer = self._materializer, None
            self._pending = 0
            self._records.extend(materializer())

    def materialize(self) -> "StackState":
        """Force-decode any pending frames (validating them); returns self."""
        self._ensure()
        return self

    def __len__(self) -> int:
        return len(self._records) + self._pending

    def __iter__(self):
        self._ensure()
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StackState):
            return False
        self._ensure()
        other._ensure()
        return self._records == other._records

    def records(self) -> List[ActivationRecord]:
        self._ensure()
        return list(self._records)

    @property
    def depth(self) -> int:
        return len(self._records) + self._pending

    def push_captured(self, record: ActivationRecord) -> None:
        """Append a frame during capture (top of stack arrives first)."""
        self._ensure()
        self._records.append(record)

    def pop_for_restore(self) -> ActivationRecord:
        """Remove and return the next frame to restore (outermost first)."""
        self._ensure()
        if not self._records:
            raise DecodingError("restore consumed more frames than captured")
        return self._records.pop()

    def peek_for_restore(self) -> Optional[ActivationRecord]:
        self._ensure()
        return self._records[-1] if self._records else None

    def call_chain(self) -> List[str]:
        """Procedure names from ``main`` down to the reconfiguration point."""
        self._ensure()
        return [record.procedure for record in reversed(self._records)]


@dataclass(frozen=True)
class StateHeader:
    """The peekable prefix of a process-state packet.

    Everything the coordinator's bookkeeping needs — identity, origin and
    stack depth — without decoding a single activation record.  ``depth``
    sits *after* the statics and heap values on the wire; they are skipped
    structurally (:func:`repro.state.encoding.skip_value`), never decoded.
    """

    module: str
    status: str
    reconfig_point: str
    source_machine: str
    depth: int
    body_length: int
    packet_length: int


def _check_packet_framing(data) -> int:
    """Validate magic/version/length; return the body length."""
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
    return length


def _read_str_field(buf, pos: int, end: int, name: str) -> Tuple[str, int]:
    value, pos = read_value(buf, pos, end)
    if not isinstance(value, str):
        raise DecodingError(f"corrupt process state field {name!r}")
    return value, pos


def peek_state_header(data) -> StateHeader:
    """Read a packet's identity and stack depth without decoding frames.

    Cost is the four header strings plus a structural skip over the
    statics and heap — proportional to the packet prefix, independent of
    the stack depth and of how much state each activation record carries.
    The coordinator uses this to record ``stack_depth`` off the critical
    path (it used to pay a full ``from_bytes`` for that one integer).
    """
    length = _check_packet_framing(data)
    buf = memoryview(data)[_BODY_OFFSET:]
    end = len(buf)
    pos = 0
    module, pos = _read_str_field(buf, pos, end, "module")
    status, pos = _read_str_field(buf, pos, end, "status")
    reconfig_point, pos = _read_str_field(buf, pos, end, "reconfig_point")
    source_machine, pos = _read_str_field(buf, pos, end, "source_machine")
    pos = skip_value(buf, pos, end)  # statics
    pos = skip_value(buf, pos, end)  # heap
    frame_count, pos = read_value(buf, pos, end)
    if not isinstance(frame_count, int) or frame_count < 0:
        raise DecodingError("corrupt frame count in process state")
    return StateHeader(
        module=module,
        status=status,
        reconfig_point=reconfig_point,
        source_machine=source_machine,
        depth=frame_count,
        body_length=length,
        packet_length=len(data),
    )


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
        encoder plans — and the length is patched in place: no per-frame
        Encoder objects, no header+body concatenation copy.
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
        every value is checked as it decodes.  Header fields, statics and
        heap decode immediately — off a ``memoryview``, so the body is
        never copied out of the packet — while activation records stay an
        undecoded region until first access (see :class:`StackState`).
        Callers that need the target-machine check to cover the frames
        *now* (module restore does, before installing any state) call
        ``state.stack.materialize()``.
        """
        _check_packet_framing(data)
        buf = memoryview(data)[_BODY_OFFSET:]
        end = len(buf)
        pos = 0
        module, pos = _read_str_field(buf, pos, end, "module")
        status, pos = _read_str_field(buf, pos, end, "status")
        reconfig_point, pos = read_value(buf, pos, end)
        source_machine, pos = read_value(buf, pos, end)
        statics, pos = read_value(buf, pos, end, machine)
        heap, pos = read_value(buf, pos, end, machine)
        frame_count, pos = read_value(buf, pos, end)
        if not isinstance(statics, dict) or not isinstance(heap, dict):
            raise DecodingError("corrupt statics/heap in process state")
        if not isinstance(frame_count, int) or frame_count < 0:
            raise DecodingError("corrupt frame count in process state")

        frame_region_start = pos

        def materialize_frames() -> List[ActivationRecord]:
            checks = None if machine is None else _checks_of(machine)
            records = []
            fpos = frame_region_start
            for _ in range(frame_count):
                procedure, fpos = _read_checked(buf, fpos, end, None)
                location, fpos = _read_checked(buf, fpos, end, None)
                fmt, fpos = _read_checked(buf, fpos, end, None)
                if not isinstance(procedure, str) or not isinstance(fmt, str):
                    raise DecodingError("corrupt activation record header")
                if not isinstance(location, int):
                    raise DecodingError("corrupt activation record location")
                values = []
                for _ in parse_format(fmt):
                    value, fpos = _read_checked(buf, fpos, end, checks)
                    values.append(value)
                # Trusted construction: the values just came off the
                # self-describing wire under this fmt's arity, so the
                # dataclass __post_init__ re-validation is skipped.
                record = ActivationRecord.__new__(ActivationRecord)
                record.procedure = procedure
                record.location = location
                record.fmt = fmt
                record.values = values
                records.append(record)
            if fpos < end:
                raise DecodingError(
                    f"{end - fpos} trailing bytes in process state packet"
                )
            return records

        return cls(
            module=module,
            stack=StackState.lazy(frame_count, materialize_frames),
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
        the translation without a running bus.  The result is fully
        materialised: a translation that merely deferred the target
        machine's representability check would not be a translation.
        """
        state = ProcessState.from_bytes(self.to_bytes(source), target)
        state.stack.materialize()
        return state


def frames_equal_ignoring_order_metadata(
    left: StackState, right: StackState
) -> bool:
    """Structural equality helper used by property tests."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.procedure, a.location, a.fmt, a.values) != (
            b.procedure,
            b.location,
            b.fmt,
            b.values,
        ):
            return False
    return True
