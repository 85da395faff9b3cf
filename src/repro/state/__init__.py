"""Abstract, machine-independent process state (paper Section 1.2).

The paper characterises a process state abstractly — static data, the
activation-record stack, heap data, and resume locations — so that a module
captured on one architecture can be restored on another.  This package
implements that characterisation:

- :mod:`repro.state.format` — typed format strings (the paper's ``"llF"``)
- :mod:`repro.state.machine` — simulated machine architectures and
  native <-> canonical translation
- :mod:`repro.state.encoding` — the canonical byte-level abstract encoding
- :mod:`repro.state.frames` — activation records, stack state, process state
- :mod:`repro.state.pointers` — the symbolic pointer value
- :mod:`repro.state.heap` — automatic heap capture/restore of plain graphs
"""

from repro.state.format import (
    TypeSpec,
    ScalarType,
    ListType,
    TupleType,
    DictType,
    parse_format,
    format_of_value,
    value_matches,
    MIL_PATTERN_NAMES,
    pattern_to_format,
)
from repro.state.machine import MachineProfile, Endianness, MACHINES
from repro.state.encoding import (
    encode_values,
    decode_values,
    encode_any,
    decode_any,
)
from repro.state.frames import (
    ActivationRecord,
    StackState,
    ProcessState,
)
from repro.state.pointers import SymbolicPointer
from repro.state.heap import HeapImage, HeapCodec

__all__ = [
    "TypeSpec",
    "ScalarType",
    "ListType",
    "TupleType",
    "DictType",
    "parse_format",
    "format_of_value",
    "value_matches",
    "MIL_PATTERN_NAMES",
    "pattern_to_format",
    "MachineProfile",
    "Endianness",
    "MACHINES",
    "encode_values",
    "decode_values",
    "encode_any",
    "decode_any",
    "ActivationRecord",
    "StackState",
    "ProcessState",
    "SymbolicPointer",
    "HeapImage",
    "HeapCodec",
]
