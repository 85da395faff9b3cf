"""Symbolic pointer translation (paper Section 3, final paragraphs).

"Since pointers are addresses, they must be translated into an abstract
format for capture and restoration.  For example, a pointer variable
containing an explicit address would be translated into a variable that
points to the nth character of a string located at some symbolic address."

In this reproduction a pointer is abstracted as a *(segment, index)* pair:
``segment`` is a symbolic address — a static variable name, a heap object
id (``"heap:17"``), or an out-parameter cell id — and ``index`` an offset
into that object.  Live heap objects get their segments from
:class:`~repro.state.heap.HeapCodec`, which interns each object once per
capture (so aliasing survives the move) and resolves the segments back at
restore time; ``SymbolicPointer`` is the value that travels.

Pointers *into the activation-record stack* never appear here: the paper's
insight (which we inherit) is that stack pointers are rebuilt for free by
re-executing the instrumented call chain, so only static/heap targets need
symbolic translation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SymbolicPointer:
    """A machine-independent pointer: an offset into a named segment."""

    segment: str
    index: int = 0

    def with_offset(self, delta: int) -> "SymbolicPointer":
        """Pointer arithmetic in abstract space."""
        return SymbolicPointer(self.segment, self.index + delta)

    def __str__(self) -> str:
        return f"&{self.segment}[{self.index}]"
