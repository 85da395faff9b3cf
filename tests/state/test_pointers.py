"""Tests for the symbolic pointer value (repro.state.pointers).

Live objects are translated to and from symbolic segments by
``HeapCodec`` (see ``test_heap.py``).
"""

import pytest

from repro.state.pointers import SymbolicPointer


class TestSymbolicPointer:
    def test_str_is_paperlike(self):
        # "a variable that points to the nth character of a string located
        # at some symbolic address"
        pointer = SymbolicPointer("greeting", 3)
        assert str(pointer) == "&greeting[3]"

    def test_offset_arithmetic(self):
        pointer = SymbolicPointer("seg", 2).with_offset(5)
        assert pointer == SymbolicPointer("seg", 7)

    def test_frozen(self):
        with pytest.raises(Exception):
            SymbolicPointer("seg", 0).index = 3  # type: ignore[misc]

