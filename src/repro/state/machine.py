"""Simulated machine architectures for heterogeneous reconfiguration.

The paper moves modules "to different architectures" and argues that the
process state must therefore be captured in an abstract, machine-neutral
format.  We cannot attach real heterogeneous hardware to a test run, so we
simulate it (see DESIGN.md, substitutions): every simulated host carries a
:class:`MachineProfile` describing its byte order and native integer
widths.  State leaving a module is translated *native -> canonical* on the
source machine and *canonical -> native* on the target machine.

Two behaviours make the simulation meaningful rather than decorative:

1. ``pack_native`` produces a genuinely different byte image on machines
   with different endianness/word size, so tests can demonstrate that a raw
   memory copy would be wrong while the canonical path is right.
2. ``check_representable`` raises :class:`MachineCompatibilityError` when a
   value captured on a wide machine does not fit the target's native types
   — the real hazard of heterogeneous migration.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from typing import Dict

from repro.errors import EncodingError, MachineCompatibilityError
from repro.state.format import ScalarType, TypeSpec, iter_scalars


class Endianness(enum.Enum):
    """Byte order of a simulated machine."""

    LITTLE = "little"
    BIG = "big"

    @property
    def struct_prefix(self) -> str:
        return "<" if self is Endianness.LITTLE else ">"


@dataclass(frozen=True)
class MachineProfile:
    """Architecture description of a simulated host.

    ``int_bits``/``long_bits`` bound the native signed integer types used
    for format characters ``i``/``l``; ``float_bits`` selects the widest
    native float (32 means doubles are unavailable and ``F`` degrades to
    single precision on that machine, which ``check_representable``
    reports rather than silently truncating).
    """

    name: str
    endianness: Endianness
    int_bits: int = 32
    long_bits: int = 64
    float_bits: int = 64

    def __post_init__(self) -> None:
        if self.int_bits not in (16, 32, 64):
            raise ValueError(f"unsupported int width {self.int_bits}")
        if self.long_bits not in (32, 64):
            raise ValueError(f"unsupported long width {self.long_bits}")
        if self.long_bits < self.int_bits:
            raise ValueError("long must be at least as wide as int")
        if self.float_bits not in (32, 64):
            raise ValueError(f"unsupported float width {self.float_bits}")

    # -- integer ranges -----------------------------------------------------

    def int_range(self, char: str) -> range:
        """Native range of the integer type behind format char ``char``."""
        bits = self.int_bits if char == "i" else self.long_bits
        return range(-(1 << (bits - 1)), 1 << (bits - 1))

    # -- compiled codec checks ----------------------------------------------

    def codec_checks(self) -> tuple:
        """Per-char representability checks compiled for the codec hot path.

        Returns ``(check_i, check_l, check_F)`` where each entry is either
        ``None`` (this machine imposes no constraint on that char — the
        codec skips the call entirely) or a closure with the bounds and
        the error strings of :meth:`check_representable` pre-resolved.
        No other scalar has a machine constraint.  The result is attached
        to the instance, so the cost is paid once per machine.
        """
        checks = self.__dict__.get("_codec_checks")
        if checks is not None:
            return checks
        checks = (
            self._compile_int_check("i"),
            self._compile_int_check("l"),
            self._compile_double_check(),
        )
        object.__setattr__(self, "_codec_checks", checks)
        return checks

    def _compile_int_check(self, char: str):
        bits = self.int_bits if char == "i" else self.long_bits
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
        kind = "int" if char == "i" else "long"
        spec = ScalarType(char)

        def check_int(value, _self=self):
            if type(value) is int:
                if lo <= value <= hi:
                    return
                raise MachineCompatibilityError(
                    f"integer {value} does not fit a {bits}-bit "
                    f"native {kind} on machine {_self.name!r}"
                )
            # bool, containers, foreign types: the generic walk decides.
            _self.check_representable(spec, value)

        return check_int

    def _compile_double_check(self):
        if self.float_bits != 32:
            return None
        spec = ScalarType("F")

        def check_double(value, _self=self):
            if type(value) is float:
                narrowed = struct.unpack("<f", struct.pack("<f", value))[0]
                if narrowed != value and not (
                    math.isnan(value) and math.isnan(narrowed)
                ):
                    raise MachineCompatibilityError(
                        f"double {value!r} is not representable on "
                        f"32-bit-float machine {_self.name!r}"
                    )
                return
            _self.check_representable(spec, value)

        return check_double

    # -- representability ---------------------------------------------------

    def check_representable(self, spec: TypeSpec, value: object) -> None:
        """Raise unless ``value`` fits this machine's native types.

        Called on the *target* machine during restore (and on the source
        machine during capture, so errors surface where the programmer can
        see the original value).
        """
        for scalar in iter_scalars(spec):
            self._check_scalar(scalar, value)

    def _check_scalar(self, scalar: ScalarType, value: object) -> None:
        # Structured values are validated leaf-wise by the encoder; here we
        # only need range checks, so walk containers recursively.
        if isinstance(value, (list, tuple)):
            for item in value:
                self._check_scalar(scalar, item)
            return
        if isinstance(value, dict):
            for key, item in value.items():
                self._check_scalar(scalar, key)
                self._check_scalar(scalar, item)
            return
        char = scalar.char
        if char in ("i", "l") and isinstance(value, int) and not isinstance(value, bool):
            rng = self.int_range(char)
            # Bounds, not ``in``: range membership of an int *subclass*
            # (an IntEnum member) degrades to a linear scan of 2**64 values.
            if not rng.start <= value < rng.stop:
                raise MachineCompatibilityError(
                    f"integer {value} does not fit a "
                    f"{self.int_bits if char == 'i' else self.long_bits}-bit "
                    f"native {'int' if char == 'i' else 'long'} "
                    f"on machine {self.name!r}"
                )
        if char == "F" and self.float_bits == 32 and isinstance(value, float):
            narrowed = struct.unpack("<f", struct.pack("<f", value))[0]
            if narrowed != value and not (math.isnan(value) and math.isnan(narrowed)):
                raise MachineCompatibilityError(
                    f"double {value!r} is not representable on 32-bit-float "
                    f"machine {self.name!r}"
                )

    # -- native memory images -----------------------------------------------

    def pack_native(self, spec: ScalarType, value: object) -> bytes:
        """Produce the simulated *native* memory image of a scalar.

        This is what a raw (non-abstract) state copy would ship between
        machines; tests use it to show that the native images of the same
        abstract value differ across profiles.
        """
        prefix = self.endianness.struct_prefix
        char = spec.char
        if char == "b":
            return struct.pack(prefix + "B", 1 if value else 0)
        if char == "i":
            self._check_scalar(spec, value)
            code = {16: "h", 32: "i", 64: "q"}[self.int_bits]
            return struct.pack(prefix + code, value)
        if char == "l":
            self._check_scalar(spec, value)
            code = {32: "i", 64: "q"}[self.long_bits]
            return struct.pack(prefix + code, value)
        if char == "f":
            return struct.pack(prefix + "f", float(value))  # type: ignore[arg-type]
        if char == "F":
            code = "f" if self.float_bits == 32 else "d"
            return struct.pack(prefix + code, float(value))  # type: ignore[arg-type]
        if char == "s":
            return str(value).encode("utf-8")
        if char == "B":
            return bytes(value)  # type: ignore[arg-type]
        if char == "n":
            return b""
        raise EncodingError(f"no native image for format char {char!r}")

    def unpack_native(self, spec: ScalarType, image: bytes) -> object:
        """Inverse of :meth:`pack_native` for the same profile."""
        prefix = self.endianness.struct_prefix
        char = spec.char
        if char == "b":
            return struct.unpack(prefix + "B", image)[0] != 0
        if char == "i":
            code = {16: "h", 32: "i", 64: "q"}[self.int_bits]
            return struct.unpack(prefix + code, image)[0]
        if char == "l":
            code = {32: "i", 64: "q"}[self.long_bits]
            return struct.unpack(prefix + code, image)[0]
        if char == "f":
            return struct.unpack(prefix + "f", image)[0]
        if char == "F":
            code = "f" if self.float_bits == 32 else "d"
            return struct.unpack(prefix + code, image)[0]
        if char == "s":
            return image.decode("utf-8")
        if char == "B":
            return image
        if char == "n":
            return None
        raise EncodingError(f"no native image for format char {char!r}")

    def describe(self) -> str:
        """Human-readable one-line architecture description."""
        return (
            f"{self.name}: {self.endianness.value}-endian, "
            f"int{self.int_bits}/long{self.long_bits}/float{self.float_bits}"
        )

    def to_abstract(self) -> Dict[str, object]:
        """Plain-value form for crossing a process boundary (pipe or TCP)."""
        return {
            "name": self.name,
            "endianness": self.endianness.value,
            "int_bits": self.int_bits,
            "long_bits": self.long_bits,
            "float_bits": self.float_bits,
        }


def profile_from_abstract(value: Dict[str, object]) -> MachineProfile:
    """Rebuild a profile from :meth:`MachineProfile.to_abstract` output."""
    return MachineProfile(
        name=str(value["name"]),
        endianness=Endianness(str(value["endianness"])),
        int_bits=int(value["int_bits"]),  # type: ignore[call-overload]
        long_bits=int(value["long_bits"]),  # type: ignore[call-overload]
        float_bits=int(value["float_bits"]),  # type: ignore[call-overload]
    )


#: A small catalogue of simulated architectures used by examples and tests.
MACHINES: Dict[str, MachineProfile] = {
    "vax-like": MachineProfile("vax-like", Endianness.LITTLE, int_bits=32, long_bits=32),
    "sparc-like": MachineProfile("sparc-like", Endianness.BIG, int_bits=32, long_bits=64),
    "alpha-like": MachineProfile("alpha-like", Endianness.LITTLE, int_bits=64, long_bits=64),
    "m68k-like": MachineProfile(
        "m68k-like", Endianness.BIG, int_bits=16, long_bits=32, float_bits=32
    ),
    "modern-64": MachineProfile("modern-64", Endianness.LITTLE, int_bits=32, long_bits=64),
}
