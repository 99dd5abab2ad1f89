"""Field type system for the ``.msg`` interface definition language.

ROS messages are composed from a small set of builtin types plus arrays and
nested message types.  Every builtin type except ``string`` has a fixed wire
size, a fact the SFM format relies on (paper Section 4.1): the *skeleton* of
a message is fixed-size precisely because strings and variable-length arrays
contribute a fixed 8-byte (length, offset) pair.

The classes here describe types only; serialization lives in
:mod:`repro.serialization` and the SFM layout in :mod:`repro.sfm.layout`.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Optional

#: Legal spelling of a (possibly package-qualified) complex type name.
_COMPLEX_NAME_RE = re.compile(
    r"^[A-Za-z][A-Za-z0-9_]*(/[A-Za-z][A-Za-z0-9_]*)?$"
)


class FieldType:
    """Base class for all field types.

    A field type knows its canonical IDL name and whether its serialized
    size is fixed.  Concrete subclasses: :class:`PrimitiveType`,
    :class:`StringType`, :class:`ArrayType`, :class:`ComplexType` and the
    extension :class:`MapType`.
    """

    #: Canonical IDL spelling, e.g. ``uint32`` or ``sensor_msgs/Image``.
    name: str

    def is_fixed_size(self) -> bool:
        """Return True when every value of this type serializes to the
        same number of bytes (no strings or variable-length arrays)."""
        raise NotImplementedError

    def default_value(self):
        """Return the ROS default value for an unassigned field."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == other.name

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


@dataclass(frozen=True, eq=False)
class PrimitiveType(FieldType):
    """A fixed-size builtin type (integers, floats, bool, time, duration).

    ``struct_fmt`` is the little-endian :mod:`struct` format for one value;
    ``size`` is its wire size in bytes.  ROS serializes ``time`` and
    ``duration`` as two unsigned 32-bit integers, which we model with the
    8-byte ``II`` format and 2-tuples on the Python side.
    """

    name: str
    struct_fmt: str
    size: int
    python_default: object

    def is_fixed_size(self) -> bool:
        return True

    def default_value(self):
        return self.python_default

    @property
    def is_integral(self) -> bool:
        return self.struct_fmt in ("b", "B", "h", "H", "i", "I", "q", "Q", "?")

    @property
    def is_float(self) -> bool:
        return self.struct_fmt in ("f", "d")

    @property
    def is_time(self) -> bool:
        return self.struct_fmt == "II"

    def range(self) -> Optional[tuple]:
        """Return the inclusive (lo, hi) value range for integral types,
        or None for floats / time."""
        if not self.is_integral:
            return None
        if self.struct_fmt == "?":
            return (0, 1)
        bits = self.size * 8
        if self.struct_fmt.islower():
            return (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        return (0, (1 << bits) - 1)


class StringType(FieldType):
    """The ROS ``string`` type: UTF-8 text with a 32-bit length prefix."""

    name = "string"

    def is_fixed_size(self) -> bool:
        return False

    def default_value(self) -> str:
        return ""


@dataclass(frozen=True, eq=False)
class ArrayType(FieldType):
    """A fixed (``T[N]``) or variable-length (``T[]``) array of a type."""

    element_type: FieldType
    length: Optional[int]  # None => variable length

    @property
    def name(self) -> str:  # type: ignore[override]
        suffix = f"[{self.length}]" if self.length is not None else "[]"
        return self.element_type.name + suffix

    def is_fixed_size(self) -> bool:
        return self.length is not None and self.element_type.is_fixed_size()

    def default_value(self):
        if self.length is None:
            return []
        return [self.element_type.default_value() for _ in range(self.length)]


@dataclass(frozen=True, eq=False)
class ComplexType(FieldType):
    """A nested message type, referenced as ``package/Name``."""

    name: str

    def is_fixed_size(self) -> bool:
        # Resolution happens in the registry; a bare ComplexType is
        # conservatively variable-size.
        return False

    def default_value(self):
        return None


@dataclass(frozen=True, eq=False)
class MapType(FieldType):
    """Extension type from paper Section 4.4.2: a key/value map.

    Following the paper's suggestion (and ROS's own convention), a map is
    represented on the wire as a variable-length vector of key/value pairs.
    """

    key_type: FieldType
    value_type: FieldType

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"map<{self.key_type.name},{self.value_type.name}>"

    def is_fixed_size(self) -> bool:
        return False

    def default_value(self) -> dict:
        return {}


def _prim(name: str, fmt: str, default) -> PrimitiveType:
    size = struct.calcsize("<" + fmt)
    return PrimitiveType(name=name, struct_fmt=fmt, size=size, python_default=default)


#: All ROS builtin primitive types, keyed by IDL name.  ``byte`` and
#: ``char`` are the historic aliases for int8/uint8.
PRIMITIVE_TYPES: dict[str, PrimitiveType] = {
    "bool": _prim("bool", "?", False),
    "int8": _prim("int8", "b", 0),
    "uint8": _prim("uint8", "B", 0),
    "byte": _prim("byte", "b", 0),
    "char": _prim("char", "B", 0),
    "int16": _prim("int16", "h", 0),
    "uint16": _prim("uint16", "H", 0),
    "int32": _prim("int32", "i", 0),
    "uint32": _prim("uint32", "I", 0),
    "int64": _prim("int64", "q", 0),
    "uint64": _prim("uint64", "Q", 0),
    "float32": _prim("float32", "f", 0.0),
    "float64": _prim("float64", "d", 0.0),
    "time": _prim("time", "II", (0, 0)),
    "duration": _prim("duration", "ii", (0, 0)),
}

STRING = StringType()


class FieldTypeError(ValueError):
    """Raised for malformed type spellings in a message definition."""


def parse_field_type(spelling: str, package_context: str = "") -> FieldType:
    """Parse an IDL type spelling into a :class:`FieldType`.

    ``package_context`` supplies the package for unqualified complex type
    names (``Header`` is special-cased to ``std_msgs/Header`` as in ROS).

    >>> parse_field_type("uint8[]").name
    'uint8[]'
    >>> parse_field_type("Header", "sensor_msgs").name
    'std_msgs/Header'
    """
    spelling = spelling.strip()
    if not spelling:
        raise FieldTypeError("empty type spelling")

    if spelling.endswith("]"):
        open_idx = spelling.rfind("[")
        if open_idx < 0:
            raise FieldTypeError(f"malformed array type {spelling!r}")
        inner = spelling[open_idx + 1 : -1].strip()
        element = parse_field_type(spelling[:open_idx], package_context)
        if inner == "":
            return ArrayType(element_type=element, length=None)
        try:
            length = int(inner)
        except ValueError as exc:
            raise FieldTypeError(f"bad array length in {spelling!r}") from exc
        if length < 0:
            raise FieldTypeError(f"negative array length in {spelling!r}")
        return ArrayType(element_type=element, length=length)

    if spelling.startswith("map<"):
        if not spelling.endswith(">"):
            raise FieldTypeError(f"malformed map type {spelling!r}")
        body = spelling[4:-1]
        parts = _split_map_args(body)
        if len(parts) != 2:
            raise FieldTypeError(f"map type needs 2 arguments: {spelling!r}")
        key = parse_field_type(parts[0], package_context)
        value = parse_field_type(parts[1], package_context)
        if not isinstance(key, (PrimitiveType, StringType)):
            raise FieldTypeError(f"map key must be primitive or string: {spelling!r}")
        return MapType(key_type=key, value_type=value)

    if spelling in PRIMITIVE_TYPES:
        return PRIMITIVE_TYPES[spelling]
    if spelling == "string":
        return STRING
    if spelling == "Header":
        return ComplexType(name="std_msgs/Header")
    if not _COMPLEX_NAME_RE.match(spelling):
        raise FieldTypeError(f"malformed type spelling {spelling!r}")
    if "/" in spelling:
        return ComplexType(name=spelling)
    if not package_context:
        raise FieldTypeError(
            f"unqualified complex type {spelling!r} outside a package context"
        )
    return ComplexType(name=f"{package_context}/{spelling}")


def _split_map_args(body: str) -> list[str]:
    """Split ``map<...>`` arguments at the top-level comma only."""
    parts, depth, current = [], 0, []
    for ch in body:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts]
