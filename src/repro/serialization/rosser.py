"""The ROS1 wire format: the serializer that ROS-SF eliminates.

Encoding rules (as in roscpp/rospy):

- primitives are packed little-endian (``time``/``duration`` as two 32-bit
  words),
- ``string`` is a 32-bit length followed by the raw UTF-8 bytes (no
  terminator),
- variable-length arrays are a 32-bit element count followed by the
  elements; fixed-length arrays are the elements only,
- nested messages are embedded inline,
- the Section 4.4.2 extension ``map`` is encoded as a 32-bit pair count
  followed by alternating keys and values (ROS's own convention).

For each message type the serializer compiles a writer/reader closure per
field once and caches the plan, mirroring how genmsg emits a dedicated
routine per type rather than interpreting the spec on every message.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.msg.fields import (
    ArrayType,
    ComplexType,
    FieldType,
    MapType,
    PrimitiveType,
    StringType,
)
from repro.msg.generator import generate_message_class
from repro.msg.registry import TypeRegistry, default_registry
from repro.serialization.base import WireFormat
from repro.serialization.endian import LITTLE

_U32 = {"<": struct.Struct("<I"), ">": struct.Struct(">I")}

# Only unsigned single-byte elements may use the raw-bytes fast path;
# int8/byte arrays carry negative values and pack per element.
_BYTE_ELEMENT_NAMES = ("uint8", "char")


class DeserializationError(ValueError):
    """Raised when a buffer does not decode as the expected type."""


class ROSSerializer(WireFormat):
    """Compiled ROS1 wire-format serializer/deserializer."""

    name = "ROS"
    serialization_free = False

    def __init__(
        self,
        registry: Optional[TypeRegistry] = None,
        byte_order: str = LITTLE,
    ) -> None:
        super().__init__(registry)
        self.byte_order = byte_order
        self._writers: dict[str, Callable] = {}
        self._readers: dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def serialize(self, msg) -> bytes:
        out = bytearray()
        self.serialize_into(msg, out)
        return bytes(out)

    def serialize_into(self, msg, out: bytearray) -> None:
        """Append the serialized form of ``msg`` to ``out``."""
        writer = self._writer_for(msg._spec.full_name)
        writer(msg, out)

    def deserialize(self, type_name: str, buffer):
        reader = self._reader_for(type_name)
        view = memoryview(buffer)
        try:
            value, offset = reader(view, 0)
        except (struct.error, UnicodeDecodeError, OverflowError) as exc:
            raise DeserializationError(f"{type_name}: {exc}") from exc
        if offset != len(view):
            raise DeserializationError(
                f"{type_name}: {len(view) - offset} trailing bytes"
            )
        return value

    # ------------------------------------------------------------------
    # Writer compilation
    # ------------------------------------------------------------------
    def _writer_for(self, type_name: str) -> Callable:
        writer = self._writers.get(type_name)
        if writer is None:
            writer = self._compile_writer(type_name)
            self._writers[type_name] = writer
        return writer

    def _compile_writer(self, type_name: str) -> Callable:
        spec = self.registry.get(type_name)
        steps = [
            (field.name, self._field_writer(field.type)) for field in spec.fields
        ]

        def write_message(msg, out: bytearray) -> None:
            for name, step in steps:
                step(getattr(msg, name), out)

        # Publish the writer before compiling siblings so recursive specs
        # (not legal in ROS, but guarded elsewhere) cannot loop here.
        self._writers[type_name] = write_message
        return write_message

    def _field_writer(self, ftype: FieldType) -> Callable:
        order = self.byte_order
        u32 = _U32[order]

        if isinstance(ftype, PrimitiveType):
            packer = struct.Struct(order + ftype.struct_fmt)
            if ftype.is_time:
                def write_time(value, out, _packer=packer):
                    secs, nsecs = value
                    out += _packer.pack(secs, nsecs)
                return write_time

            def write_prim(value, out, _packer=packer):
                out += _packer.pack(value)
            return write_prim

        if isinstance(ftype, StringType):
            def write_string(value, out, _u32=u32):
                data = value.encode("utf-8") if isinstance(value, str) else bytes(value)
                out += _u32.pack(len(data))
                out += data
            return write_string

        if isinstance(ftype, ArrayType):
            return self._array_writer(ftype)

        if isinstance(ftype, ComplexType):
            inner_name = ftype.name
            def write_nested(value, out, _self=self, _name=inner_name):
                _self._writer_for(_name)(value, out)
            return write_nested

        if isinstance(ftype, MapType):
            key_writer = self._field_writer(ftype.key_type)
            value_writer = self._field_writer(ftype.value_type)
            def write_map(value, out, _u32=u32):
                out += _u32.pack(len(value))
                for k, v in value.items():
                    key_writer(k, out)
                    value_writer(v, out)
            return write_map

        raise TypeError(f"unknown field type {ftype!r}")

    def _array_writer(self, ftype: ArrayType) -> Callable:
        order = self.byte_order
        u32 = _U32[order]
        element = ftype.element_type
        fixed_length = ftype.length

        if isinstance(element, PrimitiveType) and element.name in _BYTE_ELEMENT_NAMES:
            if fixed_length is None:
                def write_bytes(value, out, _u32=u32):
                    data = bytes(value)
                    out += _u32.pack(len(data))
                    out += data
                return write_bytes

            def write_fixed_bytes(value, out, _n=fixed_length):
                data = bytes(value)
                if len(data) != _n:
                    raise ValueError(
                        f"fixed array expects {_n} bytes, got {len(data)}"
                    )
                out += data
            return write_fixed_bytes

        if isinstance(element, PrimitiveType) and not element.is_time:
            fmt = element.struct_fmt
            if fixed_length is None:
                def write_prim_array(value, out, _u32=u32, _fmt=fmt, _order=order):
                    values = list(value)
                    out += _u32.pack(len(values))
                    if values:
                        out += struct.pack(f"{_order}{len(values)}{_fmt}", *values)
                return write_prim_array

            def write_fixed_prim_array(
                value, out, _n=fixed_length, _fmt=fmt, _order=order
            ):
                values = list(value)
                if len(values) != _n:
                    raise ValueError(
                        f"fixed array expects {_n} elements, got {len(values)}"
                    )
                out += struct.pack(f"{_order}{_n}{_fmt}", *values)
            return write_fixed_prim_array

        element_writer = self._field_writer(element)
        if fixed_length is None:
            def write_array(value, out, _u32=u32):
                out += _u32.pack(len(value))
                for item in value:
                    element_writer(item, out)
            return write_array

        def write_fixed_array(value, out, _n=fixed_length):
            if len(value) != _n:
                raise ValueError(
                    f"fixed array expects {_n} elements, got {len(value)}"
                )
            for item in value:
                element_writer(item, out)
        return write_fixed_array

    # ------------------------------------------------------------------
    # Reader compilation
    # ------------------------------------------------------------------
    def _reader_for(self, type_name: str) -> Callable:
        reader = self._readers.get(type_name)
        if reader is None:
            reader = self._compile_reader(type_name)
            self._readers[type_name] = reader
        return reader

    def _compile_reader(self, type_name: str) -> Callable:
        spec = self.registry.get(type_name)
        cls = generate_message_class(type_name, self.registry)
        steps = [
            (field.name, self._field_reader(field.type)) for field in spec.fields
        ]

        def read_message(view: memoryview, offset: int):
            msg = cls.__new__(cls)
            for name, step in steps:
                value, offset = step(view, offset)
                setattr(msg, name, value)
            return msg, offset

        self._readers[type_name] = read_message
        return read_message

    def _field_reader(self, ftype: FieldType) -> Callable:
        order = self.byte_order
        u32 = _U32[order]

        if isinstance(ftype, PrimitiveType):
            unpacker = struct.Struct(order + ftype.struct_fmt)
            size = unpacker.size
            if ftype.is_time:
                def read_time(view, offset, _u=unpacker, _s=size):
                    return _u.unpack_from(view, offset), offset + _s
                return read_time

            def read_prim(view, offset, _u=unpacker, _s=size):
                return _u.unpack_from(view, offset)[0], offset + _s
            return read_prim

        if isinstance(ftype, StringType):
            def read_string(view, offset, _u32=u32):
                (length,) = _u32.unpack_from(view, offset)
                offset += 4
                end = offset + length
                if end > len(view):
                    raise DeserializationError("string overruns buffer")
                return bytes(view[offset:end]).decode("utf-8"), end
            return read_string

        if isinstance(ftype, ArrayType):
            return self._array_reader(ftype)

        if isinstance(ftype, ComplexType):
            inner_name = ftype.name
            def read_nested(view, offset, _self=self, _name=inner_name):
                return _self._reader_for(_name)(view, offset)
            return read_nested

        if isinstance(ftype, MapType):
            key_reader = self._field_reader(ftype.key_type)
            value_reader = self._field_reader(ftype.value_type)
            def read_map(view, offset, _u32=u32):
                (count,) = _u32.unpack_from(view, offset)
                offset += 4
                result = {}
                for _ in range(count):
                    key, offset = key_reader(view, offset)
                    value, offset = value_reader(view, offset)
                    result[key] = value
                return result, offset
            return read_map

        raise TypeError(f"unknown field type {ftype!r}")

    def _array_reader(self, ftype: ArrayType) -> Callable:
        order = self.byte_order
        u32 = _U32[order]
        element = ftype.element_type
        fixed_length = ftype.length

        if isinstance(element, PrimitiveType) and element.name in _BYTE_ELEMENT_NAMES:
            if fixed_length is None:
                def read_bytes(view, offset, _u32=u32):
                    (length,) = _u32.unpack_from(view, offset)
                    offset += 4
                    end = offset + length
                    if end > len(view):
                        raise DeserializationError("byte array overruns buffer")
                    return bytearray(view[offset:end]), end
                return read_bytes

            def read_fixed_bytes(view, offset, _n=fixed_length):
                end = offset + _n
                if end > len(view):
                    raise DeserializationError("byte array overruns buffer")
                return bytearray(view[offset:end]), end
            return read_fixed_bytes

        if isinstance(element, PrimitiveType) and not element.is_time:
            fmt, size = element.struct_fmt, element.size
            if fixed_length is None:
                def read_prim_array(view, offset, _u32=u32, _fmt=fmt, _s=size, _o=order):
                    (count,) = _u32.unpack_from(view, offset)
                    offset += 4
                    end = offset + count * _s
                    if end > len(view):
                        raise DeserializationError("array overruns buffer")
                    values = list(
                        struct.unpack_from(f"{_o}{count}{_fmt}", view, offset)
                    )
                    return values, end
                return read_prim_array

            def read_fixed_prim_array(
                view, offset, _n=fixed_length, _fmt=fmt, _s=size, _o=order
            ):
                end = offset + _n * _s
                if end > len(view):
                    raise DeserializationError("array overruns buffer")
                values = list(struct.unpack_from(f"{_o}{_n}{_fmt}", view, offset))
                return values, end
            return read_fixed_prim_array

        element_reader = self._field_reader(element)
        if fixed_length is None:
            def read_array(view, offset, _u32=u32):
                (count,) = _u32.unpack_from(view, offset)
                offset += 4
                values = []
                for _ in range(count):
                    value, offset = element_reader(view, offset)
                    values.append(value)
                return values, offset
            return read_array

        def read_fixed_array(view, offset, _n=fixed_length):
            values = []
            for _ in range(_n):
                value, offset = element_reader(view, offset)
                values.append(value)
            return values, offset
        return read_fixed_array


#: Process-wide little-endian instance, shared by the middleware layer.
default_serializer = ROSSerializer(default_registry)
