"""A Protocol-Buffers-like wire format (the "ProtoBuf" bar of Fig. 14).

Implements the ProtoBuf wire encoding over our message specs:

- fields are numbered by declaration order (1-based),
- each value is preceded by a varint *tag* ``(field_number << 3) | wire_type``,
- wire types: 0 = varint, 1 = 64-bit, 5 = 32-bit, 2 = length-delimited,
- signed integers use ZigZag (``sint*`` flavour), bools/unsigned use plain
  varints, floats are fixed 32/64-bit,
- strings, byte arrays, nested messages and packed repeated primitives are
  length-delimited,
- zero-valued scalar fields are omitted (proto3 presence semantics) -- the
  "prefix encoding ... can potentially reduce the size of messages with
  small values" property the paper attributes to ProtoBuf, at the price of
  more (de)serialization work.

``time``/``duration`` are encoded as a length-delimited pair of varints.
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
from repro.msg.generator import default_for_type, generate_message_class
from repro.msg.registry import TypeRegistry
from repro.serialization.base import WireFormat

WIRETYPE_VARINT = 0
WIRETYPE_64BIT = 1
WIRETYPE_LENGTH = 2
WIRETYPE_32BIT = 5


class ProtoBufDecodeError(ValueError):
    """Raised when a buffer is not a valid encoding of the type."""


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned; zigzag-encode first")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(view, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(view):
            raise ProtoBufDecodeError("truncated varint")
        byte = view[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ProtoBufDecodeError("varint too long")


def zigzag_encode(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _tag(field_number: int, wire_type: int) -> int:
    return (field_number << 3) | wire_type


class ProtoBufFormat(WireFormat):
    """Compiled ProtoBuf-style serializer/deserializer for message specs."""

    name = "ProtoBuf"
    serialization_free = False

    def __init__(self, registry: Optional[TypeRegistry] = None) -> None:
        super().__init__(registry)
        self._writers: dict[str, Callable] = {}
        self._readers: dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def serialize(self, msg) -> bytes:
        out = bytearray()
        self._writer_for(msg._spec.full_name)(msg, out)
        return bytes(out)

    def deserialize(self, type_name: str, buffer):
        view = memoryview(buffer)
        try:
            value, offset = self._reader_for(type_name)(view, 0, len(view))
        except (struct.error, UnicodeDecodeError, IndexError,
                OverflowError) as exc:
            raise ProtoBufDecodeError(f"{type_name}: {exc}") from exc
        if offset != len(view):
            raise ProtoBufDecodeError(f"{len(view) - offset} trailing bytes")
        return value

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def _writer_for(self, type_name: str) -> Callable:
        writer = self._writers.get(type_name)
        if writer is None:
            writer = self._compile_writer(type_name)
        return writer

    def _compile_writer(self, type_name: str) -> Callable:
        spec = self.registry.get(type_name)
        steps = [
            self._field_writer(number, field.type)
            for number, field in enumerate(spec.fields, start=1)
        ]

        def write_message(msg, out: bytearray) -> None:
            for name, step in zip(spec.field_names(), steps):
                step(getattr(msg, name), out)

        self._writers[type_name] = write_message
        return write_message

    def _field_writer(self, number: int, ftype: FieldType) -> Callable:
        if isinstance(ftype, PrimitiveType):
            return self._prim_writer(number, ftype)
        if isinstance(ftype, StringType):
            tag = _tag(number, WIRETYPE_LENGTH)

            def write_string(value, out):
                data = value.encode("utf-8") if isinstance(value, str) else bytes(value)
                if not data:
                    return
                write_varint(out, tag)
                write_varint(out, len(data))
                out += data

            return write_string
        if isinstance(ftype, ArrayType):
            return self._array_writer(number, ftype)
        if isinstance(ftype, ComplexType):
            tag = _tag(number, WIRETYPE_LENGTH)
            inner = ftype.name

            def write_nested(value, out, _self=self, _inner=inner):
                body = bytearray()
                _self._writer_for(_inner)(value, body)
                if not body:
                    return  # all-default nested message omitted
                write_varint(out, tag)
                write_varint(out, len(body))
                out += body

            return write_nested
        if isinstance(ftype, MapType):
            tag = _tag(number, WIRETYPE_LENGTH)
            key_writer = self._field_writer(1, ftype.key_type)
            value_writer = self._field_writer(2, ftype.value_type)

            def write_map(value, out):
                for k, v in value.items():
                    entry = bytearray()
                    key_writer(k, entry)
                    value_writer(v, entry)
                    write_varint(out, tag)
                    write_varint(out, len(entry))
                    out += entry

            return write_map
        raise TypeError(f"unknown field type {ftype!r}")

    def _prim_writer(self, number: int, prim: PrimitiveType) -> Callable:
        if prim.is_time:
            tag = _tag(number, WIRETYPE_LENGTH)

            def write_time(value, out):
                secs, nsecs = value
                if not secs and not nsecs:
                    return
                body = bytearray()
                write_varint(body, zigzag_encode(int(secs)))
                write_varint(body, zigzag_encode(int(nsecs)))
                write_varint(out, tag)
                write_varint(out, len(body))
                out += body

            return write_time
        if prim.struct_fmt == "f":
            tag = _tag(number, WIRETYPE_32BIT)
            packer = struct.Struct("<f")

            def write_f32(value, out):
                if value == 0.0:
                    return
                write_varint(out, tag)
                out += packer.pack(value)

            return write_f32
        if prim.struct_fmt == "d":
            tag = _tag(number, WIRETYPE_64BIT)
            packer = struct.Struct("<d")

            def write_f64(value, out):
                if value == 0.0:
                    return
                write_varint(out, tag)
                out += packer.pack(value)

            return write_f64
        tag = _tag(number, WIRETYPE_VARINT)
        signed = prim.struct_fmt.islower() and prim.struct_fmt != "d"

        def write_int(value, out, _signed=signed):
            value = int(value)
            if value == 0:
                return
            write_varint(out, tag)
            write_varint(out, zigzag_encode(value) if _signed else value)

        return write_int

    def _array_writer(self, number: int, ftype: ArrayType) -> Callable:
        element = ftype.element_type
        tag = _tag(number, WIRETYPE_LENGTH)
        if isinstance(element, PrimitiveType) and element.name in ("uint8", "char"):
            def write_bytes(value, out):
                data = bytes(value)
                if not data:
                    return
                write_varint(out, tag)
                write_varint(out, len(data))
                out += data

            return write_bytes
        if isinstance(element, PrimitiveType) and not element.is_time:
            # Packed repeated scalars.
            if element.struct_fmt in ("f", "d"):
                packer = struct.Struct("<" + element.struct_fmt)

                def write_packed_float(value, out, _p=packer):
                    values = list(value)
                    if not values:
                        return
                    body = bytearray()
                    for item in values:
                        body += _p.pack(item)
                    write_varint(out, tag)
                    write_varint(out, len(body))
                    out += body

                return write_packed_float
            signed = element.struct_fmt.islower()

            def write_packed_int(value, out, _signed=signed):
                values = list(value)
                if not values:
                    return
                body = bytearray()
                for item in values:
                    item = int(item)
                    write_varint(body, zigzag_encode(item) if _signed else item)
                write_varint(out, tag)
                write_varint(out, len(body))
                out += body

            return write_packed_int
        # Repeated messages/strings: one tagged entry per element.  A
        # complex/string field writer omits empty values; repeated fields
        # must keep them to preserve element count, so these never skip.
        if isinstance(element, ComplexType):
            inner = element.name

            def write_repeated_msgs(value, out, _self=self, _inner=inner):
                for item in value:
                    body = bytearray()
                    _self._writer_for(_inner)(item, body)
                    write_varint(out, tag)
                    write_varint(out, len(body))
                    out += body

            return write_repeated_msgs
        if isinstance(element, StringType):
            def write_repeated_strings(value, out):
                for item in value:
                    data = (
                        item.encode("utf-8") if isinstance(item, str) else bytes(item)
                    )
                    write_varint(out, tag)
                    write_varint(out, len(data))
                    out += data

            return write_repeated_strings
        raise TypeError(f"unsupported array element {element!r}")

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def _reader_for(self, type_name: str) -> Callable:
        reader = self._readers.get(type_name)
        if reader is None:
            reader = self._compile_reader(type_name)
        return reader

    def _compile_reader(self, type_name: str) -> Callable:
        spec = self.registry.get(type_name)
        cls = generate_message_class(type_name, self.registry)
        handlers = {
            number: (field.name, self._field_reader(field.type))
            for number, field in enumerate(spec.fields, start=1)
        }
        defaults = [
            (field.name, field, field.type) for field in spec.fields
        ]
        registry = self.registry

        def read_message(view, offset: int, end: int):
            msg = cls.__new__(cls)
            seen: set[str] = set()
            while offset < end:
                tag, offset = read_varint(view, offset)
                number, wire_type = tag >> 3, tag & 0x7
                entry = handlers.get(number)
                if entry is None:
                    offset = _skip(view, offset, wire_type)
                    continue
                name, handler = entry
                value, offset = handler(view, offset, wire_type, end)
                if name in seen and isinstance(value, list):
                    getattr(msg, name).extend(value)
                elif name in seen and isinstance(value, dict):
                    getattr(msg, name).update(value)
                else:
                    setattr(msg, name, value)
                    seen.add(name)
            for name, field, ftype in defaults:
                if name not in seen:
                    setattr(
                        msg,
                        name,
                        field.default
                        if field.optional and field.default is not None
                        else default_for_type(ftype, registry),
                    )
            return msg, offset

        self._readers[type_name] = read_message
        return read_message

    def _field_reader(self, ftype: FieldType) -> Callable:
        if isinstance(ftype, PrimitiveType):
            return self._prim_reader(ftype)
        if isinstance(ftype, StringType):
            def read_string(view, offset, wire_type, end):
                data, offset = _read_length_delimited(view, offset)
                return bytes(data).decode("utf-8"), offset

            return read_string
        if isinstance(ftype, ArrayType):
            return self._array_reader(ftype)
        if isinstance(ftype, ComplexType):
            inner = ftype.name

            def read_nested(view, offset, wire_type, end, _self=self, _inner=inner):
                data, offset = _read_length_delimited(view, offset)
                inner_view = memoryview(data)
                value, _ = _self._reader_for(_inner)(inner_view, 0, len(inner_view))
                return value, offset

            return read_nested
        if isinstance(ftype, MapType):
            key_reader = self._field_reader(ftype.key_type)
            value_reader = self._field_reader(ftype.value_type)
            key_default = ftype.key_type.default_value()
            value_default = ftype.value_type.default_value()

            def read_map(view, offset, wire_type, end):
                data, offset = _read_length_delimited(view, offset)
                entry_view = memoryview(data)
                pos, entry_end = 0, len(entry_view)
                key, value = key_default, value_default
                while pos < entry_end:
                    tag, pos = read_varint(entry_view, pos)
                    number, wt = tag >> 3, tag & 0x7
                    if number == 1:
                        key, pos = key_reader(entry_view, pos, wt, entry_end)
                    elif number == 2:
                        value, pos = value_reader(entry_view, pos, wt, entry_end)
                    else:
                        pos = _skip(entry_view, pos, wt)
                return {key: value}, offset

            return read_map
        raise TypeError(f"unknown field type {ftype!r}")

    def _prim_reader(self, prim: PrimitiveType) -> Callable:
        if prim.is_time:
            def read_time(view, offset, wire_type, end):
                data, offset = _read_length_delimited(view, offset)
                inner = memoryview(data)
                secs, pos = read_varint(inner, 0)
                nsecs, _ = read_varint(inner, pos)
                return (zigzag_decode(secs), zigzag_decode(nsecs)), offset

            return read_time
        if prim.struct_fmt == "f":
            unpacker = struct.Struct("<f")

            def read_f32(view, offset, wire_type, end, _u=unpacker):
                return _u.unpack_from(view, offset)[0], offset + 4

            return read_f32
        if prim.struct_fmt == "d":
            unpacker = struct.Struct("<d")

            def read_f64(view, offset, wire_type, end, _u=unpacker):
                return _u.unpack_from(view, offset)[0], offset + 8

            return read_f64
        signed = prim.struct_fmt.islower()
        is_bool = prim.struct_fmt == "?"

        def read_int(view, offset, wire_type, end, _signed=signed, _bool=is_bool):
            raw, offset = read_varint(view, offset)
            value = zigzag_decode(raw) if _signed else raw
            return (bool(value) if _bool else value), offset

        return read_int

    def _array_reader(self, ftype: ArrayType) -> Callable:
        element = ftype.element_type
        if isinstance(element, PrimitiveType) and element.name in ("uint8", "char"):
            def read_bytes(view, offset, wire_type, end):
                data, offset = _read_length_delimited(view, offset)
                return bytearray(data), offset

            return read_bytes
        if isinstance(element, PrimitiveType) and not element.is_time:
            if element.struct_fmt in ("f", "d"):
                size = element.size
                fmt = element.struct_fmt

                def read_packed_float(view, offset, wire_type, end):
                    data, offset = _read_length_delimited(view, offset)
                    count = len(data) // size
                    return (
                        list(struct.unpack(f"<{count}{fmt}", bytes(data))),
                        offset,
                    )

                return read_packed_float
            signed = element.struct_fmt.islower()

            def read_packed_int(view, offset, wire_type, end, _signed=signed):
                data, offset = _read_length_delimited(view, offset)
                inner = memoryview(data)
                values, pos = [], 0
                while pos < len(inner):
                    raw, pos = read_varint(inner, pos)
                    values.append(zigzag_decode(raw) if _signed else raw)
                return values, offset

            return read_packed_int
        if isinstance(element, ComplexType):
            inner = element.name

            def read_repeated_msg(view, offset, wire_type, end, _self=self):
                data, offset = _read_length_delimited(view, offset)
                inner_view = memoryview(data)
                value, _ = _self._reader_for(inner)(inner_view, 0, len(inner_view))
                return [value], offset

            return read_repeated_msg
        if isinstance(element, StringType):
            def read_repeated_string(view, offset, wire_type, end):
                data, offset = _read_length_delimited(view, offset)
                return [bytes(data).decode("utf-8")], offset

            return read_repeated_string
        raise TypeError(f"unsupported array element {element!r}")


def _read_length_delimited(view, offset: int) -> tuple[memoryview, int]:
    length, offset = read_varint(view, offset)
    end = offset + length
    if end > len(view):
        raise ProtoBufDecodeError("length-delimited field overruns buffer")
    return view[offset:end], end


def _skip(view, offset: int, wire_type: int) -> int:
    if wire_type == WIRETYPE_VARINT:
        _, offset = read_varint(view, offset)
        return offset
    if wire_type == WIRETYPE_64BIT:
        return offset + 8
    if wire_type == WIRETYPE_32BIT:
        return offset + 4
    if wire_type == WIRETYPE_LENGTH:
        _, offset = _read_length_delimited(view, offset)
        return offset
    raise ProtoBufDecodeError(f"unknown wire type {wire_type}")
