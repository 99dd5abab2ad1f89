"""A FlatBuffer-like format (the "FlatBuf" bar of Fig. 14).

Reproduces the layout of the paper's Fig. 6:

- the buffer starts with a 32-bit absolute offset to the *root table*;
- a *vtable* precedes each table: ``u16 vtable_size``, ``u16 inline_size``,
  then one ``u16`` per field giving its offset from the table start
  (0 = field absent, default value applies);
- a *table* starts with an ``i32`` back-offset to its vtable, followed by
  inline data: scalars in place, reference fields as ``u32`` forward
  offsets (from the slot) to heap data;
- heap data: strings are ``u32 length + bytes + NUL``, scalar vectors are
  ``u32 count + packed values``, table vectors are ``u32 count`` plus one
  forward offset per element, nested messages are tables.

As the paper notes (Section 3.3), values "can only be found indirectly
from the vtable", so access requires interfaces -- reproduced by
:class:`TableView` -- and construction requires a *Builder*
(:class:`FlatBufferBuilder`), which is exactly the transparency cost
ROS-SF avoids.  The zero-copy :meth:`FlatBufferFormat.wrap` makes this the
serialization-free comparator in the Fig. 14 harness.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.msg.fields import (
    ArrayType,
    ComplexType,
    MapType,
    PrimitiveType,
    StringType,
)
from repro.msg.generator import default_for_type, generate_message_class
from repro.msg.idl import MessageSpec
from repro.msg.registry import TypeRegistry
from repro.serialization.base import WireFormat

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")

_BYTE_NAMES = ("uint8", "char")


def _slot_size(ftype) -> int:
    """Inline size of one table slot."""
    if isinstance(ftype, PrimitiveType):
        return 8 if ftype.is_time else ftype.size
    return 4  # reference slot


class FlatBufferBuildError(ValueError):
    """Raised on unsupported constructs or bad builder usage."""


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
class FlatBufferBuilder:
    """Builder-pattern message construction (the paper's Fig. 4 style).

    Usage::

        builder = FlatBufferBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("encoding", "rgb8")
        builder.add("height", 10)
        builder.add("width", 10)
        builder.add("data", bytes(300))
        wire = builder.finish()
    """

    def __init__(self, registry: TypeRegistry, type_name: str) -> None:
        self.registry = registry
        self.spec = registry.get(type_name)
        self._values: dict[str, object] = {}
        self._finished: Optional[bytes] = None

    def add(self, field_name: str, value) -> "FlatBufferBuilder":
        if self._finished is not None:
            raise FlatBufferBuildError("builder already finished")
        self.spec.field(field_name)  # raises KeyError on bad names
        self._values[field_name] = value
        return self

    # The FlatData/FlatBuffer-flavoured spellings used in the paper's
    # program patterns:
    build_string = add
    create_vector = add
    add_scalar = add

    def finish(self) -> bytes:
        """Emit the wire buffer (``finish_sample`` in the Fig. 4 API)."""
        if self._finished is None:
            blob, table_offset = _emit_table(
                self.registry, self.spec, self._values
            )
            out = bytearray()
            out += _U32.pack(4 + table_offset)  # absolute root table offset
            out += blob
            self._finished = bytes(out)
        return self._finished


def _emit_table(
    registry: TypeRegistry, spec: MessageSpec, values
) -> tuple[bytes, int]:
    """Emit ``[vtable][table][heap]`` for one table; all internal offsets
    are relative, so the blob can be embedded anywhere.  Returns the blob
    and the table's offset within it (i.e. the vtable size)."""
    fields = spec.fields
    vtable_size = 4 + 2 * len(fields)

    # Assign inline slots.
    slot_offsets: list[int] = []
    inline_cursor = 4  # after the i32 back-offset
    for field in fields:
        slot_offsets.append(inline_cursor)
        inline_cursor += _slot_size(field.type)
    inline_size = inline_cursor
    table_start = vtable_size
    heap_start = table_start + inline_size

    vtable = bytearray()
    vtable += _U16.pack(vtable_size)
    vtable += _U16.pack(inline_size)
    for slot in slot_offsets:
        vtable += _U16.pack(slot)

    table = bytearray(inline_size)
    _I32.pack_into(table, 0, table_start)  # back-offset: vtable = table - value

    heap = bytearray()
    for field, slot in zip(fields, slot_offsets):
        value = _value_of(values, field, registry)
        ftype = field.type
        abs_slot = table_start + slot
        if isinstance(ftype, PrimitiveType):
            _pack_scalar(table, slot, ftype, value)
            continue
        blob_start = heap_start + len(heap)
        entry, target_offset = _emit_heap_entry(registry, ftype, value, blob_start)
        _U32.pack_into(table, slot, blob_start + target_offset - abs_slot)
        heap += entry
    return bytes(vtable + table + heap), table_start


def _value_of(values, field, registry):
    if isinstance(values, dict):
        if field.name in values:
            return values[field.name]
        return default_for_type(field.type, registry)
    return getattr(values, field.name)


def _pack_scalar(table: bytearray, slot: int, prim: PrimitiveType, value) -> None:
    if prim.is_time:
        secs, nsecs = value
        struct.pack_into("<" + prim.struct_fmt, table, slot, secs, nsecs)
    else:
        struct.pack_into("<" + prim.struct_fmt, table, slot, value)


def _emit_heap_entry(registry, ftype, value, base: int) -> tuple[bytes, int]:
    """Emit heap bytes for one reference field whose blob starts at
    ``base``.  Returns ``(blob, target_offset)`` where the slot's forward
    offset must point to ``base + target_offset`` (tables are referenced
    at their table position, past their vtable)."""
    if isinstance(ftype, StringType):
        data = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        body = bytearray(_U32.pack(len(data)))
        body += data
        body += b"\x00"
        while len(body) % 4:
            body += b"\x00"
        return bytes(body), 0
    if isinstance(ftype, ComplexType):
        nested_spec = registry.get(ftype.name)
        return _emit_table(registry, nested_spec, value)
    if isinstance(ftype, ArrayType):
        return _emit_vector(registry, ftype, value, base), 0
    if isinstance(ftype, MapType):
        raise FlatBufferBuildError("map fields are not supported by FlatBuffer mode")
    raise FlatBufferBuildError(f"unsupported heap field type {ftype!r}")


def _emit_vector(registry, ftype: ArrayType, value, base: int) -> bytes:
    element = ftype.element_type
    if isinstance(element, PrimitiveType) and element.name in _BYTE_NAMES:
        data = bytes(value)
        body = bytearray(_U32.pack(len(data)))
        body += data
        while len(body) % 4:
            body += b"\x00"
        return bytes(body)
    if isinstance(element, PrimitiveType) and not element.is_time:
        items = list(value)
        body = bytearray(_U32.pack(len(items)))
        if items:
            body += struct.pack(f"<{len(items)}{element.struct_fmt}", *items)
        while len(body) % 4:
            body += b"\x00"
        return bytes(body)
    if isinstance(element, (ComplexType, StringType)):
        items = list(value)
        count = len(items)
        header = bytearray(_U32.pack(count))
        offsets_pos = base + 4
        blobs: list[bytes] = []
        offsets = bytearray()
        cursor = offsets_pos + 4 * count  # heap area after the offset array
        for index, item in enumerate(items):
            slot_pos = offsets_pos + 4 * index
            if isinstance(element, StringType):
                blob, target_offset = _emit_heap_entry(
                    registry, element, item, cursor
                )
            else:
                blob, target_offset = _emit_table(
                    registry, registry.get(element.name), item
                )
            offsets += _U32.pack(cursor + target_offset - slot_pos)
            blobs.append(blob)
            cursor += len(blob)
        return bytes(header + offsets + b"".join(blobs))
    raise FlatBufferBuildError(f"unsupported vector element {element!r}")


# ----------------------------------------------------------------------
# Zero-copy access
# ----------------------------------------------------------------------
class TableView:
    """Zero-copy accessor over a FlatBuffer table.

    Fields are read through the vtable indirection the paper describes:
    ``view.get("height")`` resolves the slot from the vtable, then reads
    the inline value or follows the forward offset.
    """

    __slots__ = ("registry", "spec", "buffer", "table_pos", "_field_index")

    def __init__(self, registry: TypeRegistry, spec: MessageSpec, buffer,
                 table_pos: int) -> None:
        self.registry = registry
        self.spec = spec
        self.buffer = buffer
        self.table_pos = table_pos
        self._field_index = {f.name: i for i, f in enumerate(spec.fields)}

    @classmethod
    def root(cls, registry: TypeRegistry, type_name: str, buffer) -> "TableView":
        (table_pos,) = _U32.unpack_from(buffer, 0)
        return cls(registry, registry.get(type_name), buffer, table_pos)

    def _slot(self, index: int) -> int:
        (back,) = _I32.unpack_from(self.buffer, self.table_pos)
        vtable_pos = self.table_pos - back
        (slot,) = _U16.unpack_from(self.buffer, vtable_pos + 4 + 2 * index)
        return slot

    def get(self, name: str):
        index = self._field_index[name]
        field = self.spec.fields[index]
        slot = self._slot(index)
        if slot == 0:
            return default_for_type(field.type, self.registry)
        pos = self.table_pos + slot
        ftype = field.type
        if isinstance(ftype, PrimitiveType):
            values = struct.unpack_from("<" + ftype.struct_fmt, self.buffer, pos)
            return values if ftype.is_time else values[0]
        (rel,) = _U32.unpack_from(self.buffer, pos)
        target = pos + rel
        if isinstance(ftype, StringType):
            return self._read_string(target)
        if isinstance(ftype, ComplexType):
            return TableView(
                self.registry, self.registry.get(ftype.name), self.buffer, target
            )
        if isinstance(ftype, ArrayType):
            return self._read_vector(ftype, target)
        raise FlatBufferBuildError(f"unsupported field type {ftype!r}")

    def _read_string(self, pos: int) -> str:
        (length,) = _U32.unpack_from(self.buffer, pos)
        return bytes(self.buffer[pos + 4 : pos + 4 + length]).decode("utf-8")

    def _read_vector(self, ftype: ArrayType, pos: int):
        element = ftype.element_type
        (count,) = _U32.unpack_from(self.buffer, pos)
        if isinstance(element, PrimitiveType) and element.name in _BYTE_NAMES:
            return memoryview(self.buffer)[pos + 4 : pos + 4 + count]
        if isinstance(element, PrimitiveType) and not element.is_time:
            return list(
                struct.unpack_from(f"<{count}{element.struct_fmt}", self.buffer, pos + 4)
            )
        items = []
        for index in range(count):
            slot_pos = pos + 4 + 4 * index
            (rel,) = _U32.unpack_from(self.buffer, slot_pos)
            target = slot_pos + rel
            if isinstance(element, StringType):
                items.append(self._read_string(target))
            else:
                items.append(
                    TableView(
                        self.registry,
                        self.registry.get(element.name),
                        self.buffer,
                        target,
                    )
                )
        return items

    def to_plain(self):
        """Copy out into the plain generated message class."""
        cls = generate_message_class(self.spec.full_name, self.registry)
        msg = cls.__new__(cls)
        for field in self.spec.fields:
            value = self.get(field.name)
            setattr(msg, field.name, _plainify(value))
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TableView {self.spec.full_name} @{self.table_pos}>"


def _plainify(value):
    if isinstance(value, TableView):
        return value.to_plain()
    if isinstance(value, memoryview):
        return bytearray(value)
    if isinstance(value, list):
        return [_plainify(item) for item in value]
    return value


class FlatBufferFormat(WireFormat):
    """WireFormat adapter: build on serialize, vtable view on wrap."""

    name = "FlatBuf"
    serialization_free = True

    def serialize(self, msg) -> bytes:
        builder = FlatBufferBuilder(self.registry, msg._spec.full_name)
        for field in msg._spec.fields:
            builder.add(field.name, getattr(msg, field.name))
        return builder.finish()

    def deserialize(self, type_name: str, buffer):
        return TableView.root(self.registry, type_name, buffer).to_plain()

    def wrap(self, type_name: str, buffer) -> TableView:
        return TableView.root(self.registry, type_name, buffer)

    def builder(self, type_name: str) -> FlatBufferBuilder:
        return FlatBufferBuilder(self.registry, type_name)
