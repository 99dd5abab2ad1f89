"""The SFM Generator: message specs to serialization-free classes.

This is the analogue of the paper's Section 4.3.1 generator (built on
genmsg): for every message type it emits a class whose instances are laid
out per the SFM format and whose fields are plain attributes.  The pieces
the C++ generator implements with overloaded operators map as follows:

- overloaded global ``new``/``delete``  ->  allocation/adoption through
  the message manager in ``SFMMessage.__init__`` / ``__del__``;
- copy constructor and ``operator=``    ->  ``SFMMessage.copy()`` and
  nested-field assignment (field-wise copy);
- overloaded ROS serialization routine  ->  ``SFMMessage.to_wire()`` /
  ``publish_pointer()`` (no serialization; a buffer-pointer copy);
- overloaded de-serialization routine   ->  ``SFMMessage.from_buffer()``
  (adopt; no copy).

Field access is compiled into descriptors with precompiled
:mod:`struct` packers, so reads and writes touch the buffer directly at
the slot's fixed offset -- the C++-struct-like access of Section 4.1.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.msg.registry import TypeRegistry, default_registry
from repro.sfm import codegen as _codegen
from repro.sfm.layout import Slot, cached_struct, layout_for
from repro.sfm.message import SFMMessage
from repro.sfm.string import SfmString
from repro.sfm.vector import SfmFixedArray, SfmMap, SfmVector


class _PrimitiveField:
    """Descriptor for a fixed-size primitive field."""

    __slots__ = ("offset", "packer", "name")

    def __init__(self, slot: Slot) -> None:
        self.offset = slot.offset
        self.packer = cached_struct("<" + slot.prim.type.struct_fmt)
        self.name = slot.name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.packer.unpack_from(obj._record.buffer, obj._base + self.offset)[0]

    def __set__(self, obj, value) -> None:
        self.packer.pack_into(
            obj._record.writable(), obj._base + self.offset, value
        )


class _TimeField:
    """Descriptor for ``time``/``duration`` fields ((secs, nsecs) pairs)."""

    __slots__ = ("offset", "packer", "name")

    def __init__(self, slot: Slot) -> None:
        self.offset = slot.offset
        self.packer = cached_struct("<" + slot.prim.type.struct_fmt)
        self.name = slot.name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.packer.unpack_from(obj._record.buffer, obj._base + self.offset)

    def __set__(self, obj, value) -> None:
        secs, nsecs = value
        self.packer.pack_into(
            obj._record.writable(), obj._base + self.offset, secs, nsecs
        )


class _StringField:
    """Descriptor for ``string`` fields (one-shot assignment)."""

    __slots__ = ("offset", "name")

    def __init__(self, slot: Slot) -> None:
        self.offset = slot.offset
        self.name = slot.name

    def _sfm_view(self, obj) -> SfmString:
        return SfmString(
            obj._record.manager,
            obj._record,
            obj._base + self.offset,
            f"{obj._path}.{self.name}",
        )

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._sfm_view(obj)

    def __set__(self, obj, value) -> None:
        self._sfm_view(obj)._assign(value)


class _VectorField:
    """Descriptor for variable-length vector fields (one-shot resize)."""

    __slots__ = ("offset", "element", "name")

    def __init__(self, slot: Slot) -> None:
        self.offset = slot.offset
        self.element = slot.element
        self.name = slot.name

    def _sfm_view(self, obj) -> SfmVector:
        return SfmVector(
            obj._record.manager,
            obj._record,
            obj._base + self.offset,
            self.element,
            f"{obj._path}.{self.name}",
        )

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._sfm_view(obj)

    def __set__(self, obj, value) -> None:
        self._sfm_view(obj)._assign(value)


class _MapField:
    """Descriptor for ``map`` fields (Section 4.4.2 extension)."""

    __slots__ = ("offset", "element", "name")

    def __init__(self, slot: Slot) -> None:
        self.offset = slot.offset
        self.element = slot.element
        self.name = slot.name

    def _sfm_view(self, obj) -> SfmMap:
        return SfmMap(
            obj._record.manager,
            obj._record,
            obj._base + self.offset,
            self.element,
            f"{obj._path}.{self.name}",
        )

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._sfm_view(obj)

    def __set__(self, obj, value) -> None:
        self._sfm_view(obj)._assign(value)


class _FixedArrayField:
    """Descriptor for fixed-length array fields ``T[N]``."""

    __slots__ = ("offset", "element", "length", "name")

    def __init__(self, slot: Slot) -> None:
        self.offset = slot.offset
        self.element = slot.element
        self.length = slot.fixed_length
        self.name = slot.name

    def _sfm_view(self, obj) -> SfmFixedArray:
        return SfmFixedArray(
            obj._record.manager,
            obj._record,
            obj._base + self.offset,
            self.element,
            f"{obj._path}.{self.name}",
            self.length,
        )

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._sfm_view(obj)

    def __set__(self, obj, value) -> None:
        self._sfm_view(obj)._assign(value)


class _NestedField:
    """Descriptor for nested message fields."""

    __slots__ = ("offset", "type_name", "registry", "name", "codegen", "_cls")

    def __init__(
        self, slot: Slot, registry: TypeRegistry, codegen: bool = False
    ) -> None:
        self.offset = slot.offset
        self.type_name = slot.nested.type_name
        self.registry = registry
        self.name = slot.name
        self.codegen = codegen
        self._cls = None

    def _nested_class(self):
        if self._cls is None:
            self._cls = generate_sfm_class(
                self.type_name, self.registry, codegen=self.codegen
            )
        return self._cls

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._nested_class()._view(
            obj._record, obj._base + self.offset, f"{obj._path}.{self.name}"
        )

    def __set__(self, obj, value) -> None:
        self.__get__(obj)._copy_fields_from(value)


def _descriptor_for(slot: Slot, registry: TypeRegistry, codegen: bool = False):
    if slot.kind == "primitive":
        if slot.prim.is_time or slot.prim.type.struct_fmt in ("II", "ii"):
            return _TimeField(slot)
        return _PrimitiveField(slot)
    if slot.kind == "string":
        return _StringField(slot)
    if slot.kind == "vector":
        if slot.is_map:
            return _MapField(slot)
        return _VectorField(slot)
    if slot.kind == "fixed_array":
        return _FixedArrayField(slot)
    if slot.kind == "nested":
        return _NestedField(slot, registry, codegen)
    raise AssertionError(slot.kind)  # pragma: no cover - exhaustive


_cache_lock = threading.Lock()
_class_cache: dict[tuple[int, str, bool], type] = {}


def _routed_view(cls, record, base: int, path: str):
    """``_view`` override for codegen root classes: a view at a non-zero
    base cannot use accessors with literal indices, so it is built from
    the sibling view class (descriptor accessors)."""
    if base:
        cls = cls._ViewCls
    self = cls.__new__(cls)
    object.__setattr__(self, "_record", record)
    object.__setattr__(self, "_base", base)
    object.__setattr__(self, "_path", path)
    object.__setattr__(self, "_owns", False)
    return self


def generate_sfm_class(
    full_name: str,
    registry: Optional[TypeRegistry] = None,
    codegen: Optional[bool] = None,
) -> type:
    """Return (generating and caching on first use) the SFM message class
    for ``full_name``.

    ``codegen`` selects the accessor strategy: compiled per-type accessors
    (:mod:`repro.sfm.codegen`) or the generic descriptors.  ``None`` (the
    default) picks the compiled accessors wherever the host's byte order
    allows them (:func:`repro.sfm.codegen.codegen_enabled`).  Both
    flavors are cached independently so the parity suite can hold classes
    of each in one process.
    """
    registry = registry or default_registry
    if codegen is None:
        codegen = _codegen.codegen_enabled()
    codegen = bool(codegen)
    key = (id(registry), full_name, codegen)
    with _cache_lock:
        cls = _class_cache.get(key)
    if cls is not None:
        return cls
    layout = layout_for(full_name, registry)
    spec = layout.spec
    namespace: dict[str, object] = {
        "__slots__": (),
        "_layout": layout,
        "_spec": spec,
        "_registry": registry,
        "__module__": "repro.sfm.generated",
        "__qualname__": spec.short_name,
        "__doc__": (
            f"SFM (serialization-free) message class for {spec.full_name}; "
            f"skeleton {layout.skeleton_size} bytes, capacity "
            f"{layout.capacity} bytes."
        ),
    }
    for const in spec.constants:
        namespace[const.name] = const.value
    for slot in layout.slots:
        namespace[slot.name] = _descriptor_for(slot, registry, codegen)
    if codegen:
        compiled = _codegen.build_scalar_accessors(layout)
        namespace.update(compiled)
        namespace["_set_kwargs"] = _codegen.make_set_kwargs(layout)
        namespace["_view"] = classmethod(_routed_view)
        cls = type(spec.short_name, (SFMMessage,), namespace)
        # Sibling view class for nested (non-zero base) instances: the
        # generic descriptors handle per-instance base offsets.
        view_namespace: dict[str, object] = {"__slots__": ()}
        for slot in layout.slots:
            if slot.name in compiled:
                view_namespace[slot.name] = _descriptor_for(
                    slot, registry, codegen
                )
        view_cls = type(spec.short_name, (cls,), view_namespace)
        cls._ViewCls = view_cls
        view_cls._ViewCls = view_cls
    else:
        cls = type(spec.short_name, (SFMMessage,), namespace)
    with _cache_lock:
        cls = _class_cache.setdefault(key, cls)
    return cls


def sfm_class_for(full_name: str, registry: Optional[TypeRegistry] = None) -> type:
    """Alias of :func:`generate_sfm_class` used by nested views."""
    return generate_sfm_class(full_name, registry)
