"""The SFM message base class: transparent attribute access over a buffer.

An :class:`SFMMessage` *is* its serialized form: the instance holds a
reference to a :class:`~repro.sfm.manager.MessageRecord` whose buffer
contains the skeleton (fixed offsets, Section 4.1) followed by appended
content regions.  Field access is implemented with descriptors compiled
per message type by :mod:`repro.sfm.generator`, so ``img.height = 10`` and
``img.data[0]`` look exactly like plain message access -- the paper's
transparency property.

Roles of an instance:

- a **root message** (``_owns=True``): constructed by user code or adopted
  from a received buffer; releasing it informs the manager (the overloaded
  ``delete`` of Section 4.3.1).
- a **nested view** (``_owns=False``): a window at a fixed offset inside
  some root's buffer, created on attribute access; it holds no life-cycle
  reference.
"""

from __future__ import annotations

from typing import Optional

from repro.msg.generator import generate_message_class
from repro.sfm.layout import SkeletonLayout, convert_endianness
from repro.sfm.manager import (
    BufferPointer,
    MessageManager,
    MessageRecord,
    global_message_manager,
)
from repro.sfm.string import SfmString
from repro.sfm.vector import SfmFixedArray, SfmMap, SfmVector


class SFMMessage:
    """Base class of all SFM-generated message classes."""

    __slots__ = ("_record", "_base", "_path", "_owns", "__weakref__")

    # Set by the generator on each subclass:
    _layout: SkeletonLayout
    _manager: MessageManager = global_message_manager

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self, _capacity: Optional[int] = None,
                 _allow_growth: bool = False,
                 _manager: Optional[MessageManager] = None, **kwargs):
        manager = _manager or type(self)._manager
        record = manager.allocate(
            self._layout, capacity=_capacity, allow_growth=_allow_growth
        )
        object.__setattr__(self, "_record", record)
        object.__setattr__(self, "_base", 0)
        object.__setattr__(self, "_path", self._layout.type_name)
        object.__setattr__(self, "_owns", True)
        self._apply_optional_defaults()
        if kwargs:
            self._set_kwargs(kwargs)

    def _set_kwargs(self, kwargs: dict) -> None:
        """Apply constructor keyword arguments.  The codegen fast path
        (:mod:`repro.sfm.codegen`) overrides this with a compiled bulk
        setter; this generic version assigns one field at a time."""
        slot_by_name = self._layout.slot_by_name
        for name, value in kwargs.items():
            if name not in slot_by_name:
                raise TypeError(
                    f"{self._layout.type_name} has no field {name!r}"
                )
            setattr(self, name, value)

    def _apply_optional_defaults(self) -> None:
        """Optional fixed-size fields carry a user-defined default
        (Section 4.4.2); everything else defaults to zero, which the
        zero-filled buffer already provides.  Layouts precompute whether
        any default exists (recursively), so the common case is a single
        flag check instead of a walk that allocates a view per nested
        slot."""
        if not self._layout.has_optional_defaults:
            return
        for slot in self._layout.slots:
            if slot.field.optional and slot.field.default is not None:
                setattr(self, slot.name, slot.field.default)
            elif slot.kind == "nested" and slot.nested.has_optional_defaults:
                getattr(self, slot.name)._apply_optional_defaults()

    @classmethod
    def _view(cls, record: MessageRecord, base: int, path: str) -> "SFMMessage":
        """A nested (non-owning) view at ``base`` inside ``record``."""
        self = cls.__new__(cls)
        object.__setattr__(self, "_record", record)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_path", path)
        object.__setattr__(self, "_owns", False)
        return self

    @classmethod
    def from_buffer(cls, data, byte_order: str = "<", validate: bool = False,
                    _manager: Optional[MessageManager] = None) -> "SFMMessage":
        """Adopt a received wire buffer without copying (the dummy
        de-serialization routine of Section 4.3.1).

        ``byte_order`` is the publisher's byte order; when it differs from
        little-endian (this reproduction's native order) the buffer is
        converted in place once (Section 4.4.1).  With ``validate=True``
        the buffer's structural invariants are checked first (offsets and
        content regions in bounds), raising :class:`ValueError` on
        corruption -- useful at trust boundaries; skipped by default since
        the zero-validation adopt is the paper's performance point.
        """
        manager = _manager or cls._manager
        buffer = data if isinstance(data, bytearray) else bytearray(data)
        if byte_order != "<":
            convert_endianness(cls._layout, buffer, byte_order, "<")
        if validate:
            from repro.sfm.layout import validate_buffer

            try:
                validate_buffer(cls._layout, buffer, len(buffer))
            except Exception as exc:
                raise ValueError(
                    f"{cls._layout.type_name}: corrupt SFM buffer: {exc}"
                ) from exc
        record = manager.adopt(cls._layout, buffer, byte_order="<")
        self = cls._view(record, 0, cls._layout.type_name)
        object.__setattr__(self, "_owns", True)
        return self

    @classmethod
    def adopt_external(
        cls, view, _manager: Optional[MessageManager] = None
    ) -> "SFMMessage":
        """Adopt a *borrowed* read-only buffer -- a memoryview over a
        shared-memory slot -- with zero copies (the SHMROS receive path).

        Reads are served straight from the borrowed memory; the first
        field write, or the transport reclaiming the slot, copies the
        buffer out (:meth:`~repro.sfm.manager.MessageRecord.materialize`).
        """
        manager = _manager or cls._manager
        record = manager.adopt_external(cls._layout, view)
        self = cls._view(record, 0, cls._layout.type_name)
        object.__setattr__(self, "_owns", True)
        return self

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    def __del__(self):  # pragma: no cover - exercised indirectly
        try:
            if getattr(self, "_owns", False):
                self._record.manager.release_object(self._record)
        except Exception:
            pass

    def release(self) -> None:
        """Explicitly drop this object's life-cycle reference (the Python
        spelling of the developer's code releasing the message)."""
        if self._owns:
            object.__setattr__(self, "_owns", False)
            self._record.manager.release_object(self._record)

    @property
    def record(self) -> MessageRecord:
        return self._record

    @property
    def whole_size(self) -> int:
        """Current size of the whole message in bytes."""
        return self._record.size

    @property
    def is_root(self) -> bool:
        """True for a root message (owns the record), False for a nested
        view.  A nested first field also sits at offset 0, so the check
        compares the record's registered type as well."""
        return (
            self._base == 0
            and self._layout.type_name == self._record.type_name
        )

    def to_wire(self) -> memoryview:
        """The whole message as a zero-copy view -- this IS the serialized
        form; no serialization routine runs."""
        if not self.is_root:
            raise ValueError("to_wire() is only valid on a root message")
        return memoryview(self._record.buffer)[: self._record.size]

    def publish_pointer(self) -> BufferPointer:
        """Transition to Published and return the transport's counted
        buffer pointer (Fig. 8)."""
        if not self.is_root:
            raise ValueError("only root messages can be published")
        return self._record.manager.publish(self._record)

    # ------------------------------------------------------------------
    # Interop with plain messages
    # ------------------------------------------------------------------
    @classmethod
    def type_name(cls) -> str:
        return cls._layout.type_name

    @classmethod
    def md5sum(cls) -> str:
        registry = cls._registry  # set by the generator
        return registry.md5sum(cls._layout.type_name)

    def _copy_fields_from(self, other) -> None:
        """Field-wise copy from a plain message, SFM message or dict
        (the semantics of assigning to a nested message field)."""
        if isinstance(other, dict):
            for name, value in other.items():
                setattr(self, name, value)
            return
        for slot in self._layout.slots:
            setattr(self, slot.name, getattr(other, slot.name))

    def to_plain(self):
        """Copy out into the plain generated message class (for tests and
        for interop with code that mutates messages arbitrarily)."""
        registry = type(self)._registry
        plain_cls = generate_message_class(self._layout.type_name, registry)
        plain = plain_cls()
        for slot in self._layout.slots:
            setattr(plain, slot.name, _plain_value(getattr(self, slot.name)))
        return plain

    def copy(self) -> "SFMMessage":
        """The generated copy constructor (Section 4.3.1): asks the
        manager for the current whole size and copies the buffer."""
        if not self.is_root:
            raise ValueError("copy() is only valid on a root message")
        record = self._record
        clone = type(self)(
            _capacity=max(record.capacity, record.size),
            _allow_growth=record.allow_growth,
            _manager=record.manager,
        )
        clone_record = clone._record
        clone_record.buffer[: record.size] = record.buffer[: record.size]
        with record.manager._lock:
            clone_record.size = record.size
        return clone

    # ------------------------------------------------------------------
    # Equality / repr
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not hasattr(other, "_spec") and not isinstance(other, SFMMessage):
            return NotImplemented
        other_type = (
            other._layout.type_name
            if isinstance(other, SFMMessage)
            else other._spec.full_name
        )
        if other_type != self._layout.type_name:
            return NotImplemented
        for slot in self._layout.slots:
            if _plain_value(getattr(self, slot.name)) != _plain_value(
                getattr(other, slot.name)
            ):
                return False
        return True

    def __hash__(self):
        raise TypeError("SFM messages are unhashable")

    def __repr__(self) -> str:
        parts = []
        for slot in self._layout.slots:
            text = repr(getattr(self, slot.name))
            if len(text) > 48:
                text = text[:45] + "..."
            parts.append(f"{slot.name}={text}")
        return f"sfm::{type(self).__name__}({', '.join(parts)})"


def _plain_value(value):
    """Normalize a field value (view or plain) to a comparable/copyable
    plain Python value."""
    if isinstance(value, SfmString):
        return str(value)
    if isinstance(value, (SfmVector, SfmFixedArray)):
        if value._is_byte_vector():
            return bytearray(value.tobytes())
        return [_plain_value(item) for item in value]
    if isinstance(value, SfmMap):
        return {
            _plain_value(key): _plain_value(val) for key, val in value.items()
        }
    if isinstance(value, SFMMessage):
        return value.to_plain()
    if isinstance(value, memoryview):
        return bytearray(value)
    if isinstance(value, bytes):
        return bytearray(value)
    if isinstance(value, list):
        return [_plain_value(item) for item in value]
    return value
