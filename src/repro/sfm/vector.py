"""``sfm::vector``: vector, fixed-array and map views over an SFM buffer.

The skeleton of a vector field is two 32-bit integers: the element count
and the offset from the offset integer's own address to the elements.
Elements are stored contiguously; when the element type is a nested
message only its (fixed-size) skeleton is stored per element, so elements
can be indexed like a C array (paper Section 4.1).

The views enforce the paper's assumptions (Section 4.3.3):

- *One-Shot Vector Resizing*: a second ``resize`` of a non-empty vector
  raises :class:`~repro.sfm.errors.OneShotVectorError` (``resize(0)`` is
  always permitted, matching the paper's discussion of Fig. 21).
- *No Modifier*: ``push_back``/``append``/``pop_back``/``insert``/
  ``extend``/``remove``/``clear`` raise
  :class:`~repro.sfm.errors.NoModifierError` -- the run-time analogue of
  the C++ compile error.

*Growth-mode records* (``_allow_growth=True``, slab-backed via
:mod:`repro.sfm.slab`) relax one-shot resizing into Agnocast-style
unsized semantics: ``resize`` may shrink (bookkeeping only) and grow.  A
grow of a never-shrunk tail region grants only the delta, so the stable
prefix is not copied and -- within the slab's size class -- the buffer
does not even move; any other grow re-grants a fresh region at the end
of the message and leaks the old one, which is exactly what keeps the
bytes under a held reader view immutable (the shrink-then-grow aliasing
witness in ``tests/test_sfm_slab_differential.py``).
"""

from __future__ import annotations

import struct

from repro.sfm.errors import NoModifierError, OneShotVectorError
from repro.sfm.layout import NestedDesc, PairDesc, PrimDesc, StrDesc, cached_struct
from repro.sfm.manager import MessageManager, MessageRecord
from repro.sfm.string import SfmString

_PAIR = struct.Struct("<II")

# numpy is optional: the zero-copy array views and ndarray bulk
# assignment use it when present, and everything else works without it.
try:  # pragma: no cover - exercised by whichever env runs the suite
    import numpy as _numpy
except Exception:  # pragma: no cover - numpy-less environments
    _numpy = None

_MODIFIER_METHODS = (
    "push_back",
    "emplace_back",
    "pop_back",
    "append",
    "pop",
    "insert",
    "extend",
    "remove",
    "clear",
    "erase",
)


def _make_modifier(method_name: str):
    def modifier(self, *args, **kwargs):
        raise NoModifierError(method_name, self._path)

    modifier.__name__ = method_name
    modifier.__doc__ = (
        f"Forbidden by the No Modifier Assumption; raises NoModifierError."
    )
    return modifier


class _SfmSequenceBase:
    """Shared indexing/iteration machinery for vector and fixed array."""

    __slots__ = ("_manager", "_record", "_offset", "_element", "_path")

    def __init__(
        self,
        manager: MessageManager,
        record: MessageRecord,
        offset: int,
        element,
        path: str,
    ) -> None:
        self._manager = manager
        self._record = record
        self._offset = offset
        self._element = element
        self._path = path

    # Subclasses define: _count(), _content_start()

    def _check_index(self, index: int) -> int:
        count = self._count()
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(
                f"{self._path}: index {index} out of range for size {count}"
            )
        return index

    def _element_offset(self, index: int) -> int:
        return self._content_start() + index * self._element.size

    def _get_element(self, index: int):
        element = self._element
        offset = self._element_offset(index)
        buffer = self._record.buffer
        if isinstance(element, PrimDesc):
            prim = element.type
            if prim.is_time or prim.struct_fmt in ("II", "ii"):
                return cached_struct("<" + prim.struct_fmt).unpack_from(
                    buffer, offset
                )
            return cached_struct("<" + prim.struct_fmt).unpack_from(
                buffer, offset
            )[0]
        if isinstance(element, StrDesc):
            return SfmString(
                self._manager, self._record, offset, f"{self._path}[{index}]"
            )
        if isinstance(element, NestedDesc):
            from repro.sfm.generator import sfm_class_for

            cls = sfm_class_for(element.layout.type_name)
            # The view can write anywhere in this element's skeleton
            # through its own compiled accessors, which do not report
            # back here: disqualify this record from delta publishes.
            self._record.note_write(offset)
            self._record.delta_unsafe = True
            return cls._view(self._record, offset, f"{self._path}[{index}]")
        raise TypeError(f"unsupported element descriptor {element!r}")

    def _set_element(self, index: int, value) -> None:
        element = self._element
        offset = self._element_offset(index)
        buffer = self._record.writable()
        if isinstance(element, PrimDesc):
            prim = element.type
            self._record.note_write(offset)
            if prim.is_time or prim.struct_fmt in ("II", "ii"):
                secs, nsecs = value
                cached_struct("<" + prim.struct_fmt).pack_into(
                    buffer, offset, secs, nsecs
                )
            else:
                cached_struct("<" + prim.struct_fmt).pack_into(
                    buffer, offset, value
                )
        elif isinstance(element, StrDesc):
            SfmString(
                self._manager, self._record, offset, f"{self._path}[{index}]"
            )._assign(value)
        elif isinstance(element, NestedDesc):
            view = self._get_element(index)
            view._copy_fields_from(value)
        else:
            raise TypeError(f"unsupported element descriptor {element!r}")

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count()

    def size(self) -> int:
        """``std::vector::size`` alias."""
        return self._count()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._get_element(i) for i in range(*index.indices(self._count()))]
        return self._get_element(self._check_index(index))

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            indices = range(*index.indices(self._count()))
            values = list(value)
            if len(values) != len(indices):
                raise ValueError(
                    f"{self._path}: slice assignment length mismatch "
                    f"({len(values)} values for {len(indices)} slots)"
                )
            for i, v in zip(indices, values):
                self._set_element(i, v)
            return
        self._set_element(self._check_index(index), value)

    def __iter__(self):
        for index in range(self._count()):
            yield self._get_element(index)

    def __bool__(self) -> bool:
        return self._count() > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.tobytes() == bytes(other)
        try:
            other_list = list(other)
        except TypeError:
            return NotImplemented
        if len(other_list) != self._count():
            return False
        return all(a == b for a, b in zip(self, other_list))

    def __hash__(self):
        raise TypeError("sfm vectors are unhashable")

    def __repr__(self) -> str:
        count = self._count()
        if count > 8:
            head = ", ".join(repr(self._get_element(i)) for i in range(4))
            return f"sfm::vector([{head}, ... {count} elements])"
        return f"sfm::vector({list(self)!r})"

    def front(self):
        """``std::vector::front``: the first element."""
        return self[0]

    def back(self):
        """``std::vector::back``: the last element."""
        return self[-1]

    # ------------------------------------------------------------------
    # Bulk byte access (fast paths)
    # ------------------------------------------------------------------
    def _is_byte_vector(self) -> bool:
        return (
            isinstance(self._element, PrimDesc) and self._element.size == 1
        )

    def tobytes(self) -> bytes:
        """Copy the contents out as bytes (byte vectors only)."""
        if not self._is_byte_vector():
            raise TypeError(f"{self._path} is not a byte vector")
        start = self._content_start()
        return bytes(self._record.buffer[start : start + self._count()])

    def __bytes__(self) -> bytes:
        """``bytes(vector)`` fast path for byte vectors; without this,
        ``bytes()`` would fall back to per-element iteration."""
        return self.tobytes()

    @property
    def view(self) -> memoryview:
        """Zero-copy memoryview of a byte vector's contents."""
        if not self._is_byte_vector():
            raise TypeError(f"{self._path} is not a byte vector")
        start = self._content_start()
        # The view is writable, escapes dirty tracking, and may be held
        # across publishes: disqualify the record from delta publishes.
        self._record.note_write(start)
        self._record.delta_unsafe = True
        return memoryview(self._record.buffer)[start : start + self._count()]

    def typed(self) -> memoryview:
        """Zero-copy *typed* memoryview of a primitive vector's contents
        (``memoryview.cast``): element reads and writes go straight to the
        buffer with no struct call and no numpy dependency.  Little-endian
        contents are read in native order, hence little-endian hosts only
        (SFM buffers are little-endian; big-endian buffers are converted
        once on adoption)."""
        if not isinstance(self._element, PrimDesc):
            raise TypeError(f"{self._path} elements are not primitive")
        prim = self._element.type
        if prim.is_time or prim.struct_fmt in ("II", "ii"):
            raise TypeError(f"{self._path}: time vectors have no item format")
        start = self._content_start()
        end = start + self._count() * self._element.size
        # Writable view escaping dirty tracking, possibly held across
        # publishes: no more delta publishes for this record.
        self._record.note_write(start)
        self._record.delta_unsafe = True
        view = memoryview(self._record.buffer)[start:end]
        code = prim.struct_fmt if prim.struct_fmt != "?" else "B"
        return view.cast(code)

    def asarray(self):
        """Zero-copy numpy view of a primitive vector's contents
        (requires numpy; see :meth:`typed` for the stdlib equivalent)."""
        if _numpy is None:
            raise RuntimeError(
                f"{self._path}.asarray() requires numpy, which is not "
                "installed; use .typed() for a stdlib typed view"
            )
        if not isinstance(self._element, PrimDesc):
            raise TypeError(f"{self._path} elements are not primitive")
        prim = self._element.type
        if prim.is_time or prim.struct_fmt in ("II", "ii"):
            raise TypeError(f"{self._path}: time vectors have no dtype")
        dtype = _numpy.dtype("<" + _NUMPY_CODES[prim.struct_fmt])
        start = self._content_start()
        end = start + self._count() * self._element.size
        # Writable view escaping dirty tracking, possibly held across
        # publishes: no more delta publishes for this record.
        self._record.note_write(start)
        self._record.delta_unsafe = True
        return _numpy.frombuffer(
            memoryview(self._record.buffer)[start:end], dtype=dtype
        )


_NUMPY_CODES = {
    "b": "i1", "B": "u1", "?": "u1",
    "h": "i2", "H": "u2",
    "i": "i4", "I": "u4",
    "q": "i8", "Q": "u8",
    "f": "f4", "d": "f8",
}


class SfmVector(_SfmSequenceBase):
    """A variable-length vector field (count + offset skeleton)."""

    __slots__ = ()

    def _stored(self) -> tuple[int, int]:
        return _PAIR.unpack_from(self._record.buffer, self._offset)

    def _count(self) -> int:
        return self._stored()[0]

    def _content_start(self) -> int:
        _, rel = self._stored()
        return self._offset + 4 + rel

    # ------------------------------------------------------------------
    # Resizing (one-shot; unsized for growth records) and bulk assignment
    # ------------------------------------------------------------------
    def _growth_meta(self, current: int) -> dict:
        """This vector's growth bookkeeping on the record: the granted
        extent (bytes) of its current content region, and whether it was
        ever shrunk (a shrunk region must never be re-exposed -- see
        :meth:`_regrow`).  Regions granted before tracking started (an
        adopted buffer, a ``copy()``) get a conservative entry."""
        from repro.sfm.layout import align_content

        key = ("vec", self._offset)
        meta = self._record._extra.get(key)
        if meta is None:
            meta = self._record._extra[key] = {
                "extent": align_content(current * self._element.size),
                "shrunk": True,  # unknown provenance: never re-expose
            }
        return meta

    def resize(self, count: int) -> None:
        """Size the vector: one-shot for ordinary records, unsized
        (grow/shrink at will) for growth-mode records."""
        if count < 0:
            raise ValueError(f"{self._path}: negative resize {count}")
        record = self._record
        current, _ = self._stored()
        if current != 0:
            if count == current and record.allow_growth:
                return
            if count == 0:
                # Shrinking to zero is always allowed; the content region
                # is leaked inside the whole message, as in the paper.
                _PAIR.pack_into(record.writable(), self._offset, 0, 0)
                record.note_write(self._offset)
                meta = record._extra.get(("vec", self._offset))
                if meta is not None:
                    meta["shrunk"] = True
                return
            if not record.allow_growth:
                raise OneShotVectorError(self._path)
            self._regrow(current, count)
            return
        if count == 0:
            return
        nbytes = count * self._element.size
        # expand() guarantees the granted region is zeroed, so element
        # defaults and nested skeletons start from zero.
        record, content_offset = self._manager.expand(
            self._record.base + self._offset, nbytes
        )
        _PAIR.pack_into(
            record.writable(), self._offset, count,
            content_offset - (self._offset + 4),
        )
        record.note_write(self._offset)
        self._note_grant(nbytes)

    def _note_grant(self, nbytes: int) -> None:
        from repro.sfm.layout import align_content

        self._record._extra[("vec", self._offset)] = {
            "extent": align_content(nbytes),
            "shrunk": False,
        }

    def _regrow(self, current: int, count: int) -> None:
        """Grow or shrink a non-empty growth-mode vector.

        Shrink is pure bookkeeping (the tail stays granted and byte-
        stable under held readers).  Grow takes the zero-copy path --
        grant only the delta -- when the region is the message tail and
        was never shrunk; otherwise it re-grants a fresh region, copies
        the kept prefix, and leaks the old region so its bytes stay
        immutable under any reader still holding a view of them."""
        from repro.sfm.layout import align_content

        record = self._record
        esize = self._element.size
        meta = self._growth_meta(current)
        stored_rel = self._stored()[1]
        if count < current:
            _PAIR.pack_into(record.writable(), self._offset, count, stored_rel)
            record.note_write(self._offset)
            meta["shrunk"] = True
            return
        content_start = self._content_start()
        new_extent = align_content(count * esize)
        if not meta["shrunk"] and content_start + meta["extent"] == record.size:
            # Tail growth: grant the delta (zeroed) and bump the count.
            # Bytes between the old element end and the old extent are
            # alignment padding, zeroed by the original grant.
            delta = new_extent - meta["extent"]
            if delta:
                self._manager.expand(record.base + self._offset, delta)
            _PAIR.pack_into(
                record.writable(), self._offset, count, stored_rel
            )
            record.note_write(self._offset)
            meta["extent"] = new_extent
            return
        # Fresh-region re-grant: copy the kept prefix, leak the old
        # region.  The grant is zeroed, so the new elements read as
        # defaults just like the tail path.
        record2, content_offset = self._manager.expand(
            record.base + self._offset, count * esize
        )
        buffer = record2.writable()
        keep = current * esize
        buffer[content_offset : content_offset + keep] = bytes(
            buffer[content_start : content_start + keep]
        )
        _PAIR.pack_into(
            buffer, self._offset, count, content_offset - (self._offset + 4)
        )
        record.note_write(self._offset)
        self._note_grant(count * esize)

    def _assign(self, value) -> None:
        """Whole-vector assignment: one-shot resize + element writes."""
        if isinstance(value, _SfmSequenceBase):
            if value._is_byte_vector():
                value = value.tobytes()
            else:
                value = list(value)
        if self._is_byte_vector() and isinstance(
            value, (bytes, bytearray, memoryview)
        ):
            self._assign_bytes_fast(value)
            return
        if _numpy is not None and isinstance(value, _numpy.ndarray):
            self._assign_ndarray(value)
            return
        values = list(value)
        self.resize(len(values))
        if not values:
            return
        if isinstance(self._element, PrimDesc) and not (
            self._element.type.is_time
            or self._element.type.struct_fmt in ("II", "ii")
        ):
            fmt = f"<{len(values)}{self._element.type.struct_fmt}"
            struct.pack_into(
                fmt, self._record.writable(), self._content_start(), *values
            )
            return
        for index, item in enumerate(values):
            self._set_element(index, item)

    def _assign_bytes_fast(self, value) -> None:
        """Bulk byte assignment: a single grant (not pre-zeroed, since the
        whole region is written here) plus one slice copy."""
        from repro.sfm.errors import OneShotVectorError
        from repro.sfm.layout import align_content

        count = len(value)
        current, _ = self._stored()
        if current != 0:
            if count == 0:
                self.resize(0)
                return
            if not self._record.allow_growth:
                raise OneShotVectorError(self._path)
            # Growth-mode re-assignment: resize (delta grant or fresh
            # region) then overwrite the whole region.
            self.resize(count)
            start = self._content_start()
            buffer = self._record.writable()
            buffer[start : start + count] = value
            self._record.note_write(start)
            return
        if count == 0:
            return
        record, content_offset = self._manager.expand(
            self._record.base + self._offset, count, zero=False
        )
        buffer = record.writable()
        buffer[content_offset : content_offset + count] = value
        padding = align_content(count) - count
        if padding:
            buffer[content_offset + count : content_offset + count + padding] = (
                bytes(padding)
            )
        _PAIR.pack_into(buffer, self._offset, count, content_offset - (self._offset + 4))
        self._record.note_write(self._offset)
        self._note_grant(count)

    def _assign_ndarray(self, array) -> None:
        """Bulk ndarray assignment: a single no-zero grant plus one numpy
        copy into the buffer (the grant is fully overwritten, padding
        excepted)."""
        numpy = _numpy

        from repro.sfm.errors import OneShotVectorError
        from repro.sfm.layout import align_content

        if not isinstance(self._element, PrimDesc):
            raise TypeError(f"{self._path}: ndarray assigned to non-primitive vector")
        prim = self._element.type
        if prim.is_time or prim.struct_fmt in ("II", "ii"):
            raise TypeError(f"{self._path}: time vectors have no dtype")
        dtype = numpy.dtype("<" + _NUMPY_CODES[prim.struct_fmt])
        flat = numpy.ascontiguousarray(array).reshape(-1).astype(
            dtype, copy=False
        )
        count = int(flat.size)
        current, _ = self._stored()
        if current != 0:
            if count == 0:
                self.resize(0)
                return
            if not self._record.allow_growth:
                raise OneShotVectorError(self._path)
            self.resize(count)
            start = self._content_start()
            nbytes = count * self._element.size
            buffer = self._record.writable()
            view = numpy.frombuffer(
                memoryview(buffer)[start : start + nbytes], dtype=dtype
            )
            view[:] = flat
            self._record.note_write(start)
            return
        if count == 0:
            return
        nbytes = count * self._element.size
        record, content_offset = self._manager.expand(
            self._record.base + self._offset, nbytes, zero=False
        )
        buffer = record.writable()
        view = numpy.frombuffer(
            memoryview(buffer)[content_offset : content_offset + nbytes],
            dtype=dtype,
        )
        view[:] = flat
        padding = align_content(nbytes) - nbytes
        if padding:
            buffer[content_offset + nbytes : content_offset + nbytes + padding] = (
                bytes(padding)
            )
        _PAIR.pack_into(
            buffer, self._offset, count, content_offset - (self._offset + 4)
        )
        self._record.note_write(self._offset)
        self._note_grant(nbytes)


class SfmFixedArray(_SfmSequenceBase):
    """A fixed-length array field ``T[N]`` (elements inline, no skeleton
    pair, no resizing)."""

    __slots__ = ("_length",)

    def __init__(self, manager, record, offset, element, path, length: int):
        super().__init__(manager, record, offset, element, path)
        self._length = length

    def _count(self) -> int:
        return self._length

    def _content_start(self) -> int:
        return self._offset

    def resize(self, count: int) -> None:
        raise NoModifierError("resize", self._path)

    def _assign(self, value) -> None:
        values = (
            bytes(value)
            if isinstance(value, (bytes, bytearray, memoryview))
            else list(value)
        )
        if len(values) != self._length:
            raise ValueError(
                f"{self._path}: fixed array expects {self._length} elements, "
                f"got {len(values)}"
            )
        for index in range(self._length):
            self._set_element(index, values[index])


for _name in _MODIFIER_METHODS:
    setattr(SfmVector, _name, _make_modifier(_name))
    setattr(SfmFixedArray, _name, _make_modifier(_name))


class SfmMap:
    """A ``map`` field view (Section 4.4.2): a vector of key/value pairs.

    Lookup is a linear scan over the pair vector -- the representation the
    paper proposes ("a vector of key-value pairs, which is also the
    solution used by ROS").  Assignment is whole-map and one-shot.
    """

    __slots__ = ("_vector",)

    def __init__(
        self,
        manager: MessageManager,
        record: MessageRecord,
        offset: int,
        element: PairDesc,
        path: str,
    ) -> None:
        self._vector = SfmVector(manager, record, offset, element, path)

    def _pair_at(self, index: int):
        element: PairDesc = self._vector._element  # type: ignore[assignment]
        base = self._vector._element_offset(index)
        key_view = _scalar_view(self._vector, element.key, base, index, "key")
        value_view = _scalar_view(
            self._vector, element.value, base + element.key.size, index, "value"
        )
        return key_view, value_view

    def __len__(self) -> int:
        return len(self._vector)

    def __iter__(self):
        for index in range(len(self)):
            yield self._pair_at(index)[0]

    def keys(self):
        """All map keys, in storage order."""
        return list(self)

    def values(self):
        """All map values, in storage order."""
        return [self._pair_at(i)[1] for i in range(len(self))]

    def items(self):
        """(key, value) pairs, in storage order."""
        return [self._pair_at(i) for i in range(len(self))]

    def __contains__(self, key) -> bool:
        return any(k == key for k in self)

    def __getitem__(self, key):
        for index in range(len(self)):
            k, v = self._pair_at(index)
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key, default=None):
        """Dict-style lookup with a default."""
        try:
            return self[key]
        except KeyError:
            return default

    def __eq__(self, other) -> bool:
        if isinstance(other, SfmMap):
            other = dict(other.items())
        if not isinstance(other, dict):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(
            key in other and other[_plain_key(key)] == value
            for key, value in self.items()
        )

    def __hash__(self):
        raise TypeError("sfm maps are unhashable")

    def __repr__(self) -> str:
        return f"sfm::map({dict(self.items())!r})"

    def _assign(self, mapping) -> None:
        if isinstance(mapping, SfmMap):
            mapping = dict(mapping.items())
        if not isinstance(mapping, dict):
            raise TypeError(
                f"{self._vector._path}: map fields accept dict values only"
            )
        self._vector.resize(len(mapping))
        element: PairDesc = self._vector._element  # type: ignore[assignment]
        for index, (key, value) in enumerate(mapping.items()):
            base = self._vector._element_offset(index)
            _write_scalar(self._vector, element.key, base, key)
            _write_scalar(self._vector, element.value, base + element.key.size, value)


def _scalar_view(vector: SfmVector, desc, offset: int, index: int, role: str):
    buffer = vector._record.buffer
    if isinstance(desc, PrimDesc):
        return cached_struct("<" + desc.type.struct_fmt).unpack_from(
            buffer, offset
        )[0]
    if isinstance(desc, StrDesc):
        return SfmString(
            vector._manager,
            vector._record,
            offset,
            f"{vector._path}[{index}].{role}",
        )
    if isinstance(desc, NestedDesc):
        from repro.sfm.generator import sfm_class_for

        cls = sfm_class_for(desc.layout.type_name)
        # As in _get_element: the nested view's own accessors write
        # without reporting back, so charge the element and disqualify
        # the record from delta publishes.
        vector._record.note_write(offset)
        vector._record.delta_unsafe = True
        return cls._view(
            vector._record, offset, f"{vector._path}[{index}].{role}"
        )
    raise TypeError(f"unsupported map component {desc!r}")


def _write_scalar(vector: SfmVector, desc, offset: int, value) -> None:
    buffer = vector._record.writable()
    if isinstance(desc, PrimDesc):
        vector._record.note_write(offset)
        cached_struct("<" + desc.type.struct_fmt).pack_into(
            buffer, offset, value
        )
    elif isinstance(desc, StrDesc):
        SfmString(
            vector._manager, vector._record, offset, f"{vector._path}.<map>"
        )._assign(value)
    elif isinstance(desc, NestedDesc):
        view = _scalar_view(vector, desc, offset, -1, "value")
        view._copy_fields_from(value)
    else:
        raise TypeError(f"unsupported map component {desc!r}")


def _plain_key(key):
    return str(key) if isinstance(key, SfmString) else key
