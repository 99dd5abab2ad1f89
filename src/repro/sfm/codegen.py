"""Compiled per-type accessors: the SFM field-access fast path.

The generic descriptors of :mod:`repro.sfm.generator` pay, per access, a
Python-level ``__get__`` dispatch, two descriptor attribute loads, offset
arithmetic and a ``struct`` call.  This module emits *specialized* code per
message type instead:

- every fixed primitive slot of a **root** instance (``_base == 0``) gets
  an exec-compiled ``property`` whose body indexes a lazily-built typed
  ``memoryview`` over the record's buffer with the element index baked in
  as a literal (``obj._record.cast_I[2]``) -- no offset arithmetic, no
  struct call, no descriptor attribute loads;
- slots whose offset is not a multiple of the element size (SFM skeletons
  are packed like ROS wire format, so this happens) fall back to a closure
  with the compiled :class:`struct.Struct` methods bound as default
  arguments -- still cheaper than the generic descriptor;
- constructor keyword arguments are applied through a compiled
  ``pack_into`` bulk setter: one combined format string (gaps encoded as
  ``"Nx"`` pad bytes) writes every scalar kwarg in a single call;
- nested views keep the proven descriptor path (their base offset is
  per-instance, so literal indices do not apply); the generator emits a
  sibling *view class* for them.

The typed views live on the :class:`~repro.sfm.manager.MessageRecord`
(``cast_I`` and friends), are built on first miss (the ``except
TypeError`` slow path below -- ``None[2]`` raises ``TypeError``), and are
dropped by the manager before any event that rebinds or resizes the
backing buffer.  External (shared-memory-borrowed) records get read-only
views: reads are zero-copy straight from the borrowed slot, and the first
write raises ``TypeError`` into the slow path, which materializes the
record -- exactly the copy-on-write semantics of the descriptor path.

``generate_sfm_class(codegen=False)`` emits the descriptor classes
unchanged: they serve nested views and big-endian hosts, and are the
reference ``tests/test_sfm_codegen_parity.py`` holds this module to.
"""

from __future__ import annotations

import sys

from repro.sfm.layout import SkeletonLayout, Slot, cached_struct

#: struct format char -> (MessageRecord cast attr, element size, index shift)
_CAST_INFO = {
    "b": ("cast_b", 1, 0),
    "B": ("cast_B", 1, 0),
    "?": ("cast_bool", 1, 0),
    "h": ("cast_h", 2, 1),
    "H": ("cast_H", 2, 1),
    "i": ("cast_i", 4, 2),
    "I": ("cast_I", 4, 2),
    "q": ("cast_q", 8, 3),
    "Q": ("cast_Q", 8, 3),
    "f": ("cast_f", 4, 2),
    "d": ("cast_d", 8, 3),
}

_SLOW_EXCEPTIONS = (TypeError, ValueError, IndexError, BufferError)


def codegen_enabled() -> bool:
    """True when the compiled-accessor path is the default: typed
    memoryviews read native byte order and SFM buffers are
    little-endian, so a big-endian host falls back to the
    (order-explicit) descriptor path."""
    return sys.byteorder == "little"


# ----------------------------------------------------------------------
# Slow paths (first access per cast kind, external records, fallbacks)
# ----------------------------------------------------------------------
def _ensure_cast(record, code: str):
    """Build (and attach to the record) the typed view for ``code``.

    Slab-backed records (:mod:`repro.sfm.slab`) get the view over the
    slab's full size class, so it stays valid across every in-class
    growth -- only a class promotion (which rebinds the buffer and drops
    casts) rebuilds it.  The slab generation is recorded alongside so
    audits can prove no cast ever outlives a recycled slab."""
    attr, size, _shift = _CAST_INFO[code]
    view = memoryview(record.buffer)
    if size > 1:
        usable = len(view) - (len(view) % size)
        view = view[:usable]
    view = view.cast(code)
    setattr(record, attr, view)
    slab = record.slab
    if slab is not None:
        record.cast_slab_gen = slab.generation
    return view


def _slow_get(obj, code: str, offset: int):
    record = obj._record
    try:
        view = _ensure_cast(record, code)
        return view[offset >> _CAST_INFO[code][2]]
    except _SLOW_EXCEPTIONS:
        return cached_struct("<" + code).unpack_from(record.buffer, offset)[0]


def _slow_set(obj, value, code: str, offset: int) -> None:
    record = obj._record
    if record.external:
        record.materialize()
    try:
        view = _ensure_cast(record, code)
        view[offset >> _CAST_INFO[code][2]] = value
        return
    except _SLOW_EXCEPTIONS:
        pass
    # Deliberate last resort: raises the same struct.error the descriptor
    # path raises for out-of-range or mistyped values.
    cached_struct("<" + code).pack_into(record.writable(), offset, value)


def _slow_time_get(obj, code: str, offset: int):
    record = obj._record
    try:
        view = _ensure_cast(record, code)
        index = offset >> 2
        return (view[index], view[index + 1])
    except _SLOW_EXCEPTIONS:
        return cached_struct("<" + code + code).unpack_from(
            record.buffer, offset
        )


def _slow_time_set(obj, secs, nsecs, code: str, offset: int) -> None:
    record = obj._record
    if record.external:
        record.materialize()
    try:
        view = _ensure_cast(record, code)
        index = offset >> 2
        view[index] = secs
        view[index + 1] = nsecs
        return
    except _SLOW_EXCEPTIONS:
        pass
    cached_struct("<" + code + code).pack_into(
        record.writable(), offset, secs, nsecs
    )


# ----------------------------------------------------------------------
# Accessor compilation
# ----------------------------------------------------------------------
def _is_time_slot(slot: Slot) -> bool:
    return slot.prim.is_time or slot.prim.type.struct_fmt in ("II", "ii")


def _unaligned_property(slot: Slot) -> property:
    """Closure accessor for a slot the typed views cannot index (offset
    not a multiple of the element size): compiled packer methods bound as
    default arguments, absolute offset baked in."""
    fmt = slot.prim.type.struct_fmt
    packer = cached_struct("<" + fmt)
    if _is_time_slot(slot):

        def fget(obj, _unpack=packer.unpack_from, _o=slot.offset):
            return _unpack(obj._record.buffer, _o)

        def fset(obj, value, _pack=packer.pack_into, _o=slot.offset):
            secs, nsecs = value
            record = obj._record
            if record.external:
                record.materialize()
            _pack(record.buffer, _o, secs, nsecs)

    else:

        def fget(obj, _unpack=packer.unpack_from, _o=slot.offset):
            return _unpack(obj._record.buffer, _o)[0]

        def fset(obj, value, _pack=packer.pack_into, _o=slot.offset):
            record = obj._record
            if record.external:
                record.materialize()
            _pack(record.buffer, _o, value)

    return property(fget, fset)


_SCALAR_TEMPLATE = """\
def _g_{name}(obj):
    try:
        return obj._record.{attr}[{index}]
    except TypeError:
        return _slow_get(obj, {code!r}, {offset})

def _s_{name}(obj, value):
    try:
        obj._record.{attr}[{index}] = value
    except _SLOW_EXCEPTIONS:
        _slow_set(obj, value, {code!r}, {offset})
"""

_TIME_TEMPLATE = """\
def _g_{name}(obj):
    try:
        view = obj._record.{attr}
        return (view[{index}], view[{index1}])
    except TypeError:
        return _slow_time_get(obj, {code!r}, {offset})

def _s_{name}(obj, value):
    secs, nsecs = value
    try:
        view = obj._record.{attr}
        view[{index}] = secs
        view[{index1}] = nsecs
    except _SLOW_EXCEPTIONS:
        _slow_time_set(obj, secs, nsecs, {code!r}, {offset})
"""


def build_scalar_accessors(layout: SkeletonLayout) -> dict:
    """Compiled ``property`` objects for every primitive slot of
    ``layout``, valid for root instances (``_base == 0``)."""
    sources = []
    properties: dict[str, property] = {}
    for slot in layout.slots:
        if slot.kind != "primitive":
            continue
        if _is_time_slot(slot):
            code = "I" if slot.prim.type.struct_fmt == "II" else "i"
            if slot.offset % 4:
                properties[slot.name] = _unaligned_property(slot)
                continue
            sources.append(
                _TIME_TEMPLATE.format(
                    name=slot.name,
                    attr=_CAST_INFO[code][0],
                    code=code,
                    offset=slot.offset,
                    index=slot.offset >> 2,
                    index1=(slot.offset >> 2) + 1,
                )
            )
            continue
        code = slot.prim.type.struct_fmt
        info = _CAST_INFO.get(code)
        if info is None or slot.offset % info[1]:
            properties[slot.name] = _unaligned_property(slot)
            continue
        attr, _size, shift = info
        sources.append(
            _SCALAR_TEMPLATE.format(
                name=slot.name,
                attr=attr,
                code=code,
                offset=slot.offset,
                index=slot.offset >> shift,
            )
        )
    if sources:
        namespace: dict = {}
        env = {
            "_slow_get": _slow_get,
            "_slow_set": _slow_set,
            "_slow_time_get": _slow_time_get,
            "_slow_time_set": _slow_time_set,
            "_SLOW_EXCEPTIONS": _SLOW_EXCEPTIONS,
        }
        source = "\n".join(sources)
        exec(  # noqa: S102 - template over layout literals only
            compile(source, f"<sfm codegen {layout.type_name}>", "exec"),
            env,
            namespace,
        )
        for slot in layout.slots:
            getter = namespace.get(f"_g_{slot.name}")
            if getter is not None:
                properties[slot.name] = property(
                    getter, namespace[f"_s_{slot.name}"]
                )
    return properties


# ----------------------------------------------------------------------
# Compiled constructor-kwargs bulk setter
# ----------------------------------------------------------------------
def _build_kwargs_plan(layout: SkeletonLayout, names: tuple, bulk_ok: bool):
    """Plan for one kwargs shape: (packer, start offset, scalar spec,
    remaining names).  ``packer`` is None when the shape has no scalar
    run worth compiling."""
    scalar_spec: list[tuple[str, bool]] = []
    scalar_names = set()
    fmt_parts: list[str] = []
    start = None
    cursor = 0
    if bulk_ok:
        name_set = set(names)
        for slot in layout.slots:
            if slot.name not in name_set or slot.kind != "primitive":
                continue
            if start is None:
                start = cursor = slot.offset
            gap = slot.offset - cursor
            if gap:
                fmt_parts.append(f"{gap}x")
            fmt_parts.append(slot.prim.type.struct_fmt)
            cursor = slot.offset + slot.size
            scalar_spec.append((slot.name, _is_time_slot(slot)))
            scalar_names.add(slot.name)
    if len(scalar_spec) < 2:
        # A single scalar gains nothing over its compiled property.
        return None, 0, (), names
    rest = tuple(name for name in names if name not in scalar_names)
    packer = cached_struct("<" + "".join(fmt_parts))
    return packer, start, tuple(scalar_spec), rest


def make_set_kwargs(layout: SkeletonLayout):
    """A ``_set_kwargs`` override with per-shape compiled bulk plans.

    The combined format encodes gaps between scalar slots as zero-writing
    pad bytes, which is only sound when every byte in those gaps is zero
    at construction time -- true for freshly allocated (or re-zeroed
    pooled) buffers unless the layout carries optional defaults, in which
    case the bulk path is disabled for the whole type.
    """
    slot_by_name = layout.slot_by_name
    type_name = layout.type_name
    bulk_ok = not layout.has_optional_defaults
    plans: dict[tuple, tuple] = {}

    def _set_kwargs(self, kwargs: dict) -> None:
        for name in kwargs:
            if name not in slot_by_name:
                raise TypeError(f"{type_name} has no field {name!r}")
        key = tuple(kwargs)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _build_kwargs_plan(layout, key, bulk_ok)
        packer, start, scalar_spec, rest = plan
        if packer is None:
            for name, value in kwargs.items():
                setattr(self, name, value)
            return
        values: list = []
        try:
            for name, is_time in scalar_spec:
                value = kwargs[name]
                if is_time:
                    secs, nsecs = value
                    values.append(secs)
                    values.append(nsecs)
                else:
                    values.append(value)
            packer.pack_into(self._record.buffer, start, *values)
        except Exception:
            # Re-apply field by field so mistyped values raise exactly
            # the error the descriptor path would raise.
            for name, value in kwargs.items():
                setattr(self, name, value)
            return
        for name in rest:
            setattr(self, name, kwargs[name])

    return _set_kwargs
