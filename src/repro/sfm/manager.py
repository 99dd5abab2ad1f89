"""The message life-cycle manager (``sfm::mm`` / ``sfm::gmm``).

Paper Section 4.2: every serialization-free message has three states --
*Allocated*, *Published*, *Destructed*.  A record in the manager holds the
"buffer pointer" to the message memory; publishing hands a copy of that
pointer to the transport; the memory is freed only when the reference
count reaches zero (Figs. 8 and 9).  On the subscriber side a received
buffer is *adopted* (the dummy de-serialization routine) and enters the
Published state directly.

Whole-message expansion (Section 4.3.3): when an ``sfm`` string or vector
needs content space it knows only its own address, so the manager locates
the owning record via **binary search over records ordered by start
address** -- reproduced here over the virtual address space of
:mod:`repro.sfm.arena` -- and appends the region at the current end of the
whole message.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

from repro.sfm import slab as slab_mod
from repro.sfm.arena import Arena, global_arena
from repro.sfm.errors import CapacityError, StaleMessageError, UnknownRecordError
from repro.sfm.layout import SkeletonLayout, align_content


class MessageState(Enum):
    """Life-cycle states of a serialization-free message (Fig. 8/9)."""

    ALLOCATED = "allocated"
    PUBLISHED = "published"
    DESTRUCTED = "destructed"


@dataclass
class ManagerStats:
    """Counters exposed for tests and the manager ablation benchmark."""

    allocated: int = 0
    adopted: int = 0
    adopted_external: int = 0
    materialized: int = 0
    published: int = 0
    destructed: int = 0
    expansions: int = 0
    bytes_expanded: int = 0
    peak_live: int = 0
    pool_hits: int = 0
    slab_allocations: int = 0
    slab_promotions: int = 0

    def snapshot(self) -> dict:
        """The counters as a plain dict."""
        return dict(self.__dict__)


@dataclass
class MessageRecord:
    """One live serialization-free message."""

    record_id: int
    type_name: str
    base: int
    buffer: bytearray
    skeleton_size: int
    size: int
    capacity: int
    state: MessageState
    buffer_refs: int = 1
    allow_growth: bool = False
    #: Byte-order marker of the buffer contents (publisher's order).
    byte_order: str = "<"
    #: True while ``buffer`` is a borrowed read-only view over memory the
    #: transport owns (a shared-memory slot); the first write -- or slot
    #: reclamation -- copies it into a private bytearray (``materialize``).
    external: bool = False
    #: The owning manager (set on registration); views use it to request
    #: expansion without any global lookup.
    manager: "MessageManager" = None  # type: ignore[assignment]
    #: The size-classed slab backing this record (growth records only,
    #: :mod:`repro.sfm.slab`); None for pooled/adopted/external buffers.
    slab: object = dataclass_field(default=None, repr=False, compare=False)
    #: Lowest *content* offset written since the last delta-publish mark
    #: (0 = everything dirty).  Together with ``clean_owner`` this lets a
    #: publisher re-ship only the skeleton plus the grown tail of a
    #: republished message (see ``Publisher._shm_write``).
    dirty_floor: int = 0
    clean_owner: object = dataclass_field(
        default=None, repr=False, compare=False
    )
    #: An untracked write capability escaped (a raw memoryview, a numpy
    #: view, or a nested-element view whose compiled setters bypass
    #: ``note_write``).  Once set, delta publishes of this record ship
    #: the full content forever -- correctness beats the optimisation.
    delta_unsafe: bool = False
    _extra: dict = dataclass_field(default_factory=dict)
    # Lazily-built typed memoryviews over ``buffer`` (one per cast code),
    # populated by the compiled accessors of :mod:`repro.sfm.codegen`.
    # They alias the buffer, so plain content writes keep them coherent;
    # they MUST be dropped before anything rebinds or resizes the backing
    # buffer (``drop_casts``), both for coherence and because a bytearray
    # with exported views cannot be resized.
    cast_b: object = dataclass_field(default=None, repr=False, compare=False)
    cast_B: object = dataclass_field(default=None, repr=False, compare=False)
    cast_h: object = dataclass_field(default=None, repr=False, compare=False)
    cast_H: object = dataclass_field(default=None, repr=False, compare=False)
    cast_i: object = dataclass_field(default=None, repr=False, compare=False)
    cast_I: object = dataclass_field(default=None, repr=False, compare=False)
    cast_q: object = dataclass_field(default=None, repr=False, compare=False)
    cast_Q: object = dataclass_field(default=None, repr=False, compare=False)
    cast_f: object = dataclass_field(default=None, repr=False, compare=False)
    cast_d: object = dataclass_field(default=None, repr=False, compare=False)
    cast_bool: object = dataclass_field(default=None, repr=False, compare=False)
    #: Slab generation the casts were built against (slab-backed records
    #: only): lets audits prove no cast outlives a recycled slab.
    cast_slab_gen: object = dataclass_field(default=None, repr=False, compare=False)

    @property
    def end(self) -> int:
        return self.base + self.capacity

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def drop_casts(self) -> None:
        """Release the lazily-built typed views.  Called before any event
        that rebinds or resizes the backing buffer: an in-place growth
        would fail with ``BufferError`` while views are exported, and a
        rebound buffer must not keep serving stale views."""
        self.cast_b = self.cast_B = self.cast_h = self.cast_H = None
        self.cast_i = self.cast_I = self.cast_q = self.cast_Q = None
        self.cast_f = self.cast_d = self.cast_bool = None
        self.cast_slab_gen = None

    def writable(self) -> bytearray:
        """The buffer, guaranteed mutable: every write path goes through
        here so an adopted external buffer is copied out (copy-on-write)
        before the first mutation."""
        if self.external:
            self.materialize()
        return self.buffer

    def note_write(self, offset: int) -> None:
        """Record a content write at ``offset`` for delta tracking.
        Skeleton writes are ignored: the skeleton is always re-shipped
        by a delta publish, only content dirt forces a wider copy."""
        if self.skeleton_size <= offset < self.dirty_floor:
            self.dirty_floor = offset

    def mark_clean(self, owner: object) -> None:
        """Called by ``owner`` after it shipped ``buffer[:size]``: bytes
        below ``size`` are now clean *for that owner* (another publisher
        must not trust a mark it did not make)."""
        self.dirty_floor = self.size
        self.clean_owner = owner

    def materialize(self) -> None:
        """Detach from borrowed memory: copy the external view into a
        private bytearray (idempotent; no-op for ordinary records)."""
        if not self.external:
            return
        self.buffer = bytearray(self.buffer)
        self.external = False
        self.drop_casts()
        manager = self.manager
        if manager is not None:
            with manager._lock:
                manager.stats.materialized += 1


class BufferPointer:
    """A counted reference to a record's message memory.

    The analogue of the ``std::shared_array`` copy handed to ROS's
    transmission queue on publish.  ``release()`` is idempotent; an
    un-released pointer releases itself on garbage collection so a dropped
    transport cannot leak records.
    """

    __slots__ = ("_manager", "_record", "_released", "_pin")

    def __init__(self, manager: "MessageManager", record: MessageRecord) -> None:
        self._manager = manager
        self._record = record
        self._released = False
        # Slab-backed records: pin the slab's current generation so the
        # allocator cannot recycle these bytes while this reference (a
        # transport queue entry, a held reader view) is outstanding.
        slab = record.slab
        self._pin = (slab, slab.pin()) if slab is not None else None

    @property
    def buffer(self) -> bytearray:
        return self._record.buffer

    @property
    def size(self) -> int:
        return self._record.size

    def memoryview(self) -> memoryview:
        """The whole message as a zero-copy view (what goes on the wire)."""
        return memoryview(self._record.buffer)[: self._record.size]

    def release(self) -> None:
        if not self._released:
            self._released = True
            pin = self._pin
            if pin is not None:
                self._pin = None
                pin[0].unpin(pin[1])
            self._manager.release_ref(self._record)

    def __enter__(self) -> "BufferPointer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.release()
        except Exception:
            pass


class MessageManager:
    """``sfm::mm``: the registry of live serialization-free messages."""

    #: Cap on recycled buffers kept per capacity class.
    POOL_DEPTH = 8

    def __init__(
        self,
        arena: Arena | None = None,
        recycle: bool = True,
        slabs: "slab_mod.SlabAllocator | bool | None" = None,
    ) -> None:
        self._arena = arena or global_arena
        self._lock = threading.RLock()
        self._bases: list[int] = []
        self._records: list[MessageRecord] = []
        #: Buffer pool keyed by capacity: freshly zero-filling a large
        #: capacity buffer on every allocation would dominate small-message
        #: cost, so destructed buffers are recycled and only the skeleton
        #: region is re-zeroed (expand() zeroes content grants).
        self._pool: dict[int, list[bytearray]] = {}
        self.recycle = recycle
        # ``slabs``: None takes the global allocator, False forces the
        # seed's pooled-bytearray path (the differential harness's "old
        # copy path"), or pass an allocator.
        if slabs is None:
            self._slabs = slab_mod.global_slab_allocator
        elif slabs is False:
            self._slabs = None
        else:
            self._slabs = slabs
        self.stats = ManagerStats()

    # ------------------------------------------------------------------
    # Allocation / adoption
    # ------------------------------------------------------------------
    def allocate(
        self,
        layout: SkeletonLayout,
        capacity: int | None = None,
        allow_growth: bool = False,
    ) -> MessageRecord:
        """Create a record for a newly constructed message: a zeroed
        capacity-sized buffer whose current size is the skeleton size
        (the paper's overloaded ``new`` + registration step)."""
        capacity = capacity or layout.capacity
        if capacity < layout.skeleton_size:
            raise CapacityError(layout.type_name, layout.skeleton_size, capacity)
        slab = None
        if allow_growth and self._slabs is not None:
            # Growth records come from the size-classed slab arena: the
            # buffer is the full class, so in-class growth never moves
            # (and never invalidates typed casts).  Reused slabs carry
            # stale bytes; only the skeleton needs re-zeroing here
            # (content grants zero themselves in expand()).
            slab = self._slabs.allocate(capacity)
            buffer = slab.buffer
            buffer[: layout.skeleton_size] = bytes(layout.skeleton_size)
            capacity = len(buffer)
        else:
            buffer = self._take_from_pool(capacity, layout.skeleton_size)
            if buffer is None:
                buffer = bytearray(capacity)
        record = MessageRecord(
            record_id=self._arena.next_allocation_id(),
            type_name=layout.type_name,
            base=self._arena.allocate(capacity),
            buffer=buffer,
            skeleton_size=layout.skeleton_size,
            size=layout.skeleton_size,
            capacity=capacity,
            state=MessageState.ALLOCATED,
            allow_growth=allow_growth,
            slab=slab,
        )
        self._insert(record)
        if slab is not None:
            with self._lock:
                self.stats.slab_allocations += 1
        return record

    def adopt(
        self,
        layout: SkeletonLayout,
        buffer: bytearray,
        byte_order: str = "<",
    ) -> MessageRecord:
        """Register a *received* buffer as a Published message without
        copying it (the dummy de-serialization routine of Section 4.3.1)."""
        if len(buffer) < layout.skeleton_size:
            raise ValueError(
                f"{layout.type_name}: received buffer shorter than skeleton"
            )
        record = MessageRecord(
            record_id=self._arena.next_allocation_id(),
            type_name=layout.type_name,
            base=self._arena.allocate(max(len(buffer), 1)),
            buffer=buffer,
            skeleton_size=layout.skeleton_size,
            size=len(buffer),
            capacity=len(buffer),
            state=MessageState.PUBLISHED,
            byte_order=byte_order,
        )
        with self._lock:
            self.stats.adopted += 1
        self._insert(record, count_alloc=False)
        return record

    def adopt_external(
        self, layout: SkeletonLayout, view: memoryview
    ) -> MessageRecord:
        """Adopt a *borrowed* buffer -- e.g. a memoryview over a shared
        memory slot -- as a Published message with **zero** copies.

        The record starts in external mode: reads go straight to the
        borrowed memory; the first write (or an explicit
        :meth:`MessageRecord.materialize`, issued by the transport before
        the slot is reclaimed) copies it into a private bytearray.
        External adoption assumes little-endian contents (SHMROS peers
        share a machine, hence a byte order).
        """
        if len(view) < layout.skeleton_size:
            raise ValueError(
                f"{layout.type_name}: external buffer shorter than skeleton"
            )
        if not isinstance(view, memoryview):
            view = memoryview(view)
        view = view.toreadonly()
        record = MessageRecord(
            record_id=self._arena.next_allocation_id(),
            type_name=layout.type_name,
            base=self._arena.allocate(max(len(view), 1)),
            buffer=view,  # type: ignore[arg-type] -- mutable only after materialize
            skeleton_size=layout.skeleton_size,
            size=len(view),
            capacity=len(view),
            state=MessageState.PUBLISHED,
            external=True,
        )
        with self._lock:
            self.stats.adopted += 1
            self.stats.adopted_external += 1
        self._insert(record, count_alloc=False)
        return record

    def _insert(self, record: MessageRecord, count_alloc: bool = True) -> None:
        record.manager = self
        with self._lock:
            index = bisect.bisect_left(self._bases, record.base)
            self._bases.insert(index, record.base)
            self._records.insert(index, record)
            if count_alloc:
                self.stats.allocated += 1
            self.stats.peak_live = max(self.stats.peak_live, len(self._records))

    # ------------------------------------------------------------------
    # Interior-address lookup and expansion
    # ------------------------------------------------------------------
    def find_record(self, address: int) -> MessageRecord:
        """Locate the record containing ``address`` (binary search over
        records ordered by start address, Section 4.3.3)."""
        with self._lock:
            index = bisect.bisect_right(self._bases, address) - 1
            if index >= 0:
                record = self._records[index]
                if record.contains(address):
                    return record
        raise UnknownRecordError(address)

    def expand(
        self, field_address: int, nbytes: int, zero: bool = True
    ) -> tuple[MessageRecord, int]:
        """Grant ``nbytes`` of content space to the field at
        ``field_address``.

        Returns ``(record, content_offset)`` where ``content_offset`` is
        relative to the start of the whole message.  The region is
        appended at the current end of the whole message and padded to the
        content alignment.  The grant is zero-filled unless the caller
        passes ``zero=False`` because it overwrites the entire grant
        itself (buffers may be recycled, so unwritten grant bytes would
        otherwise leak prior message contents onto the wire).
        """
        if nbytes < 0:
            raise ValueError("expansion size must be non-negative")
        record = self.find_record(field_address)
        with self._lock:
            if record.state is MessageState.DESTRUCTED:
                raise StaleMessageError(record.type_name)
            granted = align_content(nbytes)
            content_offset = record.size
            needed = content_offset + granted
            zero_grant = zero and granted > 0
            if needed > record.capacity:
                if not record.allow_growth:
                    raise CapacityError(record.type_name, needed, record.capacity)
                old_slab = record.slab
                if old_slab is not None and self._slabs is not None:
                    # Class promotion: the message outgrew its size
                    # class.  Copy into the next class and *release* the
                    # old slab -- outstanding readers pinned its
                    # generation, so it zombifies instead of recycling
                    # and their views stay byte-stable (copy-on-write).
                    new_slab = self._slabs.allocate(needed)
                    new_slab.buffer[:content_offset] = record.buffer[
                        :content_offset
                    ]
                    record.drop_casts()
                    record.slab = new_slab
                    record.buffer = new_slab.buffer
                    record.capacity = len(new_slab.buffer)
                    self._slabs.release(old_slab)
                    self.stats.slab_promotions += 1
                else:
                    # Growth mode: extend the backing bytearray in
                    # place.  A Python bytearray may relocate internally
                    # but every view holds the same object, so this is
                    # safe (unlike C++).  Typed views must be dropped
                    # first: a bytearray with exported memoryviews
                    # cannot be resized.
                    record.drop_casts()
                    record.writable().extend(bytes(needed - record.capacity))
                    record.capacity = needed
            record.size = needed
            if zero_grant:
                # Guarantee the grant is zeroed: recycled buffers carry
                # stale bytes, and alignment padding must not leak prior
                # message contents onto the wire.
                record.writable()[content_offset:needed] = bytes(granted)
            self.stats.expansions += 1
            self.stats.bytes_expanded += granted
            return record, content_offset

    # ------------------------------------------------------------------
    # State transitions and reference counting
    # ------------------------------------------------------------------
    def publish(self, record: MessageRecord) -> BufferPointer:
        """Transition to Published and hand a buffer-pointer copy to the
        caller (the transport's reference, Fig. 8)."""
        with self._lock:
            if record.state is MessageState.DESTRUCTED:
                raise StaleMessageError(record.type_name)
            record.state = MessageState.PUBLISHED
            record.buffer_refs += 1
            self.stats.published += 1
            return BufferPointer(self, record)

    def acquire_ref(self, record: MessageRecord) -> BufferPointer:
        """An additional counted reference (e.g. one per subscriber link)."""
        with self._lock:
            if record.state is MessageState.DESTRUCTED:
                raise StaleMessageError(record.type_name)
            record.buffer_refs += 1
            return BufferPointer(self, record)

    def release_ref(self, record: MessageRecord) -> None:
        with self._lock:
            if record.state is MessageState.DESTRUCTED:
                return
            record.buffer_refs -= 1
            if record.buffer_refs <= 0:
                self._destruct(record)

    def release_object(self, record: MessageRecord) -> None:
        """The developer's code released the message object (the
        overloaded ``delete`` of Section 4.3.1): drop the record's own
        buffer pointer."""
        self.release_ref(record)

    def _destruct(self, record: MessageRecord) -> None:
        record.state = MessageState.DESTRUCTED
        index = bisect.bisect_left(self._bases, record.base)
        if index < len(self._bases) and self._bases[index] == record.base:
            del self._bases[index]
            del self._records[index]
        self.stats.destructed += 1
        # Drop typed views before the buffer heads to the pool: a pooled
        # buffer may be grown by its next record, which requires that no
        # memoryview exports remain.
        record.drop_casts()
        slab = record.slab
        if slab is not None:
            # Slab-backed buffers return to the slab arena, which defers
            # the recycle while any reader generation is still pinned.
            record.slab = None
            self._slabs.release(slab)
        elif self.recycle and isinstance(record.buffer, bytearray):
            # External (borrowed) buffers belong to the transport and
            # must never enter the recycling pool.
            shelf = self._pool.setdefault(record.capacity, [])
            if len(shelf) < self.POOL_DEPTH:
                shelf.append(record.buffer)
        record.external = False
        record.buffer = bytearray()  # the record must never alias the pool

    def _take_from_pool(self, capacity: int, skeleton_size: int):
        """Pop a recycled buffer (skeleton region re-zeroed) or None."""
        if not self.recycle:
            return None
        with self._lock:
            shelf = self._pool.get(capacity)
            if not shelf:
                return None
            buffer = shelf.pop()
            self.stats.pool_hits += 1
        buffer[:skeleton_size] = bytes(skeleton_size)
        return buffer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_count(self) -> int:
        """Number of records not yet destructed."""
        with self._lock:
            return len(self._records)

    def live_records(self) -> list[MessageRecord]:
        """A snapshot of all live records."""
        with self._lock:
            return list(self._records)

    def snapshot(self) -> dict:
        """One consistent public view of the manager: live-record
        aggregates, pool occupancy and the lifetime counters, gathered
        under a single lock acquisition.  Diagnostics and metrics
        collectors build on this instead of poking at ``_records`` /
        ``_pool`` directly."""
        with self._lock:
            live_by_type: dict[str, int] = {}
            live_by_state: dict[str, int] = {}
            live_bytes = 0
            live_capacity_bytes = 0
            for record in self._records:
                live_by_type[record.type_name] = (
                    live_by_type.get(record.type_name, 0) + 1
                )
                live_by_state[record.state.value] = (
                    live_by_state.get(record.state.value, 0) + 1
                )
                live_bytes += record.size
                live_capacity_bytes += record.capacity
            pool_buffers = sum(len(shelf) for shelf in self._pool.values())
            pool_bytes = sum(
                capacity * len(shelf)
                for capacity, shelf in self._pool.items()
            )
            doc = {
                "live_records": len(self._records),
                "live_by_type": live_by_type,
                "live_by_state": live_by_state,
                "live_bytes": live_bytes,
                "live_capacity_bytes": live_capacity_bytes,
                "pool_buffers": pool_buffers,
                "pool_bytes": pool_bytes,
                "counters": self.stats.snapshot(),
            }
        if self._slabs is not None:
            doc["slabs"] = self._slabs.snapshot()
        return doc

    def reset_stats(self) -> None:
        """Zero the lifetime counters (records stay untouched)."""
        with self._lock:
            self.stats = ManagerStats()


#: ``sfm::gmm`` -- the global message manager object.
global_message_manager = MessageManager()
