"""SHMROS: zero-copy shared-memory transport for intra-machine pub/sub.

The paper's thesis is that serialization, not the wire, dominates
intra-machine message cost.  TCPROS over loopback still pays two kernel
copies plus socket syscalls per message; since an SFM message *is* its
buffer, a message written once into a shared segment can be adopted by
another process with zero further copies (the TZC / Agnocast design
lineage -- see PAPERS.md).

Architecture
------------

- Each publisher owns a **ring** of fixed-size slots inside one
  ``multiprocessing.shared_memory`` segment.  ``Publisher.publish`` copies
  the encoded payload into a free slot exactly once, shared by every
  shared-memory subscriber (fan-out without re-copy).
- A small TCP **doorbell** connection per subscriber (the same socket that
  carried the TCPROS-style handshake) wakes the subscriber with a tiny
  control frame naming the slot, its sequence number and payload size;
  the subscriber maps the segment and reads the payload in place, then
  acknowledges the slot so the publisher can reuse it.
- Slots carry a generation header (sequence + size) written after the
  payload, so a subscriber that arrives late -- or reads a slot the
  publisher was forced to reclaim -- detects staleness instead of
  decoding torn bytes.
- Payloads larger than the current slot size trigger a **reseg**: the
  publisher allocates a bigger ring and tells each subscriber (in frame
  order) to re-attach; payloads are never silently truncated, and if
  shared memory is unavailable the payload travels inline over the
  doorbell socket, TCPROS-framed.

Slot reclamation: a slot stays busy until every notified subscriber has
acknowledged it.  When the ring is full, new payloads degrade to inline
delivery over the doorbell socket, so backlog depth is governed by the
publisher's ordinary ``queue_size`` -- and when a slow subscriber's queue
overflows, dropping the queued notification releases its slot hold.  A
slow or killed subscriber can therefore never wedge the publisher; its
losses surface in the link's ``dropped`` counter.  ``write(force=True)``
additionally supports reclaiming the oldest busy slot outright (bumping
its generation so stragglers see staleness instead of torn bytes).
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import uuid
from collections import deque
from typing import Callable, Iterable, Optional

try:  # pragma: no cover - exercised only where shm is unavailable
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Ring geometry defaults.  Slots grow adaptively (reseg) when a payload
#: does not fit, so the defaults only size the common case; untouched
#: slot pages are never committed by the kernel.
DEFAULT_SLOT_COUNT = 8
DEFAULT_SLOT_BYTES = 1 << 20

_MAGIC = 0x53484D52  # "SHMR"
_VERSION = 1
_RING_HEADER = struct.Struct("<IIIIQ")  # magic, version, slot_count, pad, slot_bytes
_RING_HEADER_SPACE = 64
_SLOT_HEADER = struct.Struct("<QQ")  # seq, size
_SLOT_HEADER_SPACE = 16
_PAGE = 4096

#: Doorbell control frames: a fixed header, optionally followed by a
#: body.  Every frame carries two trailing observability fields -- the
#: publisher's trace id (0 when untraced) and its publish timestamp in
#: monotonic nanoseconds -- so per-message tracing and the
#: publish-to-callback latency histogram need no extra round trip.
_FRAME = struct.Struct("<BIQQQQ")  # kind, a, b, c, trace_id, stamp_ns
KIND_SLOT = 1    # a=slot, b=seq, c=size
KIND_INLINE = 2  # c=size, followed by the payload bytes
KIND_RESEG = 3   # a=slot_count, b=len(name), c=slot_bytes, followed by name
KIND_ACK = 4     # a=slot, b=seq
KIND_KEEPALIVE = 5  # no operands; resets the reader's idle timer


# ----------------------------------------------------------------------
# Chaos seam: an installable interceptor for outgoing doorbell frames.
# ``hook(kind, sock, size) -> bool`` -- False swallows the frame (a
# stalled doorbell), True lets it through.  The transport never imports
# repro.chaos.
# ----------------------------------------------------------------------
_doorbell_hook = None


def install_doorbell_hook(hook) -> None:
    """Install (or with ``None`` remove) the doorbell send interceptor."""
    global _doorbell_hook
    _doorbell_hook = hook


def _doorbell_allows(kind: int, sock, size: int) -> bool:
    hook = _doorbell_hook
    if hook is None:
        return True
    return bool(hook(kind, sock, size))


class ShmTransportError(Exception):
    """Shared-memory transport failure (caller falls back to TCPROS)."""


class ShmAttachError(ShmTransportError):
    """The subscriber could not attach the publisher's segment."""


class SlotTooLarge(ShmTransportError):
    """Payload exceeds the ring's slot size (caller must reseg or inline)."""


def shm_available() -> bool:
    """Whether this interpreter/platform can serve shared memory."""
    return _shared_memory is not None


_machine_id: Optional[str] = None
_machine_id_lock = threading.Lock()


def machine_id() -> str:
    """A stable identifier for this machine, exchanged during transport
    negotiation so SHMROS is only offered to same-machine peers (a
    hostname alone is not unique across containers sharing a network)."""
    global _machine_id
    with _machine_id_lock:
        if _machine_id is None:
            boot = ""
            try:
                with open("/proc/sys/kernel/random/boot_id") as fh:
                    boot = fh.read().strip()
            except OSError:
                boot = f"{uuid.getnode():x}"
            _machine_id = f"{socket.gethostname()}:{boot}"
        return _machine_id


def _data_base(slot_count: int) -> int:
    """Offset of slot 0's payload area (page aligned past the headers)."""
    headers_end = _RING_HEADER_SPACE + slot_count * _SLOT_HEADER_SPACE
    return (headers_end + _PAGE - 1) // _PAGE * _PAGE


#: Segment names created by THIS process; attaching to one of these must
#: not unregister it from the resource tracker (the creator's unlink
#: performs the one matching unregister).
_local_segments: set[str] = set()


def _unregister_from_tracker(shm) -> None:
    """Detach an *attached* segment from the resource tracker: on
    CPython < 3.13 the tracker registers every ``SharedMemory`` and would
    unlink the publisher's segment when the subscriber exits."""
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class _BusySlot:
    """Publisher-side bookkeeping for one in-flight slot."""

    __slots__ = ("seq", "readers")

    def __init__(self, seq: int, readers: set) -> None:
        self.seq = seq
        self.readers = readers


class _Sticky:
    """Bookkeeping for one sticky (delta-updatable) slot.

    A slab-backed growth message republishes mostly-unchanged bytes; a
    sticky slot keeps the previous payload resident so the next publish
    of the same message copies only the skeleton prefix and the dirty
    tail (the stable middle is already in shared memory).  ``written``
    is the byte length the slot currently holds."""

    __slots__ = ("slot", "seq", "written")

    def __init__(self, slot: int, seq: int, written: int) -> None:
        self.slot = slot
        self.seq = seq
        self.written = written


class ShmRingWriter:
    """The publisher side of one shared-memory ring."""

    def __init__(
        self,
        slot_count: int = DEFAULT_SLOT_COUNT,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        seq_source=None,
        on_reclaim: Optional[Callable[[object], None]] = None,
    ) -> None:
        if not shm_available():
            raise ShmTransportError("shared memory is unavailable")
        if slot_count < 1 or slot_bytes < 1:
            raise ValueError("ring needs at least one non-empty slot")
        self.slot_count = slot_count
        self.slot_bytes = slot_bytes
        self._data_base = _data_base(slot_count)
        size = self._data_base + slot_count * slot_bytes
        self._shm = _shared_memory.SharedMemory(create=True, size=size)
        self.name = self._shm.name
        _local_segments.add(self.name)
        self._buf = self._shm.buf
        _RING_HEADER.pack_into(
            self._buf, 0, _MAGIC, _VERSION, slot_count, 0, slot_bytes
        )
        for slot in range(slot_count):
            _SLOT_HEADER.pack_into(self._buf, self._slot_header_at(slot), 0, 0)
        self._lock = threading.Lock()
        self._free: deque[int] = deque(range(slot_count))
        self._busy: dict[int, _BusySlot] = {}
        self._seq = seq_source if seq_source is not None else iter(
            range(1, 1 << 62)
        ).__next__
        self._on_reclaim = on_reclaim
        self.forced_reclaims = 0
        #: key -> sticky record; insertion order doubles as LRU order.
        self._sticky: dict[object, _Sticky] = {}
        self._sticky_slots: set[int] = set()
        #: Sticky slots are excluded from the free list, so cap them to a
        #: quarter of the ring -- ordinary traffic keeps its slots.
        self._max_sticky = max(1, slot_count // 4)
        self.delta_writes = 0
        self.delta_bytes = 0
        self._closed = False

    def _slot_header_at(self, slot: int) -> int:
        return _RING_HEADER_SPACE + slot * _SLOT_HEADER_SPACE

    def _slot_data_at(self, slot: int) -> int:
        return self._data_base + slot * self.slot_bytes

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(
        self, payload, readers: Iterable[object], force: bool = False
    ) -> Optional[tuple[int, int, int]]:
        """Copy ``payload`` into a free slot; returns (slot, seq, size).

        ``readers`` are opaque tokens (one per subscriber link) that must
        each :meth:`release` the slot before it is reused.  When no slot
        is free the write returns ``None`` so the caller can fall back to
        inline delivery (preserving queue semantics) -- unless ``force``
        is set, in which case the oldest busy slot is reclaimed: its
        pending readers are reported through ``on_reclaim`` and counted
        in :attr:`forced_reclaims`, and stragglers reading the reused
        slot see a changed sequence number instead of torn bytes.
        """
        size = len(payload)
        if size > self.slot_bytes:
            raise SlotTooLarge(
                f"payload of {size} bytes exceeds {self.slot_bytes}-byte slots"
            )
        reclaimed: list[object] = []
        with self._lock:
            if self._closed:
                raise ShmTransportError("ring is closed")
            if not self._free:
                if not force:
                    return None
                # Prefer non-sticky victims: a sticky slot's resident
                # bytes are what make the next delta write possible.
                candidates = [
                    s for s in self._busy if s not in self._sticky_slots
                ] or list(self._busy)
                victim = min(candidates, key=lambda s: self._busy[s].seq)
                if victim in self._sticky_slots:
                    for k, st in list(self._sticky.items()):
                        if st.slot == victim:
                            del self._sticky[k]
                    self._sticky_slots.discard(victim)
                reclaimed = list(self._busy.pop(victim).readers)
                self._free.append(victim)
                self.forced_reclaims += 1
            slot = self._free.popleft()
            seq = self._seq()
            header_at = self._slot_header_at(slot)
            data_at = self._slot_data_at(slot)
            # Invalidate the header before touching the payload area so a
            # straggling reader never matches a half-written slot.
            _SLOT_HEADER.pack_into(self._buf, header_at, 0, 0)
            self._buf[data_at : data_at + size] = payload
            _SLOT_HEADER.pack_into(self._buf, header_at, seq, size)
            self._busy[slot] = _BusySlot(seq, set(readers))
        if reclaimed and self._on_reclaim is not None:
            for reader in reclaimed:
                self._on_reclaim(reader)
        return slot, seq, size

    def release(self, slot: int, seq: int, reader: object) -> bool:
        """Drop ``reader``'s hold on (slot, seq); True if it matched."""
        with self._lock:
            busy = self._busy.get(slot)
            if busy is None or busy.seq != seq:
                return False
            busy.readers.discard(reader)
            if not busy.readers:
                del self._busy[slot]
                if not self._closed and slot not in self._sticky_slots:
                    self._free.append(slot)
            return True

    def drop_reader(self, reader: object) -> None:
        """Release every slot ``reader`` still holds (link death)."""
        with self._lock:
            for slot in list(self._busy):
                busy = self._busy[slot]
                busy.readers.discard(reader)
                if not busy.readers:
                    del self._busy[slot]
                    if not self._closed and slot not in self._sticky_slots:
                        self._free.append(slot)

    # ------------------------------------------------------------------
    # Sticky (delta) writes
    # ------------------------------------------------------------------
    def write_update(
        self,
        payload,
        readers: Iterable[object],
        key: object,
        prefix: int,
        stable: int,
    ) -> Optional[tuple[int, int, int]]:
        """Republish ``key``'s message, copying only what changed.

        ``prefix`` bytes at the head (the SFM skeleton) are always
        rewritten; bytes in ``[prefix, stable)`` are guaranteed by the
        caller to be byte-identical to the previous publish of ``key``
        (the record's dirty floor), so when the key's sticky slot is
        fully acknowledged the write touches only the skeleton and the
        dirty tail in place.  A sticky slot still held by an unacked
        reader is never mutated: the payload goes to a fresh slot
        (copy-on-write) and stickiness moves there.  Returns
        ``(slot, seq, size)``, or ``None`` when the ring is full (same
        inline fallback contract as :meth:`write`).
        """
        size = len(payload)
        if size > self.slot_bytes:
            raise SlotTooLarge(
                f"payload of {size} bytes exceeds {self.slot_bytes}-byte slots"
            )
        with self._lock:
            if self._closed:
                raise ShmTransportError("ring is closed")
            st = self._sticky.get(key)
            if st is not None and st.slot not in self._busy:
                # In-place rewrite of the acknowledged sticky slot.  The
                # stable range the slot can actually supply is capped by
                # what it holds from the previous write.
                effective = max(prefix, min(stable, st.written, size))
                slot = st.slot
                seq = self._seq()
                header_at = self._slot_header_at(slot)
                data_at = self._slot_data_at(slot)
                _SLOT_HEADER.pack_into(self._buf, header_at, 0, 0)
                view = memoryview(payload)
                if effective > prefix:
                    self._buf[data_at : data_at + prefix] = view[:prefix]
                    if effective < size:
                        self._buf[data_at + effective : data_at + size] = view[
                            effective:size
                        ]
                    self.delta_writes += 1
                    self.delta_bytes += prefix + (size - effective)
                else:
                    self._buf[data_at : data_at + size] = view
                _SLOT_HEADER.pack_into(self._buf, header_at, seq, size)
                self._busy[slot] = _BusySlot(seq, set(readers))
                st.seq = seq
                st.written = size
                self._sticky.pop(key)
                self._sticky[key] = st  # refresh LRU position
                return slot, seq, size
        # COW / first publish: full write to a fresh slot, then stick it.
        result = self.write(payload, readers)
        if result is None:
            return None
        slot, seq, size = result
        with self._lock:
            if self._closed:
                return result
            old = self._sticky.pop(key, None)
            if old is not None:
                self._unstick_slot(old.slot)
            self._sticky[key] = _Sticky(slot, seq, size)
            self._sticky_slots.add(slot)
            while len(self._sticky) > self._max_sticky:
                lru_key = next(iter(self._sticky))
                lru = self._sticky.pop(lru_key)
                self._unstick_slot(lru.slot)
        return result

    def _unstick_slot(self, slot: int) -> None:
        # Lock held.  A sticky slot bypassed the free list on its last
        # release; return it now unless a reader still holds it.
        self._sticky_slots.discard(slot)
        if (
            not self._closed
            and slot not in self._busy
            and slot not in self._free
        ):
            self._free.append(slot)

    def idle(self) -> bool:
        with self._lock:
            return not self._busy

    def busy_count(self) -> int:
        with self._lock:
            return len(self._busy)

    def close(self, unlink: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._busy.clear()
            self._free.clear()
            self._sticky.clear()
            self._sticky_slots.clear()
        self._buf = None
        try:
            self._shm.close()
        except OSError:  # pragma: no cover
            pass
        if unlink:
            # A subscriber spawned from this process shares our resource
            # tracker, so its attach-time unregister already consumed the
            # tracker entry; re-register (idempotent) so the unregister
            # inside ``unlink`` always finds one and the tracker does not
            # spew KeyError tracebacks.
            try:  # pragma: no cover - depends on interpreter internals
                from multiprocessing import resource_tracker

                resource_tracker.register(self._shm._name, "shared_memory")
            except Exception:
                pass
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
            _local_segments.discard(self.name)


class ShmRingReader:
    """The subscriber side: a read-only window onto a publisher's ring."""

    def __init__(self, name: str, slot_count: int, slot_bytes: int) -> None:
        if not shm_available():
            raise ShmAttachError("shared memory is unavailable")
        try:
            self._shm = _shared_memory.SharedMemory(name=name)
        except (OSError, ValueError, FileNotFoundError) as exc:
            raise ShmAttachError(f"cannot attach segment {name!r}: {exc}") from exc
        if name not in _local_segments:
            _unregister_from_tracker(self._shm)
        self._buf = self._shm.buf
        try:
            magic, version, count, _pad, nbytes = _RING_HEADER.unpack_from(
                self._buf, 0
            )
        except struct.error as exc:
            self.close()
            raise ShmAttachError(f"segment {name!r} too small") from exc
        if magic != _MAGIC or version != _VERSION:
            self.close()
            raise ShmAttachError(f"segment {name!r} is not a SHMROS ring")
        if count != slot_count or nbytes != slot_bytes:
            self.close()
            raise ShmAttachError(
                f"segment {name!r} geometry mismatch "
                f"({count}x{nbytes} != {slot_count}x{slot_bytes})"
            )
        self.name = name
        self.slot_count = slot_count
        self.slot_bytes = slot_bytes
        self._data_base = _data_base(slot_count)

    def slot_seq(self, slot: int) -> int:
        """The slot's current generation (0 while being rewritten)."""
        seq, _size = _SLOT_HEADER.unpack_from(
            self._buf, _RING_HEADER_SPACE + slot * _SLOT_HEADER_SPACE
        )
        return seq

    def payload_view(self, slot: int, size: int) -> memoryview:
        """Read-only zero-copy view of the slot's payload."""
        start = self._data_base + slot * self.slot_bytes
        return memoryview(self._buf)[start : start + size].toreadonly()

    def close(self) -> None:
        self._buf = None
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Doorbell control frames
# ----------------------------------------------------------------------
def frames_to_parts(sock, frames: list) -> list:
    """The iovec list for a batch of doorbell frames.

    ``frames`` are the tuples :class:`DoorbellDecoder` yields.  Each
    frame passes the chaos doorbell gate
    individually -- a fault plan that swallows slot announcements drops
    exactly those frames -- and the ones that pass are coalesced, in
    order, so a flushed backlog costs one syscall."""
    parts: list = []
    pending = bytearray()
    for frame in frames:
        kind = frame[0]
        if kind == "slot":
            _k, slot, seq, size, trace_id, stamp_ns = frame
            if not _doorbell_allows(KIND_SLOT, sock, size):
                continue
            pending += _FRAME.pack(
                KIND_SLOT, slot, seq, size, trace_id, stamp_ns
            )
        elif kind == "inline":
            _k, payload, trace_id, stamp_ns = frame
            if not _doorbell_allows(KIND_INLINE, sock, len(payload)):
                continue
            pending += _FRAME.pack(
                KIND_INLINE, 0, 0, len(payload), trace_id, stamp_ns
            )
            if len(payload) <= 8192:
                pending += payload
            else:
                parts.append(bytes(pending))
                pending = bytearray()
                parts.append(memoryview(payload))
        elif kind == "reseg":
            _k, name, slot_count, slot_bytes = frame
            encoded = name.encode("utf-8")
            if not _doorbell_allows(KIND_RESEG, sock, len(encoded)):
                continue
            pending += _FRAME.pack(
                KIND_RESEG, slot_count, len(encoded), slot_bytes, 0, 0
            )
            pending += encoded
        elif kind == "ack":
            _k, slot, seq = frame
            pending += ack_bytes(slot, seq)
        elif kind == "keepalive":
            if not _doorbell_allows(KIND_KEEPALIVE, sock, 0):
                continue
            pending += _FRAME.pack(KIND_KEEPALIVE, 0, 0, 0, 0, 0)
        else:  # pragma: no cover - caller bug
            raise ShmTransportError(f"cannot send frame kind {kind!r}")
    if pending:
        parts.append(bytes(pending))
    return parts


def ack_bytes(slot: int, seq: int) -> bytes:
    """The wire form of one ACK frame: the subscriber's per-message
    reply, queued on its link's write buffer on its own."""
    return _FRAME.pack(KIND_ACK, slot, seq, 0, 0, 0)


class DoorbellDecoder:
    """Incremental doorbell decoder.

    ``feed(chunk)`` returns every frame completed by the chunk -- one
    ``recv`` often carries a publisher's whole coalesced flush -- as
    ``(kind, ...)`` tuples:

    - ``("slot", slot, seq, size, trace_id, stamp_ns)``
    - ``("inline", payload_bytearray, trace_id, stamp_ns)``
    - ``("reseg", segment_name, slot_count, slot_bytes)``
    - ``("ack", slot, seq)``
    - ``("keepalive",)``

    Bodies (inline payloads, reseg names) spanning chunk boundaries are
    reassembled.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data) -> list:
        buf = self._buf
        buf += data
        events: list = []
        pos = 0
        while True:
            if len(buf) - pos < _FRAME.size:
                break
            kind, a, b, c, trace_id, stamp_ns = _FRAME.unpack_from(buf, pos)
            body_len = 0
            if kind == KIND_INLINE:
                body_len = c
            elif kind == KIND_RESEG:
                body_len = b
            total = _FRAME.size + body_len
            if len(buf) - pos < total:
                break
            body = buf[pos + _FRAME.size : pos + total]
            if kind == KIND_SLOT:
                events.append(("slot", a, b, c, trace_id, stamp_ns))
            elif kind == KIND_INLINE:
                events.append(("inline", body, trace_id, stamp_ns))
            elif kind == KIND_RESEG:
                events.append(("reseg", bytes(body).decode("utf-8"), a, c))
            elif kind == KIND_ACK:
                events.append(("ack", a, b))
            elif kind == KIND_KEEPALIVE:
                events.append(("keepalive",))
            else:
                raise ShmTransportError(
                    f"unknown doorbell frame kind {kind}"
                )
            pos += total
        if pos:
            del buf[:pos]
        return events


def next_slot_bytes(current: int, payload_size: int) -> int:
    """The grown slot size after a payload overflow: the next power of
    two comfortably above the payload (headroom for jitter in sizes)."""
    needed = max(current * 2, payload_size + (payload_size >> 2) + 64)
    grown = 1
    while grown < needed:
        grown <<= 1
    return grown


def env_disabled() -> bool:
    """Global kill switch: ``REPRO_SHMROS=0`` disables SHMROS entirely."""
    from repro import config

    return not config.shmros()
