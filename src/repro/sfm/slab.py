"""Size-classed slabs for unsized (growth-enabled) SFM messages.

The seed's growth story stops where the paper's does: a growing vector
re-grants its content at the end of the message and, when the capacity
runs out, the manager extends the backing ``bytearray`` -- a full copy of
everything already written.  Agnocast (PAPERS.md) shows the missing
piece for *unsized* types: allocate from power-of-two **size classes**
so a message that grows within its class never moves, and only a class
*promotion* (outgrowing the class) pays a copy.

This module is that allocator.  It deliberately knows nothing about
messages; the manager routes growth-enabled records through it:

- :meth:`SlabAllocator.allocate` returns a :class:`Slab` whose buffer is
  the full class size, so in-class growth is a bookkeeping change (the
  record's ``size`` moves, the buffer -- and every typed cast built over
  it -- stays put);
- readers (buffer pointers handed to transports) **pin** the slab's
  current *generation*; :meth:`SlabAllocator.release` recycles a slab
  only when no generation is pinned, otherwise it parks it as a
  *zombie* -- the copy-on-write half of the contract: a promoted or
  destructed buffer stays byte-stable under every outstanding reader,
  and the generation tag makes "recycled under a held reader" a
  checkable invariant rather than a silent aliasing bug;
- :meth:`SlabAllocator.check` audits the whole arena (free-list
  accounting, no overlapping live buffers, generation monotonicity) and
  is called after every step by the differential harness
  (``tests/test_sfm_slab_differential.py``).

``MessageManager(slabs=False)`` keeps the seed's pooled-``bytearray``
path as the reference the differential harness compares against.
"""

from __future__ import annotations

import threading

#: Smallest class handed out; growth records smaller than this still get
#: a full class so their first few growths are free.
MIN_CLASS = 256

#: Per-class free-list depth (mirrors the manager's buffer pool depth).
FREE_DEPTH = 8


def size_class(nbytes: int) -> int:
    """The smallest power-of-two class holding ``nbytes``."""
    need = max(int(nbytes), MIN_CLASS)
    return 1 << (need - 1).bit_length()


class SlabError(RuntimeError):
    """An allocator invariant was violated (only raised by audits)."""


class Slab:
    """One size-classed buffer with a generation tag.

    ``generation`` counts recycles: it bumps every time the slab returns
    to the free list, so a pin taken at generation ``g`` proves the
    bytes written under ``g`` are still the bytes a reader sees.  States:

    - ``live``: owned by exactly one record;
    - ``zombie``: released while generations were still pinned (bytes
      frozen for the readers; recycles when the last pin drops);
    - ``free``: on the free list, unpinned, ready for reuse.
    """

    __slots__ = (
        "slab_id", "class_bytes", "buffer", "generation", "state", "pins",
        "allocator",
    )

    def __init__(self, allocator: "SlabAllocator", slab_id: int,
                 class_bytes: int) -> None:
        self.allocator = allocator
        self.slab_id = slab_id
        self.class_bytes = class_bytes
        self.buffer = bytearray(class_bytes)
        self.generation = 0
        self.state = "live"
        #: generation -> outstanding pin count
        self.pins: dict[int, int] = {}

    def pin(self) -> int:
        return self.allocator.pin(self)

    def unpin(self, generation: int) -> None:
        self.allocator.unpin(self, generation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Slab #{self.slab_id} {self.class_bytes}B "
                f"gen={self.generation} {self.state} pins={self.pins}>")


class SlabAllocator:
    """Size-classed slab arena with generation-tagged reclamation."""

    def __init__(self, free_depth: int = FREE_DEPTH) -> None:
        self._lock = threading.Lock()
        self._free_depth = free_depth
        #: class_bytes -> free slabs (LIFO for cache warmth)
        self._free: dict[int, list[Slab]] = {}
        #: every slab still tracked (live + zombie + free)
        self._slabs: dict[int, Slab] = {}
        self._next_id = 1
        self.stats = {
            "allocated": 0,        # allocate() calls
            "reused": 0,           # ... served from a free list
            "released": 0,         # release() calls
            "recycled": 0,         # slabs that reached the free list
            "deferred": 0,         # releases parked as zombies
            "retired": 0,          # dropped (free list full)
            "live": 0,
            "zombies": 0,
        }

    # ------------------------------------------------------------------
    # Allocation / reclamation
    # ------------------------------------------------------------------
    def allocate(self, min_bytes: int) -> Slab:
        """A live slab of the class covering ``min_bytes``.

        Reused slabs keep their (bumped) generation and their stale
        bytes; callers that need zeroed memory zero their own prefix --
        the manager zeroes the skeleton, and grown content regions are
        zeroed by the grant that exposes them.
        """
        cls = size_class(min_bytes)
        with self._lock:
            self.stats["allocated"] += 1
            bucket = self._free.get(cls)
            if bucket:
                slab = bucket.pop()
                if slab.state != "free" or slab.pins:  # pragma: no cover
                    raise SlabError(f"corrupt free list entry: {slab!r}")
                slab.state = "live"
                self.stats["reused"] += 1
                self.stats["live"] += 1
                return slab
            slab = Slab(self, self._next_id, cls)
            self._next_id += 1
            self._slabs[slab.slab_id] = slab
            self.stats["live"] += 1
            return slab

    def release(self, slab: Slab) -> None:
        """Return a live slab.  Recycles immediately when unpinned,
        otherwise zombifies it until the last pinned generation drops."""
        with self._lock:
            if slab.state != "live":
                raise SlabError(f"release of non-live slab: {slab!r}")
            self.stats["released"] += 1
            self.stats["live"] -= 1
            if slab.pins:
                slab.state = "zombie"
                self.stats["deferred"] += 1
                self.stats["zombies"] += 1
                return
            self._recycle(slab)

    def _recycle(self, slab: Slab) -> None:
        # Lock held.  Generation bumps exactly here: new tenancy, new tag.
        slab.generation += 1
        bucket = self._free.setdefault(slab.class_bytes, [])
        if len(bucket) >= self._free_depth:
            slab.state = "retired"
            slab.buffer = bytearray()
            del self._slabs[slab.slab_id]
            self.stats["retired"] += 1
            return
        slab.state = "free"
        bucket.append(slab)
        self.stats["recycled"] += 1

    # ------------------------------------------------------------------
    # Generation pins (reader holds)
    # ------------------------------------------------------------------
    def pin(self, slab: Slab) -> int:
        """Pin the slab's current generation; returns the token to pass
        back to :meth:`unpin`."""
        with self._lock:
            generation = slab.generation
            slab.pins[generation] = slab.pins.get(generation, 0) + 1
            return generation

    def unpin(self, slab: Slab, generation: int) -> None:
        with self._lock:
            count = slab.pins.get(generation, 0)
            if count <= 0:
                raise SlabError(
                    f"unpin of unpinned generation {generation}: {slab!r}")
            if count == 1:
                del slab.pins[generation]
            else:
                slab.pins[generation] = count - 1
            if slab.state == "zombie" and not slab.pins:
                self.stats["zombies"] -= 1
                self._recycle(slab)

    # ------------------------------------------------------------------
    # Audits (the differential harness's teeth)
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Audit every invariant; raises :class:`SlabError` on the first
        violation.  Cheap enough to run after every harness step."""
        with self._lock:
            seen_free: set[int] = set()
            for cls, bucket in self._free.items():
                for slab in bucket:
                    if slab.slab_id in seen_free:
                        raise SlabError(f"slab on free list twice: {slab!r}")
                    seen_free.add(slab.slab_id)
                    if slab.state != "free":
                        raise SlabError(f"free-list slab not free: {slab!r}")
                    if slab.pins:
                        raise SlabError(
                            f"free-list slab still pinned: {slab!r}")
                    if slab.class_bytes != cls:
                        raise SlabError(
                            f"slab in wrong class bucket {cls}: {slab!r}")
                    if self._slabs.get(slab.slab_id) is not slab:
                        raise SlabError(f"free slab untracked: {slab!r}")
            counts = {"live": 0, "zombie": 0, "free": 0}
            buffers: dict[int, Slab] = {}
            for slab in self._slabs.values():
                if slab.state not in counts:
                    raise SlabError(f"tracked slab in odd state: {slab!r}")
                counts[slab.state] += 1
                if slab.state == "free" and slab.slab_id not in seen_free:
                    raise SlabError(f"free slab off the free list: {slab!r}")
                if len(slab.buffer) != slab.class_bytes:
                    raise SlabError(f"slab buffer resized: {slab!r}")
                other = buffers.get(id(slab.buffer))
                if other is not None:
                    raise SlabError(
                        f"overlapping live ranges: {slab!r} and {other!r} "
                        f"share a buffer")
                buffers[id(slab.buffer)] = slab
                for generation in slab.pins:
                    if generation > slab.generation:
                        raise SlabError(
                            f"pin from the future (generation went "
                            f"backwards): {slab!r}")
            if counts["live"] != self.stats["live"]:
                raise SlabError(
                    f"live accounting drift: counted {counts['live']}, "
                    f"stats say {self.stats['live']}")
            if counts["zombie"] != self.stats["zombies"]:
                raise SlabError(
                    f"zombie accounting drift: counted {counts['zombie']}, "
                    f"stats say {self.stats['zombies']}")
            if counts["free"] != len(seen_free):
                raise SlabError("free accounting drift")

    def generations(self) -> dict[int, int]:
        """slab_id -> current generation, for monotonicity witnesses."""
        with self._lock:
            return {s.slab_id: s.generation for s in self._slabs.values()}

    def snapshot(self) -> dict:
        with self._lock:
            stats = dict(self.stats)
            stats["tracked"] = len(self._slabs)
            stats["free_lists"] = {
                cls: len(bucket) for cls, bucket in self._free.items()
                if bucket
            }
            return stats


#: Allocator behind the global message manager.
global_slab_allocator = SlabAllocator()
