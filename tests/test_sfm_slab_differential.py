"""Differential harness: slab-backed growth vs the seed's copy path.

Two message managers run the *same* seeded op sequence -- one routing
growth records through :class:`repro.sfm.slab.SlabAllocator`, one forced
onto the seed's pooled-``bytearray`` path (``slabs=False``).  After every
step the harness asserts

- **byte-for-byte wire equality**: ``buffer[:size]`` of both records is
  identical, so the slab path is invisible on the wire;
- **slab invariants** via :meth:`SlabAllocator.check` (free-list
  accounting, no overlapping live buffers, generation sanity);
- **generation monotonicity**: a slab's generation never decreases;
- **held-view stability**: a reader view pinned before a class promotion
  or a record release keeps its exact bytes afterwards -- if the
  allocator ever recycled a pinned slab, the next tenant's writes would
  scribble the frozen snapshot and this harness catches it.

Three fixed seeds run in tier-1; ``REPRO_SOAK=1`` unlocks the 100-seed
soak (the CI nightly's job).
"""

import random

import pytest

from repro import config
from repro.sfm.generator import sfm_class_for
from repro.sfm.manager import MessageManager
from repro.sfm.slab import SlabAllocator, size_class

SEEDS = tuple(range(100)) if config.soak() else (1, 2, 3)

TYPE_NAME = "sensor_msgs/PointCloud2"


class _Hold:
    """One reader hold: a pinned buffer pointer plus the live view.

    While the record still owns the buffer the publisher may mutate it
    (that is the republish-delta contract), so stability is only
    assertable once the buffer *detaches* -- a class promotion swaps the
    record onto a new slab, a release drops its tenancy.  From that
    moment the old bytes are frozen for this reader.
    """

    def __init__(self, manager, record):
        self.pointer = manager.publish(record)
        self.record = record
        self.buffer = record.buffer
        self.view = memoryview(record.buffer)[: record.size]
        self.frozen = None

    def maybe_freeze(self):
        if self.frozen is None and (
            self.record.buffer is not self.buffer
            or self.record.state.name == "DESTRUCTED"
        ):
            self.frozen = bytes(self.view)

    def assert_stable(self):
        if self.frozen is not None:
            assert bytes(self.view) == self.frozen, (
                "held reader view changed after its buffer detached: "
                "a pinned slab was recycled under the reader"
            )

    def release(self):
        self.view.release()
        self.pointer.release()


class _Side:
    """One arm of the differential: a manager and its current message."""

    def __init__(self, slabs):
        self.manager = MessageManager(slabs=slabs)
        self.msg_class = sfm_class_for(TYPE_NAME)
        self.msg = None
        self.new_message()

    def new_message(self):
        self.msg = self.msg_class(
            _capacity=size_class(8192),
            _allow_growth=True,
            _manager=self.manager,
        )

    def wire(self) -> bytes:
        record = self.msg._record
        return bytes(record.buffer[: record.size])


def _apply(side: _Side, op, rng_bytes):
    """Apply one op; ``rng_bytes`` is shared so both sides write the
    same content."""
    msg = side.msg
    kind = op[0]
    if kind == "grow":
        _, count, fill = op
        data = msg.data
        old = len(data)
        data.resize(old + count)
        for index in range(old, old + count):
            data[index] = fill
    elif kind == "reassign":
        _, payload = op
        msg.data = payload
    elif kind == "shrink":
        _, count = op
        data = msg.data
        data.resize(min(count, len(data)))
    elif kind == "scalar":
        _, height, width = op
        msg.height = height
        msg.width = width
    elif kind == "frame":
        _, name = op
        msg.header.frame_id = name
    elif kind == "crash":
        # The publisher dies mid-sequence: the record is released while
        # readers may still hold views; both sides start a fresh message.
        side.manager.release_object(msg._record)
        side.new_message()


def _random_op(rng: random.Random, step: int):
    roll = rng.random()
    if roll < 0.30:
        return ("grow", rng.randrange(1, 600), rng.randrange(256))
    if roll < 0.50:
        return ("reassign", bytes(rng.randrange(256)
                                  for _ in range(rng.randrange(0, 2000))))
    if roll < 0.65:
        return ("shrink", rng.randrange(0, 1200))
    if roll < 0.78:
        return ("scalar", rng.randrange(2 ** 16), rng.randrange(2 ** 16))
    if roll < 0.88:
        return ("frame", f"frame_{step}_{rng.randrange(1000)}")
    if roll < 0.94:
        return ("hold",)
    if roll < 0.97:
        return ("release",)
    return ("crash",)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_random_ops(seed):
    rng = random.Random(seed)
    allocator = SlabAllocator()
    slab_side = _Side(slabs=allocator)
    copy_side = _Side(slabs=False)
    holds: list[_Hold] = []
    last_generations: dict[int, int] = {}
    steps = 60 if config.soak() else 40
    for step in range(steps):
        op = _random_op(rng, step)
        if op[0] == "hold":
            holds.append(_Hold(slab_side.manager, slab_side.msg._record))
            continue
        if op[0] == "release":
            if holds:
                holds.pop(rng.randrange(len(holds))).release()
            continue
        _apply(slab_side, op, rng)
        _apply(copy_side, op, rng)
        # 1. The slab path must be invisible on the wire.
        assert slab_side.wire() == copy_side.wire(), (
            f"seed {seed} step {step} op {op[0]}: wire bytes diverged"
        )
        # 2. Arena invariants hold after every step.
        allocator.check()
        # 3. Generations only move forward.
        generations = allocator.generations()
        for slab_id, generation in generations.items():
            assert generation >= last_generations.get(slab_id, 0), (
                f"seed {seed} step {step}: slab {slab_id} generation "
                "went backwards"
            )
        last_generations.update(generations)
        # 4. Every detached reader view keeps its exact bytes.
        for hold in holds:
            hold.maybe_freeze()
            hold.assert_stable()
    for hold in holds:
        hold.maybe_freeze()
        hold.assert_stable()
        hold.release()
    slab_side.manager.release_object(slab_side.msg._record)
    copy_side.manager.release_object(copy_side.msg._record)
    allocator.check()


def test_shrink_then_grow_never_rexposes_old_region():
    """The aliasing witness: a shrunk content region is leaked, never
    re-granted -- a reader holding the old bytes must not see the new
    elements scribble them."""
    allocator = SlabAllocator()
    manager = MessageManager(slabs=allocator)
    cls = sfm_class_for(TYPE_NAME)
    msg = cls(_allow_growth=True, _manager=manager)
    msg.data = bytes(range(100)) * 2  # 200 bytes of recognizable content
    record = msg._record
    content_start = msg.data._content_start()
    held = memoryview(record.buffer)[content_start : content_start + 200]
    before = bytes(held)
    msg.data.resize(10)
    msg.data.resize(400)  # shrunk region: must re-grant, not re-expose
    for index in range(10, 400):
        msg.data[index] = 0xAB
    assert bytes(held) == before, (
        "grown elements were written into the shrunk (leaked) region"
    )
    # The wire still reads back the correct logical content.
    assert bytes(msg.data)[:10] == bytes(range(10))
    assert bytes(msg.data)[10:] == b"\xab" * 390
    held.release()
    manager.release_object(record)
    allocator.check()


def test_reader_view_stable_across_promotion():
    """A reader pinned before a class promotion keeps byte-stable data,
    and the old slab's generation is not recycled while pinned."""
    allocator = SlabAllocator()
    manager = MessageManager(slabs=allocator)
    cls = sfm_class_for(TYPE_NAME)
    msg = cls(_capacity=size_class(4096), _allow_growth=True,
              _manager=manager)
    msg.data = b"\x5a" * 2048
    record = msg._record
    old_slab = record.slab
    hold = _Hold(manager, record)
    # Outgrow the class: the record moves to a bigger slab, the old one
    # is released under our pin.
    msg.data.resize(record.capacity + 4096)
    assert record.slab is not old_slab, "expected a class promotion"
    assert manager.stats.slab_promotions == 1
    hold.maybe_freeze()
    assert hold.frozen is not None
    assert f"gen={old_slab.generation} " in repr(old_slab)
    assert "pins={}" not in repr(old_slab)  # the reader's pin shows
    hold.assert_stable()
    # Recycle pressure: churn allocations in the old class.  The pinned
    # slab must never be handed out again while the pin is live.
    for _ in range(20):
        churn = allocator.allocate(2048)
        assert churn is not old_slab, "pinned slab recycled under a reader"
        churn.buffer[:2048] = b"\xff" * 2048
        allocator.release(churn)
        hold.assert_stable()
    allocator.check()
    hold.release()
    manager.release_object(record)
    allocator.check()


def test_generation_bumps_on_recycle():
    allocator = SlabAllocator()
    slab = allocator.allocate(1000)
    first = slab.generation
    allocator.release(slab)
    again = allocator.allocate(1000)
    assert again is slab and again.generation == first + 1
    allocator.release(again)
    allocator.check()
