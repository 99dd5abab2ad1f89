"""Tests for the message life-cycle manager (paper Figs. 8/9, S4.3.3)."""

import pytest

from repro.sfm.errors import CapacityError, StaleMessageError, UnknownRecordError
from repro.sfm.layout import layout_for
from repro.sfm.manager import MessageManager, MessageState


@pytest.fixture
def image_layout(registry):
    return layout_for("rossf_bench/SimpleImage")


class TestAllocation:
    def test_allocate_registers_record(self, manager, image_layout):
        record = manager.allocate(image_layout)
        assert record.state is MessageState.ALLOCATED
        assert record.size == image_layout.skeleton_size
        assert record.capacity == image_layout.capacity
        assert manager.live_count() == 1

    def test_buffer_zeroed(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=64)
        assert bytes(record.buffer) == bytes(64)

    def test_capacity_below_skeleton_rejected(self, manager, image_layout):
        with pytest.raises(CapacityError):
            manager.allocate(image_layout, capacity=4)

    def test_adopt_enters_published(self, manager, image_layout):
        buffer = bytearray(image_layout.skeleton_size)
        record = manager.adopt(image_layout, buffer)
        assert record.state is MessageState.PUBLISHED
        assert record.buffer is buffer  # zero copy

    def test_adopt_short_buffer_rejected(self, manager, image_layout):
        with pytest.raises(ValueError):
            manager.adopt(image_layout, bytearray(3))


class TestInteriorAddressLookup:
    def test_find_by_base_and_interior(self, manager, image_layout):
        record = manager.allocate(image_layout)
        assert manager.find_record(record.base) is record
        assert manager.find_record(record.base + 10) is record
        assert manager.find_record(record.end - 1) is record

    def test_unknown_address_raises(self, manager, image_layout):
        record = manager.allocate(image_layout)
        with pytest.raises(UnknownRecordError):
            manager.find_record(record.end + 1)
        with pytest.raises(UnknownRecordError):
            manager.find_record(record.base - 1)

    def test_many_records_binary_search(self, manager, image_layout):
        records = [manager.allocate(image_layout, capacity=256)
                   for _ in range(50)]
        for record in records:
            assert manager.find_record(record.base + 100) is record

    def test_destructed_record_not_found(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=128)
        base = record.base
        manager.release_object(record)
        with pytest.raises(UnknownRecordError):
            manager.find_record(base)


class TestExpansion:
    def test_expand_appends_at_end(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=256)
        _, offset1 = manager.expand(record.base + 0, 10)
        assert offset1 == image_layout.skeleton_size
        _, offset2 = manager.expand(record.base + 16, 8)
        assert offset2 == image_layout.skeleton_size + 12  # 10 aligned to 12

    def test_expand_alignment(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=256)
        manager.expand(record.base, 1)
        assert record.size == image_layout.skeleton_size + 4

    def test_expand_beyond_capacity_raises(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=32)
        with pytest.raises(CapacityError):
            manager.expand(record.base, 1000)

    def test_expand_with_growth_mode(self, manager, image_layout):
        record = manager.allocate(
            image_layout, capacity=32, allow_growth=True
        )
        _, offset = manager.expand(record.base, 1000)
        assert record.capacity >= offset + 1000
        assert len(record.buffer) == record.capacity

    def test_expand_zeroes_grant_by_default(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=256)
        record.buffer[24:36] = b"x" * 12  # dirty the future grant
        record.size = image_layout.skeleton_size
        _, offset = manager.expand(record.base, 12)
        assert bytes(record.buffer[offset : offset + 12]) == bytes(12)

    def test_expand_stats(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=256)
        manager.expand(record.base, 10)
        assert manager.stats.expansions == 1
        assert manager.stats.bytes_expanded == 12


class TestLifecycle:
    def test_publish_then_release_order(self, manager, image_layout):
        """Fig. 8: developer releases first, transport still holds."""
        record = manager.allocate(image_layout, capacity=64)
        pointer = manager.publish(record)
        assert record.state is MessageState.PUBLISHED
        assert record.buffer_refs == 2
        manager.release_object(record)
        assert record.state is MessageState.PUBLISHED  # transport holds on
        pointer.release()
        assert record.state is MessageState.DESTRUCTED
        assert manager.live_count() == 0

    def test_transport_releases_first(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=64)
        pointer = manager.publish(record)
        pointer.release()
        assert record.state is MessageState.PUBLISHED
        manager.release_object(record)
        assert record.state is MessageState.DESTRUCTED

    def test_release_before_publish_frees_immediately(self, manager,
                                                      image_layout):
        """Fig. 8: 'If a message is released ... before published, the
        reference count instantly becomes zero'."""
        record = manager.allocate(image_layout, capacity=64)
        manager.release_object(record)
        assert record.state is MessageState.DESTRUCTED

    def test_pointer_release_idempotent(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=64)
        with manager.publish(record) as pointer:
            assert record.buffer_refs == 2
        pointer.release()  # the block already released it: no double decrement
        assert record.state is MessageState.PUBLISHED
        manager.release_object(record)
        assert record.state is MessageState.DESTRUCTED

    def test_multiple_subscriber_refs(self, manager, image_layout):
        """One counted reference per subscriber link."""
        record = manager.allocate(image_layout, capacity=64)
        pointers = [manager.acquire_ref(record) for _ in range(3)]
        manager.release_object(record)
        for pointer in pointers[:-1]:
            pointer.release()
            assert record.state is not MessageState.DESTRUCTED
        pointers[-1].release()
        assert record.state is MessageState.DESTRUCTED

    def test_publish_destructed_raises(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=64)
        manager.release_object(record)
        with pytest.raises(StaleMessageError):
            manager.publish(record)

    def test_expand_destructed_raises(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=64)
        base = record.base
        manager.release_object(record)
        with pytest.raises((StaleMessageError, UnknownRecordError)):
            manager.expand(base, 4)

    def test_subscriber_lifecycle(self, manager, image_layout):
        """Fig. 9: adopted message destructs when the callback's object
        pointer (and any copies) are gone."""
        buffer = bytearray(image_layout.skeleton_size)
        record = manager.adopt(image_layout, buffer)
        extra = manager.acquire_ref(record)  # a copy kept by the callback
        manager.release_object(record)      # callback returned
        assert record.state is MessageState.PUBLISHED
        extra.release()
        assert record.state is MessageState.DESTRUCTED


class TestBufferPool:
    def test_destructed_buffer_recycled(self, image_layout):
        manager = MessageManager()
        first = manager.allocate(image_layout, capacity=4096)
        buffer = first.buffer
        manager.release_object(first)
        second = manager.allocate(image_layout, capacity=4096)
        assert second.buffer is buffer

    def test_recycled_skeleton_rezeroed(self, image_layout):
        manager = MessageManager()
        first = manager.allocate(image_layout, capacity=4096)
        first.buffer[: image_layout.skeleton_size] = b"q" * image_layout.skeleton_size
        manager.release_object(first)
        second = manager.allocate(image_layout, capacity=4096)
        assert bytes(second.buffer[: image_layout.skeleton_size]) == bytes(
            image_layout.skeleton_size
        )

    def test_pool_depth_bounded(self, image_layout):
        manager = MessageManager()
        records = [manager.allocate(image_layout, capacity=1024)
                   for _ in range(20)]
        for record in records:
            manager.release_object(record)
        assert len(manager._pool[1024]) <= MessageManager.POOL_DEPTH

    def test_recycling_disabled(self, image_layout):
        manager = MessageManager(recycle=False)
        first = manager.allocate(image_layout, capacity=1024)
        buffer = first.buffer
        manager.release_object(first)
        second = manager.allocate(image_layout, capacity=1024)
        assert second.buffer is not buffer


class TestStats:
    def test_counters(self, manager, image_layout):
        record = manager.allocate(image_layout, capacity=64)
        manager.publish(record).release()
        manager.release_object(record)
        snap = manager.stats.snapshot()
        assert snap["allocated"] == 1
        assert snap["published"] == 1
        assert snap["destructed"] == 1
        manager.reset_stats()
        assert manager.stats.allocated == 0
