"""Chaos: slab reclamation and TZC truncation under real failures.

Two scenarios guard the new unsized/partial-serialization machinery:

- a subscriber dies *mid-growth* of a slab-backed message stream: the
  publisher's ring drops the dead reader, publishing continues, and when
  the message is finally released every slab is reclaimed -- while a
  reader-pinned generation is live its bytes are never recycled;
- a TZC bulk frame is truncated mid-transfer: the link dies cleanly (no
  partial message is ever delivered), the retry ladder redials, and
  delivery resumes -- the wedge-free downgrade contract from the
  failover ladder applied to the new framing.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.ros.retry import RetryPolicy, wait_until
from repro.ros.transport import shm, tzc
from repro.sfm.generator import sfm_class_for
from repro.sfm.manager import MessageManager
from repro.sfm.slab import SlabAllocator

#: Tight timers: failures must be noticed inside a test-sized window.
SHM_KNOBS = dict(shmros=True, link_keepalive=0.1, link_idle_timeout=1.0)
TZC_KNOBS = dict(shmros=False, link_keepalive=0.1, link_idle_timeout=1.0)


@pytest.mark.skipif(
    not shm.shm_available() or shm.env_disabled(),
    reason="shared memory unavailable",
)
def test_subscriber_death_mid_growth_reclaims_slabs(
    chaos_master, node_factory, plan_factory
):
    plan = plan_factory(seed=11)
    pub_node = node_factory("reclaim_pub", **SHM_KNOBS)
    sub_node = node_factory("reclaim_sub", **SHM_KNOBS)

    allocator = SlabAllocator()
    manager = MessageManager(slabs=allocator)
    cls = sfm_class_for("sensor_msgs/PointCloud2")

    got: list[int] = []
    publisher = pub_node.advertise("/reclaim", cls)
    sub_node.subscribe("/reclaim", cls, lambda msg: got.append(len(msg.data)))
    wait_until(lambda: publisher.get_num_connections() == 1,
               desc="link up")

    # A small starting class so the growth below forces a promotion.
    msg = cls(_capacity=2048, _allow_growth=True, _manager=manager)
    msg.data = b"\x11" * 1024
    record = msg._record

    # A reader pins the pre-growth generation; its bytes must survive
    # everything below.
    pointer = record.manager.publish(record)
    held = memoryview(pointer.buffer)[: pointer.size]
    frozen_after_detach: list[bytes] = []
    old_buffer = record.buffer

    def publish_and_grow(rounds: int) -> None:
        for _ in range(rounds):
            data = msg.data
            grown = len(data) + 512
            data.resize(grown)
            for index in range(grown - 512, grown):
                data[index] = grown % 251
            publisher.publish(msg)
            if not frozen_after_detach and record.buffer is not old_buffer:
                # Class promotion happened: the held view detaches and
                # its bytes freeze.
                frozen_after_detach.append(bytes(held))
            time.sleep(0.01)

    publish_and_grow(5)
    wait_until(lambda: len(got) >= 3, desc="pre-kill delivery")

    # Kill the subscriber mid-stream: no goodbye, both ends see a reset.
    assert plan.sever(role="subscriber") >= 1
    sub_node.shutdown()

    # The publisher must keep publishing and growing without wedging.
    publish_and_grow(20)
    assert record.buffer is not old_buffer, "expected a class promotion"
    assert manager.stats.slab_promotions >= 1
    assert frozen_after_detach and bytes(held) == frozen_after_detach[0], (
        "held reader bytes changed: pinned generation was recycled"
    )
    allocator.check()

    # Release everything: the pinned slab recycles only after the pin
    # drops, and the arena audit stays clean throughout.
    snapshot = allocator.snapshot()
    assert snapshot["live"] >= 1
    held.release()
    pointer.release()
    manager.release_object(record)
    allocator.check()
    assert allocator.snapshot()["live"] == 0, "slabs leaked after release"
    assert allocator.snapshot()["zombies"] == 0

    pub_node.shutdown()


@pytest.mark.skipif(not tzc.tzc_enabled(),
                    reason="REPRO_TZC=0 disables negotiation")
def test_truncated_tzc_bulk_frame_recovers(chaos_master, node_factory,
                                           plan_factory):
    """Half a bulk frame, then a dead socket: the subscriber never sees
    a torn message, the retry ladder redials, delivery resumes."""
    plan = plan_factory(seed=23)
    pub_node = node_factory("trunc_pub", **TZC_KNOBS)
    # A redial delay long enough to observe the pending reconnect.
    sub_node = node_factory(
        "trunc_sub", link_retry=RetryPolicy(base_delay=0.25, jitter=0.0),
        **TZC_KNOBS,
    )

    cls = sfm_class_for("sensor_msgs/Image")
    payload = bytes(range(256)) * 64  # 16 KiB: comfortably a bulk range

    got: list[bytes] = []
    publisher = pub_node.advertise("/trunc", cls)
    subscriber = sub_node.subscribe(
        "/trunc", cls, lambda msg: got.append(bytes(msg.data))
    )
    wait_until(lambda: publisher.get_num_connections() == 1,
               desc="link up")
    wait_until(
        lambda: any(getattr(link, "tzc", False)
                    for link in publisher._links),
        desc="TZC negotiated",
    )

    def publish_one() -> None:
        msg = cls()
        msg.height, msg.width, msg.step = 64, 64, 256
        msg.data = payload
        publisher.publish(msg)

    publish_one()
    wait_until(lambda: len(got) >= 1, desc="clean TZC delivery")
    assert got[0] == payload
    threads = threading.active_count()

    # Truncate the next big publisher send (the vectored control+bulk
    # write) half-way, then kill the socket.
    plan.truncate(seam="tcpros", role="publisher", op="send",
                  min_size=len(payload) // 2, count=1)
    publish_one()

    # The link must die and redial rather than deliver a torn message.
    # The pending redial is a reactor timer: it costs no thread.
    wait_until(lambda: subscriber.link_state == "reconnecting",
               desc="reconnect pending")
    assert threading.active_count() <= threads
    wait_until(lambda: subscriber.stats()["retries"] >= 1, timeout=10.0,
               desc="retry after truncation")
    wait_until(
        lambda: subscriber.stats()["transports"].get("TCPROS"),
        timeout=10.0, desc="relinked after truncation",
    )
    mark = len(got)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and len(got) < mark + 3:
        publish_one()
        time.sleep(0.1)
    assert len(got) >= mark + 3, "delivery never resumed after truncation"
    assert all(item == payload for item in got), "a torn message leaked"
    assert any(
        event[0] == "truncate" for event in plan.events
    ), "the fault never fired"

    sub_node.shutdown()
    pub_node.shutdown()
