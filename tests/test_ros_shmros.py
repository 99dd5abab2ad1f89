"""SHMROS: the shared-memory transport, from ring mechanics to two-process
zero-copy delivery."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.msg import library as L
from repro.ros import RosGraph
from repro.ros.transport import shm
from repro.rossf import sfm_classes_for
from tests.conftest import feed_splits

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="multiprocessing.shared_memory missing"
)


# ----------------------------------------------------------------------
# Ring mechanics (single process)
# ----------------------------------------------------------------------
class TestRing:
    def test_write_read_release_cycle(self):
        ring = shm.ShmRingWriter(slot_count=2, slot_bytes=64)
        try:
            reader = shm.ShmRingReader(ring.name, 2, 64)
            slot, seq, size = ring.write(b"hello", ["sub"])
            assert reader.slot_seq(slot) == seq
            view = reader.payload_view(slot, size)
            assert bytes(view) == b"hello"
            assert view.readonly
            del view
            reader.close()
            assert not ring.idle()
            assert ring.release(slot, seq, "sub")
            assert ring.idle()
        finally:
            ring.close()

    def test_full_ring_returns_none_without_force(self):
        ring = shm.ShmRingWriter(slot_count=1, slot_bytes=64)
        try:
            assert ring.write(b"a", ["sub"]) is not None
            assert ring.write(b"b", ["sub"]) is None
            assert ring.forced_reclaims == 0
        finally:
            ring.close()

    def test_forced_reclaim_reports_readers_and_bumps_generation(self):
        reclaimed = []
        ring = shm.ShmRingWriter(
            slot_count=1, slot_bytes=64, on_reclaim=reclaimed.append
        )
        try:
            reader = shm.ShmRingReader(ring.name, 1, 64)
            slot, seq, _size = ring.write(b"old", ["slowpoke"])
            slot2, seq2, _size2 = ring.write(b"new", ["other"], force=True)
            assert slot2 == slot
            assert seq2 != seq
            assert reclaimed == ["slowpoke"]
            assert ring.forced_reclaims == 1
            # A straggler holding the old (slot, seq) pair sees staleness.
            assert reader.slot_seq(slot) == seq2
            assert not ring.release(slot, seq, "slowpoke")
            reader.close()
        finally:
            ring.close()

    def test_oversize_payload_raises(self):
        ring = shm.ShmRingWriter(slot_count=1, slot_bytes=16)
        try:
            with pytest.raises(shm.SlotTooLarge):
                ring.write(b"x" * 17, ["sub"])
        finally:
            ring.close()

    def test_drop_reader_frees_all_held_slots(self):
        ring = shm.ShmRingWriter(slot_count=2, slot_bytes=64)
        try:
            ring.write(b"a", ["dead"])
            ring.write(b"b", ["dead", "alive"])
            ring.drop_reader("dead")
            assert ring.busy_count() == 1  # only the slot "alive" holds
        finally:
            ring.close()

    def test_reader_rejects_geometry_mismatch(self):
        ring = shm.ShmRingWriter(slot_count=2, slot_bytes=64)
        try:
            with pytest.raises(shm.ShmAttachError, match="geometry"):
                shm.ShmRingReader(ring.name, 4, 64)
        finally:
            ring.close()

    def test_reader_rejects_missing_segment(self):
        with pytest.raises(shm.ShmAttachError):
            shm.ShmRingReader("no_such_segment_xyz", 1, 64)

    def test_next_slot_bytes_grows_past_payload(self):
        grown = shm.next_slot_bytes(1 << 20, 5 << 20)
        assert grown >= 5 << 20
        assert grown & (grown - 1) == 0  # power of two
        assert shm.next_slot_bytes(64, 16) == 128

    def test_attaching_a_foreign_segment_leaves_it_to_its_owner(
        self, monkeypatch
    ):
        """A reader must not let the resource tracker unlink a segment
        another process created when the reader's process exits."""
        from multiprocessing import resource_tracker

        unregistered = []
        monkeypatch.setattr(
            resource_tracker, "unregister",
            lambda name, rtype: unregistered.append((name, rtype)),
        )
        ring = shm.ShmRingWriter(slot_count=1, slot_bytes=64)
        try:
            shm.ShmRingReader(ring.name, 1, 64).close()
            assert unregistered == []  # our own segment
            monkeypatch.setattr(shm, "_local_segments", set())
            shm.ShmRingReader(ring.name, 1, 64).close()
            assert len(unregistered) == 1
            name, rtype = unregistered[0]
            assert name.endswith(ring.name) and rtype == "shared_memory"
        finally:
            monkeypatch.undo()
            ring.close()


class TestStickySlots:
    """``write_update``: a republished key rewrites its sticky slot in
    place once acknowledged, moves (copy-on-write) while a reader still
    holds it, and at most a quarter of the ring stays sticky."""

    SLOTS = 8
    PREFIX = 16

    @pytest.fixture
    def ring(self):
        ring = shm.ShmRingWriter(slot_count=self.SLOTS, slot_bytes=256)
        yield ring
        ring.close()

    @staticmethod
    def assert_partition(ring) -> None:
        """Free, busy and idle-sticky slots partition the ring."""
        free = list(ring._free)
        busy = set(ring._busy)
        idle_sticky = ring._sticky_slots - busy
        assert len(free) == len(set(free))
        assert not set(free) & busy
        assert not set(free) & idle_sticky
        assert sorted(free + list(busy) + list(idle_sticky)) == list(
            range(ring.slot_count))

    def publish(self, ring, key, fill: int, readers=("sub",)):
        """Republish ``key``: the skeleton and the tail change, the middle
        is stable."""
        payload = bytes([fill]) * 64
        placed = ring.write_update(payload, readers, key,
                                   prefix=self.PREFIX, stable=48)
        self.assert_partition(ring)
        return placed

    def release(self, ring, placed, reader="sub") -> None:
        slot, seq, _size = placed
        assert ring.release(slot, seq, reader)
        self.assert_partition(ring)

    def test_acked_republish_rewrites_the_same_slot_in_place(self, ring):
        first = self.publish(ring, "k", 1)
        assert ring.delta_writes == 0  # first publish: a full copy
        self.release(ring, first)
        second = self.publish(ring, "k", 2)
        assert second[0] == first[0]
        assert second[1] != first[1]
        assert ring.delta_writes == 1
        assert ring.delta_bytes == self.PREFIX + (64 - 48)
        reader = shm.ShmRingReader(ring.name, self.SLOTS, 256)
        try:
            view = reader.payload_view(second[0], second[2])
            assert bytes(view[:self.PREFIX]) == b"\x02" * self.PREFIX
            assert bytes(view[self.PREFIX:48]) == b"\x01" * 32  # untouched
            assert bytes(view[48:]) == b"\x02" * 16
            del view
        finally:
            reader.close()

    def test_unacked_republish_moves_and_frees_on_last_release(self, ring):
        held = self.publish(ring, "k", 1, readers=("a", "b"))
        moved = self.publish(ring, "k", 2)
        assert moved[0] != held[0]
        assert ring.delta_writes == 0
        self.release(ring, held, "a")
        assert held[0] not in ring._free
        self.release(ring, held, "b")
        assert held[0] in ring._free  # no longer sticky: back in the pool
        self.release(ring, moved)
        assert moved[0] not in ring._free  # the key's new sticky slot

    def test_least_recently_used_sticky_slot_is_evicted(self, ring):
        cap = self.SLOTS // 4
        placed = {}
        for key in range(cap):
            placed[key] = self.publish(ring, key, key)
            self.release(ring, placed[key])
        # Republishing key 0 in place makes key 1 the least recently used.
        placed[0] = self.publish(ring, 0, 9)
        self.release(ring, placed[0])
        assert ring.delta_writes == 1
        placed[cap] = self.publish(ring, cap, cap)
        self.release(ring, placed[cap])
        assert placed[1][0] in ring._free
        assert ring._sticky_slots == {placed[0][0], placed[cap][0]}
        # The evicted key starts over with a full copy (evicting key 0,
        # now the least recent); the newest key still deltas.
        self.release(ring, self.publish(ring, 1, 1))
        assert ring.delta_writes == 1
        assert placed[0][0] in ring._free
        self.release(ring, self.publish(ring, cap, 0))
        assert ring.delta_writes == 2


class TestDoorbellFrames:
    @staticmethod
    def _roundtrip(frame: tuple) -> tuple:
        """Encode one frame, decode it under every partition of the
        bytes (whole, byte-at-a-time, seeded random splits)."""
        wire = b"".join(shm.frames_to_parts(None, [frame]))
        events, error = feed_splits(shm.DoorbellDecoder, wire)
        assert error is None
        (decoded,) = events
        return decoded

    def test_slot_frame_roundtrip(self):
        frame = ("slot", 3, 77, 1024, 0, 0)
        assert self._roundtrip(frame) == frame

    def test_slot_frame_carries_trace(self):
        frame = ("slot", 3, 77, 1024, 42, 9001)
        assert self._roundtrip(frame) == frame

    def test_inline_frame_roundtrip(self):
        kind, payload, trace_id, stamp_ns = self._roundtrip(
            ("inline", b"payload bytes", 0, 0)
        )
        assert kind == "inline"
        assert bytes(payload) == b"payload bytes"
        assert (trace_id, stamp_ns) == (0, 0)

    def test_reseg_and_ack_roundtrip(self):
        reseg = ("reseg", "psm_abc", 8, 1 << 21)
        assert self._roundtrip(reseg) == reseg
        assert self._roundtrip(("ack", 5, 99)) == ("ack", 5, 99)
        assert shm.ack_bytes(5, 99) == b"".join(
            shm.frames_to_parts(None, [("ack", 5, 99)])
        )

    def test_unknown_kind_is_the_same_error_under_every_split(self):
        wire = shm._FRAME.pack(0x7F, 0, 0, 0, 0, 0)
        events, error = feed_splits(shm.DoorbellDecoder, wire)
        assert events == []
        assert error == (
            shm.ShmTransportError, "unknown doorbell frame kind 127"
        )


# ----------------------------------------------------------------------
# In-graph integration (threads; both ends in this process)
# ----------------------------------------------------------------------
def _shm_link_of(pub, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with pub._links_lock:
            links = list(pub._links)
        if links:
            return links[0]
        time.sleep(0.02)
    raise TimeoutError("no outbound link")


class TestShmrosGraph:
    def test_negotiates_shm_and_adopts_zero_copy(self):
        SImage, = sfm_classes_for("sensor_msgs/Image")
        seen = []
        done = threading.Event()

        def callback(msg):
            # Field access inside the callback reads the shared slot in
            # place: the record still borrows external memory here.
            seen.append((int(msg.height), msg.data.tobytes(),
                         msg._record.external))
            done.set()

        with RosGraph() as graph:
            pub_node = graph.node("shm_pub")
            sub_node = graph.node("shm_sub")
            sub = sub_node.subscribe("/shm_img", SImage, callback)
            pub = pub_node.advertise("/shm_img", SImage)
            assert pub.wait_for_subscribers(1)
            msg = SImage(height=4, width=2, step=6)
            msg.data = b"\x07" * 24
            pub.publish(msg)
            assert done.wait(10)
            links = list(sub._links.values())
            assert [link.transport for link in links] == ["SHMROS"]
            assert _shm_link_of(pub) is not None
        assert seen == [(4, b"\x07" * 24, True)]

    def test_retained_message_survives_slot_reuse(self):
        SImage, = sfm_classes_for("sensor_msgs/Image")
        kept = []
        done = threading.Event()

        def callback(msg):
            kept.append(msg)  # retain past the callback
            if len(kept) >= 12:
                done.set()

        with RosGraph() as graph:
            pub_node = graph.node("keep_pub")
            sub_node = graph.node("keep_sub")
            sub_node.subscribe("/keep", SImage, callback)
            # 2 slots force rapid reuse while messages are retained.
            pub = pub_node.advertise("/keep", SImage, shm_slots=2)
            assert pub.wait_for_subscribers(1)
            for i in range(12):
                msg = SImage(height=i, width=1, step=3)
                msg.data = bytes([i]) * 3
                pub.publish(msg)
            assert done.wait(10)
        # Every retained message was detached from its slot (materialized)
        # before the ack, so its content is intact after reuse.
        assert sorted(int(m.height) for m in kept) == list(range(12))
        for i, m in enumerate(sorted(kept, key=lambda m: int(m.height))):
            assert m.data.tobytes() == bytes([i]) * 3
            assert not m._record.external

    def test_plain_codec_messages_ride_shm_too(self):
        received = []
        done = threading.Event()

        def callback(msg):
            received.append(bytes(msg.data))
            done.set()

        with RosGraph() as graph:
            pub_node = graph.node("plain_pub")
            sub_node = graph.node("plain_sub")
            sub = sub_node.subscribe("/plain_shm", L.Image, callback)
            pub = pub_node.advertise("/plain_shm", L.Image)
            assert pub.wait_for_subscribers(1)
            img = L.Image(height=1, width=4, step=12)
            img.data = bytes(range(12))
            pub.publish(img)
            assert done.wait(10)
            assert [l.transport for l in sub._links.values()] == ["SHMROS"]
        assert received == [bytes(range(12))]

    def test_codec_without_decode_external_copies_the_slot(self):
        """A codec that implements only ``decode`` can still read slots:
        the protocol's default ``decode_external`` hands it a private
        copy of the borrowed view, never the view itself."""
        from repro.ros.codecs import MessageCodec, RosCodec

        ros = RosCodec(L.UInt32)
        decoded = []

        class DecodeOnly(MessageCodec):
            def decode(self, buffer):
                decoded.append(buffer)
                return ros.decode(buffer)

        payload, _release = ros.encode(L.UInt32(data=7))
        slot = bytearray(payload)
        assert DecodeOnly().decode_external(memoryview(slot)).data == 7
        buffer, = decoded
        assert isinstance(buffer, bytearray) and buffer == slot
        slot[:] = bytes(len(slot))  # the slot is reused
        assert buffer == payload

    def test_reseg_grows_slots_for_large_payloads(self):
        SImage, = sfm_classes_for("sensor_msgs/Image")
        sizes = []
        done = threading.Event()

        def callback(msg):
            sizes.append(len(msg.data))
            if len(sizes) >= 2:
                done.set()

        with RosGraph() as graph:
            pub_node = graph.node("grow_pub")
            sub_node = graph.node("grow_sub")
            sub_node.subscribe("/grow", SImage, callback)
            # Tiny slots: the second payload cannot fit and must reseg.
            pub = pub_node.advertise(
                "/grow", SImage, shm_slots=2, shm_slot_bytes=4096
            )
            assert pub.wait_for_subscribers(1)
            small = SImage(height=1, width=1, step=3)
            small.data = b"abc"
            pub.publish(small)
            big = SImage(height=100, width=100, step=300)
            big.data = b"z" * 30000
            pub.publish(big)
            assert done.wait(10)
            ring = pub._shm_ring
            assert ring is not None and ring.slot_bytes > 4096
        assert sizes == [3, 30000]

    def test_full_ring_never_wedges_publisher(self):
        release = threading.Event()
        received = []

        def slow_callback(msg):
            release.wait(10)
            received.append(msg.data)

        with RosGraph() as graph:
            pub_node = graph.node("wedge_pub")
            sub_node = graph.node("wedge_sub")
            sub_node.subscribe("/wedge", L.UInt32, slow_callback)
            pub = pub_node.advertise(
                "/wedge", L.UInt32, queue_size=4, shm_slots=2
            )
            assert pub.wait_for_subscribers(1)
            start = time.monotonic()
            for i in range(200):
                pub.publish(L.UInt32(data=i))
            publish_time = time.monotonic() - start
            assert publish_time < 5.0  # never blocked on the stuck reader
            release.set()
            link = pub._links[0]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not received:
                time.sleep(0.05)
            assert link.dropped > 0  # backlog drops were counted
            assert received  # and delivery still progressed

    def test_killed_subscriber_frees_its_slots(self):
        stuck = threading.Event()

        def blocking_callback(msg):
            stuck.wait(10)

        with RosGraph() as graph:
            pub_node = graph.node("kill_pub")
            sub_node = graph.node("kill_sub")
            sub = sub_node.subscribe("/kill", L.UInt32, blocking_callback)
            pub = pub_node.advertise("/kill", L.UInt32, shm_slots=2)
            assert pub.wait_for_subscribers(1)
            for i in range(6):
                pub.publish(L.UInt32(data=i))
            # Tear the subscriber down mid-stream without acks.
            sub.unsubscribe()
            stuck.set()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and pub._links:
                time.sleep(0.05)
            ring = pub._shm_ring
            if ring is not None:
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and not ring.idle():
                    time.sleep(0.05)
                assert ring.idle()  # every held slot was released
            # The publisher is fully operational afterwards.
            pub.publish(L.UInt32(data=99))


# ----------------------------------------------------------------------
# Two real processes
# ----------------------------------------------------------------------
def _subscriber_process(master_uri: str, conn) -> None:
    """Child: subscribe over SHMROS and report what arrived."""
    import repro.msg.library  # noqa: F401
    from repro.ros.node import NodeHandle
    from repro.rossf import sfm_classes_for as _sfm

    SImage, = _sfm("sensor_msgs/Image")
    results = []
    done = threading.Event()

    def callback(msg):
        results.append({
            "height": int(msg.height),
            "data": msg.data.tobytes(),
            "external": bool(msg._record.external),
        })
        done.set()

    node = NodeHandle("child_sub", master_uri)
    sub = node.subscribe("/proc_img", SImage, callback)
    try:
        ok = done.wait(30)
        transports = [link.transport for link in sub._links.values()]
        conn.send({"ok": ok, "results": results, "transports": transports})
    finally:
        conn.close()
        node.shutdown()


class TestTwoProcesses:
    def test_cross_process_zero_copy_delivery(self):
        SImage, = sfm_classes_for("sensor_msgs/Image")
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        with RosGraph() as graph:
            pub_node = graph.node("proc_pub")
            pub = pub_node.advertise("/proc_img", SImage)
            child = ctx.Process(
                target=_subscriber_process,
                args=(graph.master.uri, child_conn),
                daemon=True,
            )
            child.start()
            child_conn.close()
            assert pub.wait_for_subscribers(1, timeout=30)
            msg = SImage(height=9, width=3, step=9)
            msg.data = bytes(range(81)) * 1
            pub.publish(msg)
            assert parent_conn.poll(30), "child never reported"
            report = parent_conn.recv()
            child.join(timeout=10)
        assert report["ok"], "child did not receive the message"
        assert report["transports"] == ["SHMROS"]
        (got,) = report["results"]
        # The child adopted the publisher's bytes straight from the shared
        # slot: external (borrowed) memory, content intact.
        assert got["external"] is True
        assert got["height"] == 9
        assert got["data"] == bytes(range(81))
