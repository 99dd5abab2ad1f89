"""Integration tests for the full pub/sub middleware."""

import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.msg import library as L
from repro.ros import RosGraph, links
from repro.ros.codecs import codec_for_class
from repro.ros.retry import wait_until
from repro.ros.transport import shm, tcpros
from repro.rossf import sfm_classes_for
from repro.sfm import global_message_manager


@pytest.fixture(scope="module")
def graph():
    with RosGraph() as g:
        yield g


def _collect(n, timeout=10.0):
    """A callback collecting n messages plus a wait helper."""
    received = []
    done = threading.Event()

    def callback(msg):
        received.append(msg)
        if len(received) >= n:
            done.set()

    def wait():
        assert done.wait(timeout), f"only received {len(received)}/{n}"
        return received

    return callback, wait


class TestPlainPubSub:
    def test_messages_arrive_in_order(self, graph):
        pub_node = graph.node("order_pub")
        sub_node = graph.node("order_sub")
        callback, wait = _collect(10)
        sub_node.subscribe("/order", L.UInt32, callback)
        pub = pub_node.advertise("/order", L.UInt32)
        assert pub.wait_for_subscribers(1)
        for i in range(10):
            pub.publish(L.UInt32(data=i))
        received = wait()
        assert [m.data for m in received] == list(range(10))
        pub_node.shutdown()
        sub_node.shutdown()

    def test_image_content_survives(self, graph):
        pub_node = graph.node("img_pub")
        sub_node = graph.node("img_sub")
        callback, wait = _collect(1)
        sub_node.subscribe("/img", L.Image, callback)
        pub = pub_node.advertise("/img", L.Image)
        assert pub.wait_for_subscribers(1)
        img = L.Image(height=2, width=3, encoding="rgb8", step=9)
        img.data = bytes(range(18))
        img.header.frame_id = "cam"
        pub.publish(img)
        (received,) = wait()
        assert received == img
        pub_node.shutdown()
        sub_node.shutdown()

    def test_multiple_subscribers_fanout(self, graph):
        pub_node = graph.node("fan_pub")
        sub_a = graph.node("fan_sub_a")
        sub_b = graph.node("fan_sub_b")
        cb_a, wait_a = _collect(3)
        cb_b, wait_b = _collect(3)
        sub_a.subscribe("/fan", L.UInt32, cb_a)
        sub_b.subscribe("/fan", L.UInt32, cb_b)
        pub = pub_node.advertise("/fan", L.UInt32)
        assert pub.wait_for_subscribers(2)
        for i in range(3):
            pub.publish(L.UInt32(data=i))
        assert [m.data for m in wait_a()] == [0, 1, 2]
        assert [m.data for m in wait_b()] == [0, 1, 2]
        pub_node.shutdown()
        sub_a.shutdown()
        sub_b.shutdown()

    def test_late_publisher_discovered_via_update(self, graph):
        sub_node = graph.node("late_sub")
        callback, wait = _collect(1)
        sub = sub_node.subscribe("/late", L.UInt32, callback)
        # Publisher arrives after the subscription.
        pub_node = graph.node("late_pub")
        pub = pub_node.advertise("/late", L.UInt32)
        assert sub.wait_for_publishers(1)
        assert pub.wait_for_subscribers(1)
        pub.publish(L.UInt32(data=7))
        assert wait()[0].data == 7
        pub_node.shutdown()
        sub_node.shutdown()

    def test_publish_with_no_subscribers_is_fine(self, graph):
        pub_node = graph.node("lonely_pub")
        pub = pub_node.advertise("/lonely", L.UInt32)
        pub.publish(L.UInt32(data=1))
        assert pub.published_count == 1
        pub_node.shutdown()


class TestSfmPubSub:
    def test_sfm_end_to_end(self, graph):
        SImage, = sfm_classes_for("sensor_msgs/Image")
        pub_node = graph.node("sfm_pub")
        sub_node = graph.node("sfm_sub")
        results = []
        done = threading.Event()

        def callback(msg):
            # Access inside the callback, zero-copy.
            results.append(
                (int(msg.header.seq), str(msg.encoding), msg.data.tobytes())
            )
            if len(results) >= 3:
                done.set()

        sub_node.subscribe("/sfm_img", SImage, callback)
        pub = pub_node.advertise("/sfm_img", SImage)
        assert pub.wait_for_subscribers(1)
        for i in range(3):
            msg = SImage(height=2, width=2, step=6)
            msg.header.seq = i
            msg.encoding = "rgb8"
            msg.data = bytes([i]) * 12
            pub.publish(msg)
        assert done.wait(10)
        assert results == [
            (i, "rgb8", bytes([i]) * 12) for i in range(3)
        ]
        pub_node.shutdown()
        sub_node.shutdown()

    def test_format_mismatch_rejected(self, graph):
        """A plain subscriber on an SFM topic must not connect (wire
        formats differ), and vice versa."""
        SImage, = sfm_classes_for("sensor_msgs/Image")
        pub_node = graph.node("mismatch_pub")
        sub_node = graph.node("mismatch_sub")
        pub = pub_node.advertise("/mismatch", SImage)
        sub = sub_node.subscribe("/mismatch", L.Image, lambda m: None)
        time.sleep(0.4)
        assert sub.get_num_connections() == 0
        pub_node.shutdown()
        sub_node.shutdown()

    def test_publishing_plain_on_sfm_topic_raises(self, graph):
        SImage, = sfm_classes_for("sensor_msgs/Image")
        pub_node = graph.node("wrongclass_pub")
        sub_node = graph.node("wrongclass_sub")
        sub_node.subscribe("/wrongclass", SImage, lambda m: None)
        pub = pub_node.advertise("/wrongclass", SImage)
        assert pub.wait_for_subscribers(1)
        with pytest.raises(TypeError, match="Converter"):
            pub.publish(L.Image())
        pub_node.shutdown()
        sub_node.shutdown()


class TestIntraProcess:
    def test_local_delivery_shares_object(self, graph):
        pub_node = graph.node("local_pub")
        sub_node = graph.node("local_sub")
        received = []
        sub_node.subscribe("/local", L.Image, received.append,
                           intraprocess=True)
        pub = pub_node.advertise("/local", L.Image, intraprocess=True)
        img = L.Image(height=1)
        pub.publish(img)
        assert received and received[0] is img  # zero-copy by reference
        pub_node.shutdown()
        sub_node.shutdown()


class TestQueueing:
    def test_slow_subscriber_drops_oldest(self, graph):
        pub_node = graph.node("drop_pub")
        sub_node = graph.node("drop_sub")
        release = threading.Event()
        received = []

        def slow_callback(msg):
            release.wait(5)
            received.append(msg.data)

        sub_node.subscribe("/drop", L.UInt32, slow_callback)
        pub = pub_node.advertise("/drop", L.UInt32, queue_size=2)
        assert pub.wait_for_subscribers(1)
        for i in range(30):
            pub.publish(L.UInt32(data=i))
        time.sleep(0.3)
        release.set()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not received:
            time.sleep(0.05)
        link = pub._links[0]
        assert link.dropped > 0
        pub_node.shutdown()
        sub_node.shutdown()


    @pytest.mark.parametrize("sfm", [False, True], ids=["ros", "sfm"])
    @pytest.mark.parametrize("transport", ["TCPROS", "SHMROS"])
    def test_non_reading_peer_is_bounded(self, graph, transport, sfm):
        """A peer that handshakes and then never reads (and never acks,
        so a full ring falls back to inline frames) pins ``queue_size``
        entries plus one write watermark -- not the whole backlog."""
        Image = sfm_classes_for("sensor_msgs/Image")[0] if sfm else L.Image
        baseline = global_message_manager.live_count()
        pub_node = graph.node("stall_pub")
        pub = pub_node.advertise("/stall", Image, queue_size=2)
        header = {
            "callerid": "/stalled_peer", "topic": "/stall",
            "type": pub.type_name, "md5sum": pub.md5sum,
            "format": pub.codec.format_name,
        }
        if transport == "SHMROS":
            header["shmros"] = "1"
        server = pub_node._data_server
        peer, reply = tcpros.connect_subscriber(
            server.host, server.port, header
        )
        try:
            assert bool(reply.get("shm_segment")) == (transport == "SHMROS")
            link = wait_until(pub.links, desc="link up")[0]
            data = bytes(1 << 20)
            # Framing around one message: length word, trace prefix or
            # doorbell header, plus the slot notices sharing its batch.
            framing = 1024
            for count in range(1, 301):
                msg = Image(height=1024, width=1024, step=1024)
                msg.data = data
                pub.publish(msg)
                del msg
                one_message = pub.bytes_published // count + framing
                assert link.stats()["queue_depth"] <= 2
                assert link._rlink.stats()["write_backlog"] <= (
                    tcpros.BATCH_MAX_BYTES + one_message
                )
            assert link.stats()["dropped"] > 0
            assert pub.stats()["drops"] == link.stats()["dropped"]
            if sfm:
                # Queue + what the socket still holds, never the backlog.
                assert global_message_manager.live_count() - baseline <= 4
        finally:
            peer.close()
        wait_until(lambda: not pub.links(), desc="stalled link reaped")
        wait_until(
            lambda: global_message_manager.live_count() <= baseline,
            desc="every payload released exactly once",
        )
        pub_node.shutdown()


    @pytest.mark.parametrize("transport", ["TCPROS", "TZC", "SHMROS"])
    def test_outbound_link_lifecycle(self, transport):
        """The one outbound link under each of its three wires: the
        queue bound, what is released on drop / send / close / enqueue
        after close (each exactly once), the reseg notice that no drop
        can lose, and the ``stats()`` key set."""
        SString, = sfm_classes_for("std_msgs/String")
        rings = [shm.ShmRingWriter(slot_count=8, slot_bytes=4096)
                 for _ in range(2)]

        class StubPublisher:
            topic = "/unit"
            queue_size = 2
            dropped_count = 0
            node = SimpleNamespace(link_keepalive=0)

            def _shm_drop_reader(self, link):
                for ring in rings:
                    ring.drop_reader(link)

            def _remove_link(self, link):
                pass

        wire = {
            "TCPROS": lambda: links._TcprosWire(traced=False),
            "TZC": lambda: links._TzcWire(False, SString._layout),
            "SHMROS": lambda: links._ShmWire(rings[0]),
        }[transport]()
        publisher = StubPublisher()
        near, far = socket.socketpair()
        link = links._OutboundLink(publisher, near, "/peer", wire)
        released = []

        def enqueue(index):
            payload, release = codec_for_class(SString).encode(
                SString(data=f"message {index}")
            )

            def done():
                release()
                released.append(index)

            ticket = None
            if transport == "SHMROS":
                # A ring the subscriber is not attached to yet: the
                # first notice must be preceded by a reseg.
                ticket = (rings[1],) + rings[1].write(payload, [link])
            link.enqueue(links._Outgoing(payload, 1, done, ticket=ticket))

        @contextmanager
        def held_loop():
            """The pump cannot drain what is enqueued meanwhile."""
            gate = threading.Event()
            link._loop.call_soon(lambda: gate.wait(10))
            try:
                yield
            finally:
                gate.set()

        try:
            with held_loop():
                for index in range(3 * publisher.queue_size):
                    enqueue(index)
                assert link.dropped == publisher.dropped_count == 4
                keys = {"transport", "subscriber", "sent", "bytes",
                        "dropped", "queue_depth", "link_state"}
                if transport != "SHMROS":
                    keys.add("traced")
                stats = link.stats()
                assert set(stats) == keys
                assert stats["transport"] == transport
                assert stats["queue_depth"] == 2
                # The ring holds the copy, so SHM payload references
                # are back at once and the two queued notices hold
                # their slots.
                assert sorted(released) == list(
                    range(6 if transport == "SHMROS" else 4)
                )
                assert rings[1].busy_count() == (transport == "SHMROS") * 2
            wait_until(lambda: link.stats()["sent"] == 2, desc="flush")
            assert sorted(released) == list(range(6))
            if transport == "SHMROS":
                # Four notices for the new ring were dropped; its reseg
                # notice still precedes the first one that went out.
                frames = shm.DoorbellDecoder().feed(far.recv(4096))
                assert [f[0] for f in frames] == ["reseg", "slot", "slot"]
                assert frames[0][1] == rings[1].name
            with held_loop():
                enqueue(6)
                enqueue(7)
                assert link.stats()["queue_depth"] == 2
                link.close()  # non-empty queue: each entry released once
                enqueue(8)  # after close: released on the spot
                link.close()  # idempotent
                assert sorted(released) == list(range(9))
                assert rings[1].idle()
                assert link.stats()["queue_depth"] == 0
        finally:
            far.close()
            for ring in rings:
                ring.close()


class TestShutdown:
    def test_node_shutdown_unregisters(self):
        with RosGraph() as g:
            node = g.node("temp")
            node.advertise("/temp_topic", L.UInt32)
            assert g.master.registry.publishers_of("/temp_topic")
            node.shutdown()
            assert not g.master.registry.publishers_of("/temp_topic")

    def test_operations_after_shutdown_rejected(self):
        from repro.ros.exceptions import NodeShutdownError

        with RosGraph() as g:
            node = g.node("dead")
            node.shutdown()
            with pytest.raises(NodeShutdownError):
                node.advertise("/x", L.UInt32)
