"""Tests for message_filters synchronizers and latched topics."""

import threading
import time

import pytest

from repro.msg import library as L
from repro.ros import RosGraph
from repro.ros.message_filters import (
    ApproximateTimeSynchronizer,
    FilterSubscriber,
    TimeSynchronizer,
)
from repro.ros.retry import wait_until


class _FakeSource:
    """A filter source driven directly by the test."""

    def __init__(self):
        self._callbacks = []

    def register_callback(self, callback):
        self._callbacks.append(callback)

    def push(self, msg):
        for callback in self._callbacks:
            callback(msg)


def _stamped(secs, nsecs=0, seq=0):
    msg = L.Image()
    msg.header.stamp = (secs, nsecs)
    msg.header.seq = seq
    return msg


class TestTimeSynchronizer:
    def test_exact_pair_fires(self):
        a, b = _FakeSource(), _FakeSource()
        sync = TimeSynchronizer([a, b])
        fired = []
        sync.register_callback(lambda x, y: fired.append((x, y)))
        first = _stamped(1)
        second = _stamped(1)
        a.push(first)
        assert not fired
        b.push(second)
        assert fired == [(first, second)]
        assert sync.synchronized_count == 1

    def test_mismatched_stamps_do_not_fire(self):
        a, b = _FakeSource(), _FakeSource()
        sync = TimeSynchronizer([a, b])
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        a.push(_stamped(1))
        b.push(_stamped(2))
        assert not fired

    def test_order_independent(self):
        a, b = _FakeSource(), _FakeSource()
        sync = TimeSynchronizer([a, b])
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        b.push(_stamped(5))
        a.push(_stamped(5))
        assert len(fired) == 1

    def test_stale_incomplete_sets_dropped(self):
        a, b = _FakeSource(), _FakeSource()
        sync = TimeSynchronizer([a, b])
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        a.push(_stamped(1))      # will never complete
        a.push(_stamped(2))
        b.push(_stamped(2))      # completes; stamp 1 is discarded
        b.push(_stamped(1))      # too late
        assert len(fired) == 1
        assert sync.dropped_count >= 1

    def test_queue_bound(self):
        a, b = _FakeSource(), _FakeSource()
        sync = TimeSynchronizer([a, b], queue_size=3)
        for secs in range(10):
            a.push(_stamped(secs))
        assert len(sync._pending) <= 3

    def test_three_sources(self):
        sources = [_FakeSource() for _ in range(3)]
        sync = TimeSynchronizer(sources)
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        for source in sources[:2]:
            source.push(_stamped(9))
        assert not fired
        sources[2].push(_stamped(9))
        assert len(fired) == 1

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            TimeSynchronizer([])


class TestApproximateTimeSynchronizer:
    def test_within_slop_fires(self):
        a, b = _FakeSource(), _FakeSource()
        sync = ApproximateTimeSynchronizer([a, b], slop=0.05)
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        a.push(_stamped(1, 0))
        b.push(_stamped(1, 30_000_000))  # 30 ms later
        assert len(fired) == 1

    def test_outside_slop_does_not_fire(self):
        a, b = _FakeSource(), _FakeSource()
        sync = ApproximateTimeSynchronizer([a, b], slop=0.01)
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        a.push(_stamped(1, 0))
        b.push(_stamped(1, 500_000_000))
        assert not fired

    def test_picks_nearest_candidate(self):
        a, b = _FakeSource(), _FakeSource()
        sync = ApproximateTimeSynchronizer([a, b], slop=0.2)
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        near = _stamped(1, 10_000_000)
        far = _stamped(1, 150_000_000)
        b.push(far)
        b.push(near)
        a.push(_stamped(1, 0))
        assert fired[0][1] is near

    def test_matched_messages_consumed(self):
        a, b = _FakeSource(), _FakeSource()
        sync = ApproximateTimeSynchronizer([a, b], slop=0.5)
        fired = []
        sync.register_callback(lambda *msgs: fired.append(msgs))
        b.push(_stamped(1))
        a.push(_stamped(1))
        a.push(_stamped(1, 1000))  # the earlier b message is consumed
        assert len(fired) == 1

    def test_negative_slop_rejected(self):
        with pytest.raises(ValueError):
            ApproximateTimeSynchronizer([_FakeSource()], slop=-1)


class TestFilterSubscriberIntegration:
    def test_live_synchronized_pair(self):
        with RosGraph() as graph:
            pub_node = graph.node("sync_pub")
            sub_node = graph.node("sync_sub")
            rgb = FilterSubscriber(sub_node, "/sync/rgb", L.Image)
            depth = FilterSubscriber(sub_node, "/sync/depth", L.Image)
            sync = TimeSynchronizer([rgb, depth])
            pairs = []
            done = threading.Event()

            def on_pair(rgb_msg, depth_msg):
                pairs.append((int(rgb_msg.header.seq),
                              int(depth_msg.header.seq)))
                if len(pairs) >= 3:
                    done.set()

            sync.register_callback(on_pair)
            rgb_pub = pub_node.advertise("/sync/rgb", L.Image)
            depth_pub = pub_node.advertise("/sync/depth", L.Image)
            assert rgb_pub.wait_for_subscribers(1)
            assert depth_pub.wait_for_subscribers(1)
            for seq in range(3):
                stamp = (100 + seq, 0)
                depth_pub.publish(_stamped(*stamp, seq=seq))
                rgb_pub.publish(_stamped(*stamp, seq=seq))
            assert done.wait(10)
            assert pairs == [(0, 0), (1, 1), (2, 2)]
            rgb.unsubscribe()
            wait_until(lambda: rgb_pub.get_num_connections() == 0,
                       desc="unsubscribed input's link closed")
            assert depth_pub.get_num_connections() == 1


class TestLatchedTopics:
    def test_late_subscriber_receives_last_message(self):
        with RosGraph() as graph:
            pub_node = graph.node("latch_pub")
            pub = pub_node.advertise("/map", L.String, latch=True)
            pub.publish(L.String(data="the-map-v1"))
            pub.publish(L.String(data="the-map-v2"))

            sub_node = graph.node("latch_sub")
            received = []
            done = threading.Event()

            def on_message(msg):
                received.append(msg.data)
                done.set()

            sub_node.subscribe("/map", L.String, on_message)
            assert done.wait(10)
            assert received == ["the-map-v2"]

    def test_latched_sfm_topic(self):
        from repro.rossf import sfm_classes_for

        Grid, = sfm_classes_for("nav_msgs/OccupancyGrid")
        with RosGraph() as graph:
            pub_node = graph.node("latch_sfm_pub")
            pub = pub_node.advertise("/sfm_map", Grid, latch=True)
            grid = Grid()
            grid.info.width = 2
            grid.info.height = 1
            grid.data = [10, -1]
            pub.publish(grid)

            sub_node = graph.node("latch_sfm_sub")
            received = []
            done = threading.Event()

            def on_message(msg):
                received.append(list(msg.data))
                done.set()

            sub_node.subscribe("/sfm_map", Grid, on_message)
            assert done.wait(10)
            assert received == [[10, -1]]

    def test_unlatched_late_subscriber_gets_nothing(self):
        with RosGraph() as graph:
            pub_node = graph.node("nolatch_pub")
            pub = pub_node.advertise("/transient", L.String)
            pub.publish(L.String(data="gone"))
            sub_node = graph.node("nolatch_sub")
            received = []
            sub = sub_node.subscribe("/transient", L.String, received.append)
            assert sub.wait_for_publishers(1)
            time.sleep(0.3)
            assert received == []
