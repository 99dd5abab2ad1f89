"""Unit tests for the FlatBuffer-like format (layout of paper Fig. 6)."""

import struct

import pytest

from repro.msg import library as L
from repro.serialization.flatbuffer import (
    FlatBufferBuilder,
    FlatBufferFormat,
    TableView,
)


@pytest.fixture
def fmt(registry):
    return FlatBufferFormat(registry)


class TestLayout:
    def test_root_offset_points_past_vtable(self, fmt, registry):
        builder = FlatBufferBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("encoding", "rgb8")
        builder.add("height", 10)
        builder.add("width", 10)
        builder.add("data", bytes(300))
        wire = builder.finish()
        (root,) = struct.unpack_from("<I", wire, 0)
        n_fields = 4
        vtable_size = 4 + 2 * n_fields
        assert root == 4 + vtable_size
        # vtable header: size and inline size.
        vsize, inline = struct.unpack_from("<HH", wire, 4)
        assert vsize == vtable_size
        # back-offset at table start recovers the vtable.
        (back,) = struct.unpack_from("<i", wire, root)
        assert root - back == 4

    def test_vtable_slots_nonzero(self, fmt, registry):
        builder = FlatBufferBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("height", 7)
        wire = builder.finish()
        slots = struct.unpack_from("<4H", wire, 4 + 4)
        assert all(slot > 0 for slot in slots)

    def test_string_heap_entry_nul_terminated(self, fmt, registry):
        builder = FlatBufferBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("encoding", "rgb8")
        wire = builder.finish()
        assert b"rgb8\x00" in wire


class TestAccess:
    def test_view_access_matches_builder_inputs(self, fmt, registry):
        builder = fmt.builder("rossf_bench/SimpleImage")
        builder.add("encoding", "rgb8").add("height", 10).add("width", 20)
        builder.add("data", bytes(range(100)))
        view = fmt.wrap("rossf_bench/SimpleImage", builder.finish())
        assert view.get("height") == 10
        assert view.get("width") == 20
        assert view.get("encoding") == "rgb8"
        assert bytes(view.get("data")) == bytes(range(100))

    def test_absent_field_returns_default(self, fmt, registry):
        builder = fmt.builder("rossf_bench/SimpleImage")
        wire = builder.finish()
        view = fmt.wrap("rossf_bench/SimpleImage", wire)
        assert view.get("height") == 0
        assert view.get("encoding") == ""

    def test_nested_table(self, fmt):
        img = L.Image(height=5, encoding="mono8")
        img.header.frame_id = "base"
        img.header.stamp = (9, 10)
        view = fmt.wrap("sensor_msgs/Image", fmt.serialize(img))
        header = view.get("header")
        assert isinstance(header, TableView)
        assert repr(header).startswith("<TableView std_msgs/Header @")
        assert header.get("frame_id") == "base"
        assert header.get("stamp") == (9, 10)

    def test_vector_of_tables(self, fmt):
        pc = L.PointCloud(points=[L.Point32(x=1.5), L.Point32(z=2.5)])
        view = fmt.wrap("sensor_msgs/PointCloud", fmt.serialize(pc))
        points = view.get("points")
        assert len(points) == 2
        assert points[0].get("x") == 1.5
        assert points[1].get("z") == 2.5


class TestRoundTrip:
    def test_image(self, fmt):
        img = L.Image(height=2, width=2, encoding="rgb8", step=6)
        img.data = bytes(12)
        img.header.seq = 3
        assert fmt.deserialize("sensor_msgs/Image", fmt.serialize(img)) == img

    def test_laserscan(self, fmt):
        scan = L.LaserScan(angle_min=-1.5, ranges=[1.0, 2.0])
        back = fmt.deserialize("sensor_msgs/LaserScan", fmt.serialize(scan))
        assert list(back.ranges) == [1.0, 2.0]
        assert back.angle_min == pytest.approx(-1.5, abs=1e-6)

    def test_builder_finish_idempotent(self, fmt):
        builder = fmt.builder("rossf_bench/SimpleImage")
        builder.add("height", 1)
        assert builder.finish() == builder.finish()

    def test_add_after_finish_rejected(self, fmt):
        from repro.serialization.flatbuffer import FlatBufferBuildError

        builder = fmt.builder("rossf_bench/SimpleImage")
        builder.finish()
        with pytest.raises(FlatBufferBuildError):
            builder.add("height", 1)

    def test_unknown_field_rejected(self, fmt):
        with pytest.raises(KeyError):
            fmt.builder("rossf_bench/SimpleImage").add("nope", 1)
