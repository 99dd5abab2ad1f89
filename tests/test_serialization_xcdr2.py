"""Unit tests for the XCDR2/FlatData-like format (layout of paper Fig. 5)."""

import struct

import pytest

from repro.msg import library as L
from repro.serialization.xcdr2 import (
    FlatDataBuilder,
    XCDR2Format,
    XcdrError,
    XcdrView,
    member_ids,
)


@pytest.fixture
def fmt(registry):
    return XCDR2Format(registry)


class TestMemberIds:
    def test_fig5_convention(self, registry):
        # Fixed-size members first: height=0, width=1, then encoding=2,
        # data=3 -- exactly the ids of the paper's Fig. 5.
        ids = member_ids(registry.get("rossf_bench/SimpleImage"))
        assert ids == {"height": 0, "width": 1, "encoding": 2, "data": 3}


class TestLayout:
    def test_fig5_first_emheader(self, fmt, registry):
        builder = FlatDataBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("encoding", "rgb8")
        builder.add("height", 10).add("width", 10).add("data", bytes(300))
        wire = builder.finish_sample()
        (header,) = struct.unpack_from("<I", wire, 0)
        assert header == 0x40000002  # LC=4 (length-delimited), id=2
        (length,) = struct.unpack_from("<I", wire, 4)
        assert length == 8  # "rgb8" + NUL + padding, as in Fig. 5

    def test_fixed_member_emheader(self, fmt, registry):
        builder = FlatDataBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("height", 10)
        wire = builder.finish_sample()
        (header,) = struct.unpack_from("<I", wire, 0)
        assert header == 0x20000000  # LC=2 (4 bytes), id=0 -- Fig. 5

    def test_members_padded_to_four_bytes(self, fmt, registry):
        wire = fmt.serialize(L.String(data="abcde"))
        assert len(wire) % 4 == 0


class TestBuilder:
    def test_recursive_order_enforced(self, registry):
        builder = FlatDataBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("height", 1)
        with pytest.raises(XcdrError):
            builder.add("height", 2)

    def test_finish_fills_missing_members(self, registry):
        builder = FlatDataBuilder(registry, "rossf_bench/SimpleImage")
        builder.add("height", 3)
        view = XcdrView(
            registry, registry.get("rossf_bench/SimpleImage"),
            builder.finish_sample(),
        )
        assert view.get("height") == 3
        assert view.get("width") == 0
        assert view.get("encoding") == ""

    def test_add_after_finish_rejected(self, registry):
        builder = FlatDataBuilder(registry, "rossf_bench/SimpleImage")
        builder.finish_sample()
        with pytest.raises(XcdrError):
            builder.add("height", 1)


class TestAccess:
    def test_view_linear_scan(self, fmt):
        img = L.Image(height=7, width=9, encoding="bgr8")
        img.data = bytes(range(64))
        view = fmt.wrap("sensor_msgs/Image", fmt.serialize(img))
        assert view.get("width") == 9
        assert view.get("encoding") == "bgr8"
        assert bytes(view.get("data")) == bytes(range(64))

    def test_nested_view(self, fmt):
        img = L.Image()
        img.header.frame_id = "odom"
        img.header.seq = 11
        view = fmt.wrap("sensor_msgs/Image", fmt.serialize(img))
        header = view.get("header")
        assert header.get("seq") == 11
        assert header.get("frame_id") == "odom"
        assert view.to_plain() == img  # copy-out into the plain class


class TestRoundTrip:
    def test_image(self, fmt):
        img = L.Image(height=2, width=3, encoding="rgb8", step=9)
        img.data = bytes(18)
        img.header.stamp = (1, 2)
        assert fmt.deserialize("sensor_msgs/Image", fmt.serialize(img)) == img

    def test_pointcloud(self, fmt):
        pc = L.PointCloud(
            points=[L.Point32(x=1.0, y=2.0, z=3.0)],
            channels=[L.ChannelFloat32(name="rgb", values=[0.25])],
        )
        assert fmt.deserialize(
            "sensor_msgs/PointCloud", fmt.serialize(pc)
        ) == pc

    def test_fixed_arrays(self, fmt):
        info = L.CameraInfo()
        info.K = [float(i) for i in range(9)]
        back = fmt.deserialize("sensor_msgs/CameraInfo", fmt.serialize(info))
        assert list(back.K) == list(info.K)
