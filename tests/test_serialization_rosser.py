"""Unit and property tests for the ROS wire format."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.msg import library as L
from repro.msg.generator import generate_message_class
from repro.msg.registry import TypeRegistry
from repro.serialization.rosser import (
    DeserializationError,
    ROSSerializer,
    default_serializer,
)


@pytest.fixture
def ser(registry):
    return ROSSerializer(registry)


class TestScalarEncoding:
    def test_uint32_little_endian(self, ser):
        msg = L.UInt32(data=0x01020304)
        assert ser.serialize(msg) == b"\x04\x03\x02\x01"

    def test_string_length_prefixed_no_terminator(self, ser):
        msg = L.String(data="abc")
        assert ser.serialize(msg) == b"\x03\x00\x00\x00abc"

    def test_time_two_words(self, ser):
        msg = L.Time(data=(1, 2))
        assert ser.serialize(msg) == struct.pack("<II", 1, 2)

    def test_unicode_string(self, ser):
        msg = L.String(data="héllo")
        back = ser.deserialize("std_msgs/String", ser.serialize(msg))
        assert back.data == "héllo"


class TestRoundTrips:
    def test_image(self, ser):
        img = L.Image(height=2, width=3, encoding="rgb8", step=9)
        img.data = bytes(range(18))
        img.header.seq = 5
        img.header.stamp = (10, 20)
        img.header.frame_id = "cam"
        back = ser.deserialize("sensor_msgs/Image", ser.serialize(img))
        assert back == img

    def test_pointcloud_nested_arrays(self, ser):
        pc = L.PointCloud(
            points=[L.Point32(x=1.0, y=2.0, z=3.0)],
            channels=[L.ChannelFloat32(name="i", values=[0.5, 1.5])],
        )
        back = ser.deserialize("sensor_msgs/PointCloud", ser.serialize(pc))
        assert back == pc

    def test_camera_info_fixed_arrays(self, ser):
        info = L.CameraInfo(height=480, width=640)
        info.K = [float(i) for i in range(9)]
        back = ser.deserialize("sensor_msgs/CameraInfo", ser.serialize(info))
        assert list(back.K) == list(info.K)

    def test_empty_arrays(self, ser):
        scan = L.LaserScan()
        back = ser.deserialize("sensor_msgs/LaserScan", ser.serialize(scan))
        assert back == scan

    def test_disparity_image_deep_nesting(self, ser):
        d = L.DisparityImage(f=1.0, t=0.5)
        d.image.encoding = "32FC1"
        d.image.data = bytes(16)
        back = ser.deserialize("stereo_msgs/DisparityImage", ser.serialize(d))
        assert back == d

    def test_map_extension(self, fresh_registry):
        fresh_registry.register_text("pkg/Tagged", "map<string,uint32> tags\n")
        cls = generate_message_class("pkg/Tagged", fresh_registry)
        ser = ROSSerializer(fresh_registry)
        msg = cls(tags={"a": 1, "b": 2})
        back = ser.deserialize("pkg/Tagged", ser.serialize(msg))
        assert back.tags == {"a": 1, "b": 2}


    def test_fixed_byte_and_string_arrays(self, fresh_registry):
        fresh_registry.register_text("pkg/Fixed",
                                     "uint8[4] tag\nstring[2] names\n")
        cls = generate_message_class("pkg/Fixed", fresh_registry)
        ser = ROSSerializer(fresh_registry)
        wire = ser.serialize(cls(tag=b"\x01\x02\x03\x04", names=["a", "bc"]))
        # Fixed arrays carry no length prefix; their strings still do.
        assert wire == (b"\x01\x02\x03\x04" + b"\x01\x00\x00\x00a"
                        + b"\x02\x00\x00\x00bc")
        back = ser.deserialize("pkg/Fixed", wire)
        assert bytes(back.tag) == b"\x01\x02\x03\x04"
        assert back.names == ["a", "bc"]

    def test_only_serialization_free_formats_wrap(self, ser):
        assert repr(ser) == "<WireFormat ROS>"
        with pytest.raises(NotImplementedError,
                           match="ROS is not a serialization-free format"):
            ser.wrap("std_msgs/UInt32", ser.serialize(L.UInt32(data=1)))


class TestErrors:
    def test_trailing_bytes_rejected(self, ser):
        wire = ser.serialize(L.UInt32(data=1)) + b"\x00"
        with pytest.raises(DeserializationError):
            ser.deserialize("std_msgs/UInt32", wire)

    def test_truncated_string_rejected(self, ser):
        with pytest.raises(DeserializationError):
            ser.deserialize("std_msgs/String", b"\x10\x00\x00\x00ab")

    def test_fixed_array_wrong_length_rejected(self, ser):
        info = L.CameraInfo()
        info.K = [0.0] * 8
        with pytest.raises(ValueError, match="fixed array"):
            ser.serialize(info)


class TestBigEndianVariant:
    def test_big_endian_roundtrip(self, registry):
        big = ROSSerializer(registry, byte_order=">")
        msg = L.UInt32(data=0x01020304)
        assert big.serialize(msg) == b"\x01\x02\x03\x04"
        assert big.deserialize("std_msgs/UInt32", b"\x01\x02\x03\x04") == msg


# ----------------------------------------------------------------------
# Property-based round trips
# ----------------------------------------------------------------------
header_strategy = st.builds(
    lambda seq, secs, nsecs, frame: {"seq": seq, "stamp": (secs, nsecs),
                                     "frame_id": frame},
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**31 - 1),
    st.integers(0, 10**9 - 1),
    st.text(max_size=16),
)


@settings(max_examples=40, deadline=None)
@given(
    header=header_strategy,
    height=st.integers(0, 100),
    width=st.integers(0, 100),
    encoding=st.text(max_size=12),
    data=st.binary(max_size=512),
)
def test_image_roundtrip_property(header, height, width, encoding, data):
    img = L.Image(height=height, width=width, encoding=encoding)
    img.data = bytearray(data)
    img.header.seq = header["seq"]
    img.header.stamp = header["stamp"]
    img.header.frame_id = header["frame_id"]
    back = default_serializer.deserialize(
        "sensor_msgs/Image", default_serializer.serialize(img)
    )
    assert back == img


@settings(max_examples=40, deadline=None)
@given(
    ranges=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                    max_size=64),
    intensities=st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=64
    ),
)
def test_laserscan_roundtrip_property(ranges, intensities):
    scan = L.LaserScan(ranges=ranges, intensities=intensities)
    back = default_serializer.deserialize(
        "sensor_msgs/LaserScan", default_serializer.serialize(scan)
    )
    assert list(back.ranges) == pytest.approx(ranges)
    assert list(back.intensities) == pytest.approx(intensities)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.builds(
    lambda x, y, z: (x, y, z),
    *([st.floats(width=32, allow_nan=False, allow_infinity=False)] * 3),
), max_size=16))
def test_pointcloud_roundtrip_property(points):
    pc = L.PointCloud(
        points=[L.Point32(x=x, y=y, z=z) for x, y, z in points]
    )
    back = default_serializer.deserialize(
        "sensor_msgs/PointCloud", default_serializer.serialize(pc)
    )
    assert len(back.points) == len(points)
    for got, (x, y, z) in zip(back.points, points):
        assert (got.x, got.y, got.z) == pytest.approx((x, y, z))
