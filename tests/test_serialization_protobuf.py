"""Unit and property tests for the ProtoBuf-like wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.msg import library as L
from repro.serialization.protobuf import (
    ProtoBufFormat,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)


@pytest.fixture
def fmt(registry):
    return ProtoBufFormat(registry)


class TestVarints:
    @pytest.mark.parametrize(
        "value,encoded",
        [(0, b"\x00"), (1, b"\x01"), (127, b"\x7f"),
         (128, b"\x80\x01"), (300, b"\xac\x02"), (2**32, b"\x80\x80\x80\x80\x10")],
    )
    def test_known_encodings(self, value, encoded):
        out = bytearray()
        write_varint(out, value)
        assert bytes(out) == encoded
        decoded, offset = read_varint(memoryview(out), 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(bytearray(), -1)

    @pytest.mark.parametrize("value", [0, -1, 1, -2, 2, 2**31 - 1, -(2**31)])
    def test_zigzag_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_zigzag_known(self):
        assert zigzag_encode(-1) == 1
        assert zigzag_encode(1) == 2
        assert zigzag_encode(-2) == 3


class TestEncoding:
    def test_zero_fields_omitted(self, fmt):
        assert fmt.serialize(L.UInt32(data=0)) == b""
        assert len(fmt.serialize(L.UInt32(data=1))) > 0

    def test_small_message_smaller_than_ros(self, fmt, registry):
        # The paper: prefix encoding "can potentially reduce the size of
        # messages with small values".
        from repro.serialization.rosser import ROSSerializer

        ros = ROSSerializer(registry)
        msg = L.Image(height=2, width=2)
        msg.data = b"\x00"
        assert len(fmt.serialize(msg)) < len(ros.serialize(msg))

    def test_image_roundtrip(self, fmt):
        img = L.Image(height=10, width=10, encoding="rgb8", step=30)
        img.data = bytes(range(256)) + bytes(44)
        img.header.frame_id = "cam"
        img.header.stamp = (3, 4)
        assert fmt.deserialize("sensor_msgs/Image", fmt.serialize(img)) == img

    def test_repeated_messages(self, fmt):
        pc = L.PointCloud(points=[L.Point32(x=1.0), L.Point32(y=2.0)])
        back = fmt.deserialize("sensor_msgs/PointCloud", fmt.serialize(pc))
        assert len(back.points) == 2
        assert back.points[1].y == 2.0

    def test_packed_float_array(self, fmt):
        scan = L.LaserScan(ranges=[1.0, 2.5, 3.25])
        back = fmt.deserialize("sensor_msgs/LaserScan", fmt.serialize(scan))
        assert list(back.ranges) == [1.0, 2.5, 3.25]

    def test_negative_int_roundtrip(self, fmt, fresh_registry):
        from repro.msg.generator import generate_message_class

        fresh_registry.register_text("pkg/Neg", "int32 a\nint64 b\n")
        cls = generate_message_class("pkg/Neg", fresh_registry)
        local = ProtoBufFormat(fresh_registry)
        msg = cls(a=-5, b=-(2**40))
        back = local.deserialize("pkg/Neg", local.serialize(msg))
        assert (back.a, back.b) == (-5, -(2**40))

    def test_map_roundtrip_and_time_arrays_rejected(self, fresh_registry):
        from repro.msg.generator import generate_message_class

        fresh_registry.register_text("pkg/Tagged", "map<string,uint32> tags\n")
        fresh_registry.register_text("pkg/Stamps", "time[] stamps\n")
        local = ProtoBufFormat(fresh_registry)
        tagged = generate_message_class("pkg/Tagged", fresh_registry)
        msg = tagged(tags={"a": 1, "b": 2})
        back = local.deserialize("pkg/Tagged", local.serialize(msg))
        assert back.tags == {"a": 1, "b": 2}
        # Neither direction has an encoding for repeated time values.
        stamps = generate_message_class("pkg/Stamps", fresh_registry)
        with pytest.raises(TypeError, match="unsupported array element"):
            local.serialize(stamps(stamps=[(1, 2)]))
        with pytest.raises(TypeError, match="unsupported array element"):
            local.deserialize("pkg/Stamps", b"")

    def test_unknown_field_skipped(self, fmt):
        # Encode an Image, then prepend an unknown varint field (tag 15).
        img = L.Image(height=1)
        wire = bytearray()
        wire += bytes([15 << 3 | 0, 42])  # field 15, varint 42
        wire += fmt.serialize(img)
        back = fmt.deserialize("sensor_msgs/Image", bytes(wire))
        assert back.height == 1

    def test_time_roundtrip(self, fmt):
        msg = L.Time(data=(123, 456))
        assert fmt.deserialize("std_msgs/Time", fmt.serialize(msg)).data == (123, 456)


@settings(max_examples=40, deadline=None)
@given(
    height=st.integers(0, 2**32 - 1),
    width=st.integers(0, 2**32 - 1),
    encoding=st.text(max_size=10),
    data=st.binary(max_size=256),
)
def test_image_roundtrip_property(registry_fmt, height, width, encoding, data):
    img = L.Image(height=height, width=width, encoding=encoding)
    img.data = bytearray(data)
    back = registry_fmt.deserialize(
        "sensor_msgs/Image", registry_fmt.serialize(img)
    )
    assert back == img


@pytest.fixture(scope="module")
def registry_fmt():
    from repro.msg.registry import default_registry

    return ProtoBufFormat(default_registry)
