"""Tests for the SFM skeleton layout, including the byte-exact
reproduction of the paper's Fig. 7."""

import struct

import pytest

from repro.msg.registry import default_registry
from repro.sfm.generator import generate_sfm_class
from repro.sfm.layout import (
    SkeletonLayout,
    convert_endianness,
    layout_for,
    padded_string_length,
    validate_buffer,
)


class TestSkeletonSizes:
    def test_simple_image_skeleton(self):
        # Fig. 7: encoding (8) + height (4) + width (4) + data (8) = 24.
        layout = layout_for("rossf_bench/SimpleImage")
        assert layout.skeleton_size == 24
        assert repr(layout).startswith(
            "<SkeletonLayout rossf_bench/SimpleImage skeleton=24B")
        offsets = {slot.name: slot.offset for slot in layout.slots}
        assert offsets == {"encoding": 0, "height": 8, "width": 12, "data": 16}

    def test_header_skeleton(self):
        # seq (4) + stamp (8) + frame_id (8) = 20.
        assert layout_for("std_msgs/Header").skeleton_size == 20

    def test_nested_skeleton_inlined(self):
        layout = layout_for("sensor_msgs/Image")
        header_slot = layout.slot_by_name["header"]
        assert header_slot.kind == "nested"
        assert header_slot.size == 20
        # header(20) + height(4) + width(4) + encoding(8) + is_bigendian(1)
        # + step(4) + data(8) = 49.
        assert layout.skeleton_size == 49

    def test_fixed_array_inlined(self):
        layout = layout_for("sensor_msgs/CameraInfo")
        k_slot = layout.slot_by_name["K"]
        assert k_slot.kind == "fixed_array"
        assert k_slot.size == 9 * 8

    def test_vector_of_messages_skeleton_is_pair(self):
        layout = layout_for("sensor_msgs/PointCloud")
        points = layout.slot_by_name["points"]
        assert points.kind == "vector"
        assert points.size == 8
        assert points.element.size == 12  # Point32 skeleton (3 float32)

    def test_capacity_from_idl(self):
        assert layout_for("sensor_msgs/Image").capacity == 8388608

    def test_recursive_type_rejected(self, fresh_registry):
        fresh_registry.register_text("pkg/Loop", "pkg/Loop next\n")
        with pytest.raises(ValueError, match="recursive"):
            layout_for("pkg/Loop", fresh_registry)


class TestFig7ByteExact:
    """The complete memory layout of the paper's Fig. 7."""

    @pytest.fixture
    def image_wire(self):
        cls = generate_sfm_class("rossf_bench/SimpleImage")
        img = cls()
        img.encoding = "rgb8"
        img.height = 10
        img.width = 10
        img.data = bytes(range(256)) + bytes(44)
        return bytes(img.to_wire())

    def test_whole_size(self, image_wire):
        assert len(image_wire) == 0x014C  # 332 bytes

    def test_encoding_skeleton(self, image_wire):
        length, offset = struct.unpack_from("<II", image_wire, 0x0000)
        assert length == 8       # "rgb8" + NUL + 3 padding
        assert offset == 20      # 0x0004 + 20 = 0x0018

    def test_height_width(self, image_wire):
        assert struct.unpack_from("<II", image_wire, 0x0008) == (10, 10)

    def test_data_skeleton(self, image_wire):
        length, offset = struct.unpack_from("<II", image_wire, 0x0010)
        assert length == 300
        assert offset == 12      # 0x0014 + 12 = 0x0020

    def test_encoding_content(self, image_wire):
        assert image_wire[0x0018:0x0020] == b"rgb8\x00\x00\x00\x00"

    def test_data_content(self, image_wire):
        assert image_wire[0x0020:0x014C] == bytes(range(256)) + bytes(44)


class TestPaddedStringLength:
    @pytest.mark.parametrize(
        "content,stored",
        [(b"", 4), (b"a", 4), (b"abc", 4), (b"rgb8", 8), (b"abcdefg", 8)],
    )
    def test_lengths(self, content, stored):
        assert padded_string_length(content) == stored


class TestEndiannessConversion:
    def test_roundtrip_identity(self):
        cls = generate_sfm_class("rossf_bench/SimpleImage")
        img = cls(height=3, width=4)
        img.encoding = "rgb8"
        img.data = bytes(range(36))
        buffer = bytearray(bytes(img.to_wire()))
        original = bytes(buffer)
        layout = layout_for("rossf_bench/SimpleImage")
        convert_endianness(layout, buffer, "<", ">")
        assert bytes(buffer) != original
        convert_endianness(layout, buffer, ">", "<")
        assert bytes(buffer) == original

    def test_big_endian_publisher_adopted(self):
        cls = generate_sfm_class("rossf_bench/SimpleImage")
        img = cls(height=7, width=9)
        img.encoding = "mono8"
        img.data = bytes(range(16))
        buffer = bytearray(bytes(img.to_wire()))
        layout = layout_for("rossf_bench/SimpleImage")
        convert_endianness(layout, buffer, "<", ">")  # simulate BE sender
        received = cls.from_buffer(buffer, byte_order=">")
        assert received.height == 7
        assert received.width == 9
        assert received.encoding == "mono8"
        assert received.data == bytes(range(16))

    def test_nested_and_float_vectors_convert(self):
        cls = generate_sfm_class("sensor_msgs/LaserScan")
        scan = cls(angle_min=-1.5, angle_max=1.5)
        scan.header.seq = 77
        scan.ranges = [1.0, 2.0, 3.0]
        buffer = bytearray(bytes(scan.to_wire()))
        layout = layout_for("sensor_msgs/LaserScan")
        convert_endianness(layout, buffer, "<", ">")
        received = cls.from_buffer(buffer, byte_order=">")
        assert received.header.seq == 77
        assert received.angle_min == pytest.approx(-1.5)
        assert list(received.ranges) == [1.0, 2.0, 3.0]

    def test_same_order_is_noop(self):
        cls = generate_sfm_class("rossf_bench/SimpleImage")
        img = cls(height=1)
        buffer = bytearray(bytes(img.to_wire()))
        before = bytes(buffer)
        convert_endianness(
            layout_for("rossf_bench/SimpleImage"), buffer, "<", "<"
        )
        assert bytes(buffer) == before


class TestValidateBuffer:
    def test_valid_message_passes(self):
        cls = generate_sfm_class("sensor_msgs/Image")
        img = cls(height=2, width=2)
        img.encoding = "rgb8"
        img.data = bytes(12)
        layout = layout_for("sensor_msgs/Image")
        regions = validate_buffer(layout, img.record.buffer, img.whole_size)
        assert len(regions) == 2  # encoding content + data content

    def test_corrupted_offset_detected(self):
        cls = generate_sfm_class("rossf_bench/SimpleImage")
        img = cls()
        img.data = bytes(64)
        buffer = bytearray(bytes(img.to_wire()))
        struct.pack_into("<I", buffer, 16, 2**31)  # absurd data length
        layout = layout_for("rossf_bench/SimpleImage")
        with pytest.raises(ValueError, match="overruns"):
            validate_buffer(layout, buffer, len(buffer))
