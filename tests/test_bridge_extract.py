"""Selective field extraction: compiled offset readers vs. real SFM buffers.

Every value the selector slices out of a raw buffer must equal what the
SFM accessors (or a full decode) would have produced -- without ever
constructing a message object.
"""

from __future__ import annotations

import struct

import pytest

from repro.bridge.extract import (
    FieldPathError,
    FieldSelector,
    nest_paths,
    unpack_packed,
)
from repro.msg.registry import default_registry
from repro.sfm.generator import generate_sfm_class
from repro.sfm.layout import layout_for

RICH_NAME = "bridge_test/Rich"
RICH_TEXT = (
    "std_msgs/Header header\n"
    "uint32 height\n"
    "float64 ratio\n"
    "bool flag\n"
    "string label\n"
    "uint8[] blob\n"
    "float32[] samples\n"
    "string[] names\n"
    "uint8[4] quad\n"
    "int32[3] triple\n"
    "time stamp\n"
    "map<string,int32> tags\n"
    "geometry_msgs/Point[] points\n"
    "# sfm_capacity: 65536\n"
)


@pytest.fixture(scope="module")
def rich_class():
    if RICH_NAME not in default_registry.names():
        default_registry.register_text(RICH_NAME, RICH_TEXT)
    return generate_sfm_class(RICH_NAME, default_registry)


@pytest.fixture(scope="module")
def rich_buffer(rich_class):
    msg = rich_class()
    msg.header.seq = 77
    msg.header.stamp = (12, 34)
    msg.header.frame_id = "map"
    msg.height = 480
    msg.ratio = 2.5
    msg.flag = True
    msg.label = "hello bridge"
    msg.blob.resize(5)
    for index, byte in enumerate(b"\x01\x02\x03\x04\x05"):
        msg.blob[index] = byte
    msg.samples.resize(3)
    msg.samples[0], msg.samples[1], msg.samples[2] = 0.5, 1.5, -2.0
    msg.names.resize(2)
    msg.names[0] = "alpha"
    msg.names[1] = "beta"
    for index in range(4):
        msg.quad[index] = 10 + index
    for index in range(3):
        msg.triple[index] = -index
    msg.stamp = (99, 100)
    msg.tags = {"a": 1, "b": 2}
    msg.points.resize(2)
    msg.points[0].x, msg.points[0].y, msg.points[0].z = 1.0, 2.0, 3.0
    msg.points[1].x = 4.0
    return bytes(msg.to_wire())


def _layout():
    return layout_for(RICH_NAME, default_registry)


def test_scalar_and_string_extraction(rich_class, rich_buffer):
    selector = FieldSelector(_layout(), ["height", "ratio", "flag", "label"])
    values = selector.extract(rich_buffer)
    assert values == {
        "height": 480, "ratio": 2.5, "flag": True, "label": "hello bridge",
    }
    assert selector.extracts == 1


def test_nested_path_folds_offsets(rich_class, rich_buffer):
    selector = FieldSelector(
        _layout(), ["header.seq", "header.stamp", "header.frame_id"]
    )
    assert selector.extract(rich_buffer) == {
        "header.seq": 77, "header.stamp": [12, 34], "header.frame_id": "map",
    }


def test_vector_extraction(rich_class, rich_buffer):
    selector = FieldSelector(_layout(), ["blob", "samples", "names"])
    values = selector.extract(rich_buffer)
    assert values["blob"] == b"\x01\x02\x03\x04\x05"
    assert values["samples"] == pytest.approx([0.5, 1.5, -2.0])
    assert values["names"] == ["alpha", "beta"]


def test_fixed_array_and_time_extraction(rich_class, rich_buffer):
    selector = FieldSelector(_layout(), ["quad", "triple", "stamp"])
    values = selector.extract(rich_buffer)
    assert values["quad"] == bytes([10, 11, 12, 13])
    assert values["triple"] == [0, -1, -2]
    assert values["stamp"] == [99, 100]
    # The message's own (unaligned) time accessor reads the same value.
    assert rich_class.from_buffer(rich_buffer).stamp == (99, 100)


def test_map_and_nested_vector_extraction(rich_class, rich_buffer):
    selector = FieldSelector(_layout(), ["tags", "points"])
    values = selector.extract(rich_buffer)
    assert sorted(values["tags"]) == [["a", 1], ["b", 2]]
    assert values["points"][0] == {"x": 1.0, "y": 2.0, "z": 3.0}
    assert values["points"][1] == {"x": 4.0, "y": 0.0, "z": 0.0}


def test_whole_nested_message_extraction(rich_class, rich_buffer):
    selector = FieldSelector(_layout(), ["header"])
    assert selector.extract(rich_buffer)["header"] == {
        "seq": 77, "stamp": [12, 34], "frame_id": "map",
    }


def test_extract_nested_shape(rich_class, rich_buffer):
    selector = FieldSelector(_layout(), ["header.seq", "height"])
    assert selector.extract_nested(rich_buffer) == {
        "header": {"seq": 77}, "height": 480,
    }


def test_untouched_fields_never_read(rich_class):
    """The selector must not touch bytes outside its compiled offsets:
    extraction still works when the rest of the buffer is garbage."""
    layout = _layout()
    msg = rich_class()
    msg.height = 7
    buffer = bytearray(msg.to_wire())
    height_slot = layout.slot_by_name["height"]
    blob_slot = layout.slot_by_name["blob"]
    for offset in range(len(buffer)):
        if height_slot.offset <= offset < height_slot.offset + 4:
            continue
        if blob_slot.offset <= offset < blob_slot.offset + 8:
            continue  # keep the (count, offset) pair sane
        buffer[offset] ^= 0xAA
    selector = FieldSelector(layout, ["height"])
    assert selector.extract(bytes(buffer)) == {"height": 7}


def test_duplicate_paths_deduplicated():
    selector = FieldSelector(_layout(), ["height", "height"])
    assert selector.paths == ["height"]


def test_bad_paths_raise():
    layout = _layout()
    with pytest.raises(FieldPathError):
        FieldSelector(layout, ["nope"])
    with pytest.raises(FieldPathError):
        FieldSelector(layout, ["height.nope"])  # descends through scalar
    with pytest.raises(FieldPathError):
        FieldSelector(layout, ["header.missing"])
    with pytest.raises(FieldPathError):
        FieldSelector(layout, [])


def test_pack_unpack_roundtrip(rich_class, rich_buffer):
    selector = FieldSelector(
        _layout(),
        ["height", "ratio", "flag", "label", "blob", "samples", "stamp"],
    )
    schema = selector.schema()
    packed = selector.pack(rich_buffer)
    values = unpack_packed(schema, packed)
    assert values["height"] == 480
    assert values["ratio"] == 2.5
    assert values["flag"] is True
    assert values["label"] == "hello bridge"
    assert values["blob"] == b"\x01\x02\x03\x04\x05"
    assert values["samples"] == pytest.approx([0.5, 1.5, -2.0])
    assert values["stamp"] == [99, 100]
    # packed fields stay tiny relative to the buffer
    assert len(packed) < 128 < len(rich_buffer)


def test_schema_rejects_unpackable_kinds():
    selector = FieldSelector(_layout(), ["tags"])
    with pytest.raises(FieldPathError):
        selector.schema()
    selector = FieldSelector(_layout(), ["points"])
    with pytest.raises(FieldPathError):
        selector.schema()


def test_pack_copies_raw_little_endian_bytes(rich_class, rich_buffer):
    """Fixed-size fields are byte-for-byte copies of the buffer."""
    layout = _layout()
    selector = FieldSelector(layout, ["height"])
    packed = selector.pack(rich_buffer)
    slot = layout.slot_by_name["height"]
    assert packed == bytes(rich_buffer[slot.offset : slot.offset + 4])
    assert struct.unpack("<I", packed)[0] == 480


def test_nest_paths():
    assert nest_paths({"a.b.c": 1, "a.b.d": 2, "e": 3}) == {
        "a": {"b": {"c": 1, "d": 2}}, "e": 3,
    }


def test_extraction_matches_accessors_on_image():
    """The headline case: two scalars out of a megabyte Image buffer."""
    Image = generate_sfm_class("sensor_msgs/Image", default_registry)
    msg = Image()
    msg.height = 1080
    msg.width = 1920
    msg.data.resize(1 << 20)
    buffer = bytes(msg.to_wire())
    selector = FieldSelector(
        layout_for("sensor_msgs/Image", default_registry),
        ["height", "width"],
    )
    assert selector.extract(buffer) == {"height": 1080, "width": 1920}
