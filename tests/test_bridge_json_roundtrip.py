"""JSON codec round trips: generate -> to-JSON -> from-JSON -> compare,
for every message type in the registry (property-style over seeds).

This is the bridge's ``json`` delivery codec: a client must be able to
read any published message as JSON and publish the same dict back into
the graph losslessly.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro.bridge.conversion import ConversionError, dict_to_msg, msg_to_dict
from repro.msg.fields import (
    ArrayType,
    ComplexType,
    MapType,
    PrimitiveType,
    StringType,
)
from repro.msg.generator import generate_message_class
from repro.msg.registry import default_registry

_WORDS = ("map", "odom", "cam0", "lidar", "", "frame with spaces", "ünïcode")


def _float32(value: float) -> float:
    """Clamp to an exactly float32-representable value so equality is
    byte-exact through the JSON round trip."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


def _value_for(ftype, rng: random.Random, depth: int = 0):
    if isinstance(ftype, PrimitiveType):
        if ftype.is_time or ftype.struct_fmt in ("II", "ii"):
            return (rng.randrange(2**31), rng.randrange(10**9))
        if ftype.struct_fmt == "?":
            return rng.random() < 0.5
        if ftype.is_float:
            value = rng.uniform(-1e6, 1e6)
            return _float32(value) if ftype.struct_fmt == "f" else value
        lo, hi = ftype.range()
        return rng.randint(lo, hi)
    if isinstance(ftype, StringType):
        return rng.choice(_WORDS)
    if isinstance(ftype, MapType):
        return {
            _value_for(ftype.key_type, rng, depth + 1):
                _value_for(ftype.value_type, rng, depth + 1)
            for _ in range(rng.randrange(3))
        }
    if isinstance(ftype, ArrayType):
        count = ftype.length if ftype.length is not None else rng.randrange(4)
        element = ftype.element_type
        if (
            isinstance(element, PrimitiveType)
            and element.struct_fmt == "B"
        ):
            return bytearray(rng.randrange(256) for _ in range(count))
        return [_value_for(element, rng, depth + 1) for _ in range(count)]
    if isinstance(ftype, ComplexType):
        return _build_message(ftype.name, rng, depth + 1)
    raise AssertionError(ftype)  # pragma: no cover


def _build_message(type_name: str, rng: random.Random, depth: int = 0):
    spec = default_registry.get(type_name)
    cls = generate_message_class(type_name, default_registry)
    return cls(**{
        field.name: _value_for(field.type, rng, depth)
        for field in spec.fields
    })


@pytest.mark.parametrize("type_name", sorted(default_registry.names()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_registry_type_roundtrips(type_name, seed):
    rng = random.Random(f"{type_name}:{seed}")
    msg = _build_message(type_name, rng)
    as_dict = msg_to_dict(msg)
    # through real JSON text, exactly as the wire carries it
    rebuilt = dict_to_msg(
        json.loads(json.dumps(as_dict)),
        generate_message_class(type_name, default_registry),
    )
    assert rebuilt == msg, type_name
    # and the conversion is deterministic
    assert msg_to_dict(rebuilt) == as_dict


def test_sfm_class_roundtrips_through_json():
    """dict_to_msg also targets SFM classes (the server's publish path
    for @sfm topics)."""
    from repro.sfm.generator import generate_sfm_class

    Image = generate_sfm_class("sensor_msgs/Image", default_registry)
    rebuilt = dict_to_msg(
        {
            "height": 2, "width": 3, "encoding": "rgb8",
            "header": {"seq": 9, "frame_id": "cam"},
            "data": "AAEC",  # base64 of 00 01 02
        },
        Image,
    )
    assert rebuilt.height == 2
    assert rebuilt.header.seq == 9
    assert str(rebuilt.header.frame_id) == "cam"
    assert rebuilt.data.tobytes() == b"\x00\x01\x02"
    # and back out: SFM messages convert with the same spec-driven walk
    as_dict = msg_to_dict(rebuilt)
    assert as_dict["width"] == 3
    assert as_dict["data"] == "AAEC"
    assert as_dict["header"]["frame_id"] == "cam"


def test_sparse_dict_keeps_defaults():
    String = generate_message_class("std_msgs/String", default_registry)
    assert dict_to_msg({}, String).data == ""


def test_unknown_keys_rejected():
    String = generate_message_class("std_msgs/String", default_registry)
    with pytest.raises(ConversionError):
        dict_to_msg({"data": "x", "bogus": 1}, String)
    Pose = generate_message_class("geometry_msgs/PoseStamped",
                                  default_registry)
    with pytest.raises(ConversionError):
        dict_to_msg({"pose": {"position": {"w": 1.0}}}, Pose)


@pytest.mark.parametrize("payload", [
    {"data": 3.5},            # float into a string field? no: string field
    {"data": [1, 2]},
    {"data": None},
])
def test_type_mismatches_rejected(payload):
    String = generate_message_class("std_msgs/String", default_registry)
    with pytest.raises(ConversionError):
        dict_to_msg(payload, String)


def test_byte_arrays_accept_base64_and_lists():
    Image = generate_message_class("sensor_msgs/Image", default_registry)
    by_b64 = dict_to_msg({"data": "AQID"}, Image)
    by_list = dict_to_msg({"data": [1, 2, 3]}, Image)
    assert bytes(by_b64.data) == bytes(by_list.data) == b"\x01\x02\x03"
    with pytest.raises(ConversionError):
        dict_to_msg({"data": "###"}, Image)


def test_time_values_validated():
    Time = generate_message_class("std_msgs/Time", default_registry)
    assert dict_to_msg({"data": [5, 6]}, Time).data == (5, 6)
    with pytest.raises(ConversionError):
        dict_to_msg({"data": 5}, Time)
    with pytest.raises(ConversionError):
        dict_to_msg({"data": [1, 2, 3]}, Time)


def test_nested_field_holding_a_non_message_rejected():
    Pose = generate_message_class("geometry_msgs/PoseStamped",
                                  default_registry)
    msg = Pose()
    msg.pose = {"position": {"x": 1.0}}
    with pytest.raises(ConversionError, match="cannot convert dict"):
        msg_to_dict(msg)
