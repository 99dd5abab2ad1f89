"""Seeded inputs: what each workload publishes and how a delivery is
checked against it.

The program sees only the generated messages; the seed never reaches
it.  One :class:`Inputs` serves the live run and the layer pass, so the
layer calls run on the workload's exact message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.bench.workloads import ImageWorkload, construct_image
from repro.msg import library
from repro.ros.rostime import Time
from repro.rossf import sfm_classes_for

#: The three fields the bridge clients select, and their SFM spelling.
BRIDGE_FIELDS = ("height", "width", "header.seq")
BRIDGE_SPELLING = "sensor_msgs/Image@sfm"

_ALPHABET = np.frombuffer(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    dtype=np.uint8,
)
#: Leading characters of every string message: its sequence number.
_SEQ_DIGITS = 8


@dataclass(frozen=True)
class Inputs:
    """One workload's generated message content.

    ``build(seq)`` constructs message number ``seq`` the way user code
    would; ``check(msg, seq)`` is the subscriber-side test of a delivered
    message (sequence number plus first/middle/last payload bytes);
    ``check_fields(values, seq)`` is the same for a bridge delivery of
    :data:`BRIDGE_FIELDS` (images only; no string workload crosses the
    gateway).
    """

    type_name: str
    msg_class: type
    plain_class: type
    sfm_class: type
    build: Callable[[int], object]
    check: Callable[[object, int], bool]
    check_fields: Optional[Callable[[dict, int], bool]] = None


def image_frame(seed: int, width: int, height: int) -> bytes:
    """A pseudo-camera frame: ``width * height`` rgb8 pixels."""
    rng = np.random.default_rng([seed, width, height])
    return rng.integers(
        0, 256, size=width * height * 3, dtype=np.uint8
    ).tobytes()


def string_tail(seed: int, length: int) -> str:
    """The part of a string message after its sequence digits."""
    rng = np.random.default_rng([seed, length])
    picks = rng.integers(0, len(_ALPHABET), size=length - _SEQ_DIGITS)
    return _ALPHABET[picks].tobytes().decode("ascii")


def image_inputs(seed: int, width: int, height: int, sfm: bool) -> Inputs:
    frame = image_frame(seed, width, height)
    (sfm_class,) = sfm_classes_for("sensor_msgs/Image")
    msg_class = sfm_class if sfm else library.Image
    shape = ImageWorkload(label=f"{width}x{height}", width=width,
                          height=height)
    middle = len(frame) // 2
    probe = (frame[0], frame[middle], frame[-1])

    def build(seq: int, cls: type = msg_class):
        return construct_image(cls, frame, shape, seq, tuple(Time.now()))

    def check(msg, seq: int) -> bool:
        data = msg.data
        return (
            msg.header.seq == seq
            and len(data) == len(frame)
            and (data[0], data[middle], data[-1]) == probe
        )

    def check_fields(values: dict, seq: int) -> bool:
        return values == {
            "height": height, "width": width, "header": {"seq": seq},
        }

    return Inputs(
        type_name="sensor_msgs/Image",
        msg_class=msg_class,
        plain_class=library.Image,
        sfm_class=sfm_class,
        build=build,
        check=check,
        check_fields=check_fields,
    )


def string_inputs(seed: int, length: int, sfm: bool) -> Inputs:
    tail = string_tail(seed, length)
    (sfm_class,) = sfm_classes_for("std_msgs/String")
    msg_class = sfm_class if sfm else library.String
    middle = (length - _SEQ_DIGITS) // 2
    probe = (tail[0], tail[middle], tail[-1])

    def build(seq: int, cls: type = msg_class):
        msg = cls()
        msg.data = f"{seq:0{_SEQ_DIGITS}x}{tail}"
        return msg

    def check(msg, seq: int) -> bool:
        text = str(msg.data)
        body = text[_SEQ_DIGITS:]
        return (
            len(text) == length
            and text[:_SEQ_DIGITS] == f"{seq:0{_SEQ_DIGITS}x}"
            and (body[0], body[middle], body[-1]) == probe
        )

    return Inputs(
        type_name="std_msgs/String",
        msg_class=msg_class,
        plain_class=library.String,
        sfm_class=sfm_class,
        build=build,
        check=check,
    )
