"""Workload generation for the latency experiments.

The paper's Section 5.1/5.2 workloads are ``sensor_msgs::Image`` messages
of three sizes: ~200 KB (256x256x24 bit), ~1 MB (800x600x24 bit) and
~6 MB (1920x1080x24 bit).  The creation time is stored into the message
(via ``header.stamp``) and the subscriber records ``now - stamp``.

Construction parity matters: in the C++ experiment both the original ROS
and the ROS-SF code resize the data vector and write the pixels into the
message -- one copy each.  :func:`construct_image` reproduces that: the
source frame is copied into the message on *both* profiles (``bytes(...)``
for the plain class, buffer write for SFM), so the measured difference is
exactly the (de)serialization the paper eliminates, not an accidental
difference in construction work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ImageWorkload:
    """One image-size configuration from the paper."""

    label: str
    width: int
    height: int

    @property
    def data_bytes(self) -> int:
        return self.width * self.height * 3

    def make_frame(self, seed: int = 42) -> bytes:
        """A deterministic pseudo-camera frame of the right size."""
        rng = np.random.default_rng(seed)
        return rng.integers(0, 255, size=self.data_bytes, dtype=np.uint8).tobytes()


#: The paper's three sizes (Fig. 13 / Fig. 16).
IMAGE_WORKLOADS: tuple[ImageWorkload, ...] = (
    ImageWorkload(label="~200KB (256x256x24b)", width=256, height=256),
    ImageWorkload(label="~1MB (800x600x24b)", width=800, height=600),
    ImageWorkload(label="~6MB (1920x1080x24b)", width=1920, height=1080),
)

#: The single size used by Fig. 14's middleware comparison.
SIX_MEGABYTE = IMAGE_WORKLOADS[2]


def construct_image(msg_class, frame: bytes, workload: ImageWorkload,
                    seq: int, stamp) -> object:
    """Build one ``sensor_msgs/Image`` message, copying the frame in.

    The same statements run for the plain and the SFM class -- the code is
    the paper's Fig. 3 pattern and the Converter would leave it unchanged.
    """
    msg = msg_class()
    msg.header.seq = seq
    msg.header.stamp = stamp
    msg.header.frame_id = "camera"
    msg.height = workload.height
    msg.width = workload.width
    msg.encoding = "rgb8"
    msg.is_bigendian = 0
    msg.step = workload.width * 3
    # Copy the pixels into the message (what a camera driver's memcpy
    # does).  bytearray(frame) forces the copy for the plain class; the
    # SFM class copies into its buffer by assignment.
    from repro.sfm.message import SFMMessage

    if isinstance(msg, SFMMessage):
        msg.data = frame
    else:
        msg.data = bytearray(frame)
    return msg
