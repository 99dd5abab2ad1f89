"""Byte-order utilities.

ROS's wire format is little-endian; SFM messages travel in the *publisher's*
native byte order and the subscriber converts when it differs (paper
Section 4.4.1).  These helpers centralize the two byte-order markers and
in-place swapping of typed regions, shared by the serializers and by
:func:`repro.sfm.layout.convert_endianness`.
"""

from __future__ import annotations

import sys

LITTLE = "<"
BIG = ">"

#: The byte-order marker of the host running this process.
NATIVE = LITTLE if sys.byteorder == "little" else BIG


def opposite(order: str) -> str:
    """The other byte-order marker.

    >>> opposite(LITTLE)
    '>'
    """
    if order == LITTLE:
        return BIG
    if order == BIG:
        return LITTLE
    raise ValueError(f"bad byte-order marker {order!r}")


def swap_region(buffer: bytearray, offset: int, item_size: int, count: int) -> None:
    """Reverse the byte order of ``count`` items of ``item_size`` bytes
    starting at ``offset``, in place.

    Single-byte items are left untouched.  This is the primitive that the
    SFM subscriber-side conversion is built from.
    """
    if item_size == 1 or count == 0:
        return
    end = offset + item_size * count
    if end > len(buffer):
        raise ValueError("swap_region out of bounds")
    view = memoryview(buffer)[offset:end]
    # numpy-free in-place swap: slice assignment per byte lane.
    chunk = bytes(view)
    swapped = bytearray(len(chunk))
    for lane in range(item_size):
        swapped[lane::item_size] = chunk[item_size - 1 - lane :: item_size]
    view[:] = swapped
