"""TZC-mode partial serialization for remote SFM links.

TZC (Wang et al., PAPERS.md) observes that most of a big message is raw
content -- pixel rows, point buffers -- that a serializer copies byte for
byte anyway.  An SFM buffer makes the split trivial: every content
region is addressable through the same ``(length, offset)`` skeleton
pairs the bridge's field extraction proves out, so a remote link can
ship

- a compact **control segment**: a fixed header, a table of bulk ranges,
  and every byte *not* covered by a range (skeleton scalars, small
  strings, nested pair tables) concatenated in buffer order, and
- one **bulk frame**: the large content ranges sliced straight out of
  the arena as iovecs -- never staged through an intermediate buffer.

The receiver allocates the whole buffer once, replays the gap bytes,
and copies each bulk range into its final position as it arrives; the
reassembled buffer is byte-identical to the classic serialized wire
(``tests/test_tzc_wire_parity.py`` checks all registered types) and is
adopted as an external SFM record without a further copy.

Negotiated per link with a ``tzc=1`` capability flag alongside the
unchanged ``format=sfm`` header field, so either side lacking the code
falls back to classic framing.  ``REPRO_TZC=0`` is the kill switch.

Abuse bounds (the Reassembler lesson from the fragmentation layer): the
control segment's declared sizes are validated *before* any allocation,
the range table is capped, and a per-link :class:`BulkBudget` bounds the
bulk bytes a peer can keep in flight -- a garbage control frame raises
:class:`~repro.ros.exceptions.ConnectionHandshakeError` and tears the
link down through the ordinary downgrade ladder instead of wedging it.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.ros.exceptions import ConnectionHandshakeError
from repro.ros.transport.tcpros import (
    KEEPALIVE_WORD,
    MAX_FRAME,
    TRACE_PREFIX,
)
from repro.sfm.layout import SkeletonLayout, bulk_regions

_LEN = struct.Struct("<I")
_TRACE = struct.Struct("<QQ")

#: Control segment header: magic, byte order code, flags, range count,
#: whole-buffer size.  The range table (start:u32, len:u32 each) and the
#: gap bytes follow immediately.
CONTROL_MAGIC = 0x315A4354  # "TZC1" when read little-endian
_CONTROL = struct.Struct("<IBBHI")
_RANGE = struct.Struct("<II")

#: Content ranges below this ride in the control segment: a range costs
#: a table entry plus a scatter read, which only pays off in bulk.
MIN_BULK = 512

#: Hard cap on the range table (a 6 MB image has a handful of ranges; a
#: control frame claiming thousands is garbage, not a message).
MAX_RANGES = 4096

#: Default per-link bulk budget, mirroring the transport's frame cap.
MAX_PENDING_BULK = MAX_FRAME

_ORDER_CODE = {"<": 0, ">": 1}
_CODE_ORDER = {0: "<", 1: ">"}


def tzc_enabled() -> bool:
    """True unless ``REPRO_TZC=0`` (the kill switch)."""
    from repro import config

    return config.tzc()


class TzcParts:
    """One message split for the wire: control segment + bulk iovecs."""

    __slots__ = ("control", "bulk", "bulk_len")

    def __init__(self, control: bytes, bulk: list, bulk_len: int) -> None:
        self.control = control
        self.bulk = bulk
        self.bulk_len = bulk_len


def split_message(
    layout: SkeletonLayout,
    buffer,
    whole_size: int,
    byte_order: str = "<",
    min_bulk: int = MIN_BULK,
) -> TzcParts:
    """Split an SFM buffer into control segment + bulk ranges.

    The bulk list holds zero-copy memoryviews into ``buffer``; callers
    must send (or copy) them before the buffer is reused.
    """
    if byte_order not in _ORDER_CODE:
        raise ValueError(f"unknown byte order {byte_order!r}")
    regions = bulk_regions(
        layout, buffer, whole_size, order=byte_order, min_bytes=min_bulk
    )
    if len(regions) > MAX_RANGES:
        # Degenerate layout: keep the largest ranges, fold the rest into
        # the control segment (correct either way).
        regions = sorted(
            sorted(regions, key=lambda r: r[0] - r[1])[:MAX_RANGES]
        )
    view = memoryview(buffer)
    control = bytearray(
        _CONTROL.pack(
            CONTROL_MAGIC,
            _ORDER_CODE[byte_order],
            0,
            len(regions),
            whole_size,
        )
    )
    for start, end in regions:
        control += _RANGE.pack(start, end - start)
    bulk: list = []
    bulk_len = 0
    cursor = 0
    for start, end in regions:
        if start > cursor:
            control += view[cursor:start]
        bulk.append(view[start:end])
        bulk_len += end - start
        cursor = end
    if cursor < whole_size:
        control += view[cursor:whole_size]
    return TzcParts(bytes(control), bulk, bulk_len)


def parse_control(
    control, max_whole: int = MAX_FRAME
) -> tuple[int, str, list[tuple[int, int]]]:
    """Validate a control segment; returns (whole_size, order, ranges).

    Every declared size is checked before the caller allocates anything:
    magic, byte-order code, range-table bounds (count cap, in-bounds,
    sorted, non-overlapping) and gap-byte arithmetic (the control length
    must equal header + table + exactly the uncovered bytes).
    """
    if len(control) < _CONTROL.size:
        raise ConnectionHandshakeError("tzc control segment truncated")
    magic, order_code, _flags, n_ranges, whole_size = _CONTROL.unpack_from(
        control, 0
    )
    if magic != CONTROL_MAGIC:
        raise ConnectionHandshakeError(
            f"bad tzc control magic {magic:#x}"
        )
    order = _CODE_ORDER.get(order_code)
    if order is None:
        raise ConnectionHandshakeError(
            f"unknown tzc byte-order code {order_code}"
        )
    if whole_size > max_whole:
        raise ConnectionHandshakeError(
            f"tzc message of {whole_size} bytes exceeds limit"
        )
    if n_ranges > MAX_RANGES:
        raise ConnectionHandshakeError(
            f"tzc range table of {n_ranges} entries exceeds limit"
        )
    table_end = _CONTROL.size + n_ranges * _RANGE.size
    if len(control) < table_end:
        raise ConnectionHandshakeError("tzc range table truncated")
    ranges: list[tuple[int, int]] = []
    bulk_len = 0
    cursor = 0
    for index in range(n_ranges):
        start, length = _RANGE.unpack_from(
            control, _CONTROL.size + index * _RANGE.size
        )
        if length == 0 or start < cursor or start + length > whole_size:
            raise ConnectionHandshakeError(
                f"tzc range [{start}, +{length}) is out of order or out "
                f"of bounds for a {whole_size}-byte message"
            )
        ranges.append((start, length))
        bulk_len += length
        cursor = start + length
    if len(control) - table_end != whole_size - bulk_len:
        raise ConnectionHandshakeError(
            f"tzc gap bytes mismatch: control carries "
            f"{len(control) - table_end}, layout needs "
            f"{whole_size - bulk_len}"
        )
    return whole_size, order, ranges


def begin_reassembly(
    control, ranges: list[tuple[int, int]], whole_size: int
) -> bytearray:
    """Allocate the destination buffer and replay the gap bytes; the
    caller then fills each range in place."""
    buffer = bytearray(whole_size)
    view = memoryview(buffer)
    gaps = memoryview(control)[_CONTROL.size + len(ranges) * _RANGE.size :]
    taken = 0
    cursor = 0
    for start, length in ranges:
        if start > cursor:
            gap = start - cursor
            view[cursor:start] = gaps[taken : taken + gap]
            taken += gap
        cursor = start + length
    if cursor < whole_size:
        view[cursor:whole_size] = gaps[taken:]
    return buffer


class BulkBudget:
    """Per-link bound on in-flight bulk bytes (the Reassembler lesson:
    never let a peer's declared sizes drive unbounded buffering)."""

    __slots__ = ("limit", "pending", "rejected")

    def __init__(self, limit: int = MAX_PENDING_BULK) -> None:
        self.limit = limit
        self.pending = 0
        self.rejected = 0

    def charge(self, nbytes: int) -> None:
        if self.pending + nbytes > self.limit:
            self.rejected += 1
            raise ConnectionHandshakeError(
                f"tzc bulk budget exceeded: {self.pending} pending + "
                f"{nbytes} requested > {self.limit} limit"
            )
        self.pending += nbytes

    def release(self, nbytes: int) -> None:
        self.pending = max(0, self.pending - nbytes)


# ----------------------------------------------------------------------
# Wire helpers (both frames are ordinary u32-length framing)
# ----------------------------------------------------------------------
def split_batch_parts(entries: list, traced: bool = False) -> list:
    """The iovec list for a batch of ``(parts, trace_id, stamp_ns)``
    splits: per message a control frame then a bulk frame, the bulk
    ranges as iovecs (zero staging copy).  Only the control frame
    carries the trace prefix on traced links.

    The bulk entries stay zero-copy views into the publisher's arena;
    the caller's flush callback must hold the payload alive until the
    bytes leave the process (``_Outgoing.done`` semantics)."""
    iov: list = []
    for parts, trace_id, stamp_ns in entries:
        if traced:
            iov.append(
                _LEN.pack(len(parts.control) + TRACE_PREFIX)
                + _TRACE.pack(trace_id, stamp_ns)
                + parts.control
            )
        else:
            iov.append(_LEN.pack(len(parts.control)) + parts.control)
        iov.append(_LEN.pack(parts.bulk_len))
        iov.extend(parts.bulk)
    return iov


class SplitDecoder:
    """Incremental TZC reassembly.

    Control frame (keepalive words skipped, trace prefix honoured),
    ``parse_control`` validation before any allocation, budget charge,
    bulk-length check, then the ranges filled in place as bytes arrive.
    ``feed(chunk)`` returns completed
    ``("message", buffer, order, trace_id, stamp_ns)`` events.  The
    buffer is freshly reassembled -- gap bytes from the control frame,
    bulk bytes copied once out of the read buffer into place -- and safe
    for the caller to adopt as an SFM record without copying.
    """

    __slots__ = ("budget", "traced", "_head", "_state", "_control_len",
                 "_control", "_filled", "_trace_id", "_stamp_ns",
                 "_buffer", "_view", "_ranges", "_order", "_bulk_len",
                 "_range_idx", "_range_off")

    def __init__(self, budget: Optional[BulkBudget] = None,
                 traced: bool = False) -> None:
        self.budget = budget
        self.traced = traced
        self._head = bytearray()
        self._state = "ctrl_len"
        self._control_len = 0
        self._control: Optional[bytearray] = None
        self._filled = 0
        self._trace_id = 0
        self._stamp_ns = 0
        self._buffer: Optional[bytearray] = None
        self._view: Optional[memoryview] = None
        self._ranges: list = []
        self._order = "<"
        self._bulk_len = 0
        self._range_idx = 0
        self._range_off = 0

    def _take_head(self, view, pos: int, end: int, need: int) -> int:
        take = min(need - len(self._head), end - pos)
        self._head += view[pos : pos + take]
        return pos + take

    def feed(self, data) -> list:
        events: list = []
        view = memoryview(data)
        pos = 0
        end = len(view)
        while pos < end:
            state = self._state
            if state == "ctrl_len":
                pos = self._take_head(view, pos, end, 4)
                if len(self._head) < 4:
                    break
                (length,) = _LEN.unpack(self._head)
                del self._head[:]
                if length == KEEPALIVE_WORD:
                    continue
                if length > MAX_FRAME:
                    raise ConnectionHandshakeError(
                        f"frame length {length} exceeds limit"
                    )
                if self.traced:
                    if length < TRACE_PREFIX:
                        raise ConnectionHandshakeError(
                            "tzc control frame cannot carry its trace prefix"
                        )
                    self._control_len = length - TRACE_PREFIX
                    self._state = "ctrl_trace"
                else:
                    self._trace_id = self._stamp_ns = 0
                    self._control_len = length
                    self._control = bytearray(length)
                    self._filled = 0
                    self._state = "ctrl_body"
            elif state == "ctrl_trace":
                pos = self._take_head(view, pos, end, TRACE_PREFIX)
                if len(self._head) < TRACE_PREFIX:
                    break
                self._trace_id, self._stamp_ns = _TRACE.unpack(self._head)
                del self._head[:]
                self._control = bytearray(self._control_len)
                self._filled = 0
                self._state = "ctrl_body"
            elif state == "ctrl_body":
                need = self._control_len - self._filled
                take = min(need, end - pos)
                self._control[self._filled : self._filled + take] = \
                    view[pos : pos + take]
                self._filled += take
                pos += take
                if self._filled < self._control_len:
                    break
                whole_size, order, ranges = parse_control(self._control)
                self._order = order
                self._ranges = ranges
                self._bulk_len = sum(length for _s, length in ranges)
                if self.budget is not None:
                    self.budget.charge(self._bulk_len)
                self._buffer = begin_reassembly(
                    self._control, ranges, whole_size
                )
                self._view = memoryview(self._buffer)
                self._control = None
                self._state = "bulk_len"
            elif state == "bulk_len":
                pos = self._take_head(view, pos, end, 4)
                if len(self._head) < 4:
                    break
                (declared,) = _LEN.unpack(self._head)
                del self._head[:]
                if declared == KEEPALIVE_WORD:
                    continue
                if declared != self._bulk_len:
                    raise ConnectionHandshakeError(
                        f"tzc bulk frame of {declared} bytes does not "
                        f"match the control segment's {self._bulk_len}"
                    )
                self._range_idx = 0
                self._range_off = 0
                self._state = "bulk"
                if not self._ranges:
                    events.append(self._complete())
            elif state == "bulk":
                start, length = self._ranges[self._range_idx]
                need = length - self._range_off
                take = min(need, end - pos)
                at = start + self._range_off
                self._view[at : at + take] = view[pos : pos + take]
                self._range_off += take
                pos += take
                if self._range_off == length:
                    self._range_idx += 1
                    self._range_off = 0
                    if self._range_idx == len(self._ranges):
                        events.append(self._complete())
        return events

    def _complete(self) -> tuple:
        if self.budget is not None:
            self.budget.release(self._bulk_len)
        buffer = self._buffer
        self._view = None
        self._buffer = None
        self._ranges = []
        self._state = "ctrl_len"
        return ("message", buffer, self._order, self._trace_id,
                self._stamp_ns)
