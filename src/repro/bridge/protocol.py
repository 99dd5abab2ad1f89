"""The bridge wire protocol: framing, op validation and fragmentation.

The gateway speaks a rosbridge-v2-style op protocol over a single TCP
port.  Every protocol unit is a *frame*::

    u32 LE length | u8 tag | body        (length counts tag + body)

with three frame kinds (the three wire codecs of the bridge):

- ``TAG_JSON``   -- ``body`` is one UTF-8 JSON object, an *op* such as
  ``subscribe`` or ``publish`` (full-message JSON conversion);
- ``TAG_RAW``    -- ``body`` is ``u32 sid | payload``: the payload bytes
  of one message exactly as they travelled the internal graph.  For SFM
  topics this is the SFM buffer untouched -- the serialization-free
  forwarding path;
- ``TAG_CBIN``   -- ``body`` is ``u32 sid | packed fields``: the compact
  binary encoding of the subscription's selected fields, packed straight
  out of the SFM buffer by :mod:`repro.bridge.extract`.

Ops are JSON regardless of delivery codec, so every connection can issue
control traffic.  Frames larger than the connection's negotiated
``max_frame`` are split into ``fragment`` ops (base64 chunks of the inner
``tag | body`` unit) and re-assembled by :class:`Reassembler` -- the
rosbridge fragmentation capability, generalized to all three codecs.

The same ``tag | body`` units ride three wires.  A **framing** is the
value that knows one wire and nothing else; the server's ``Session`` and
the blocking ``BridgeClient`` are both written against it:

- ``name`` -- the transport label in ``describe()`` and the metrics;
- ``hello_first`` -- the peer's first unit must be a ``hello`` op (the
  wires that open with an HTTP upgrade have shaken hands already);
- ``sequential`` -- fragment streams cannot legitimately interleave;
- ``decoder()`` -- a fresh incremental decoder for received bytes;
- ``units(events, reply)`` -- decoder events to ``(tag, body, wire)``
  triples, ``wire`` being the bytes the unit took on the wire; control
  answers the wire owes the peer are handed to ``reply(parts)``;
- ``parts(tag, body)`` -- one unit as ``writev`` parts;
- ``goodbye(code, reason)`` -- the parts that tell the peer why the
  connection ends (empty where the wire has no such frame).  An
  exception out of the decoder or ``units`` that carries ``code`` and
  ``reason`` attributes is answered with them before the close.

:class:`LengthPrefixed` is the raw-TCP framing; ``WebSocket`` and
``ServerSentEvents`` live in :mod:`repro.bridge.ws`.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Iterator, Optional

from repro.ros.reactor import FrameDecoder
from repro.ros.transport import tcpros

PROTOCOL_VERSION = "2.0"

#: Frame tags (first byte inside the length-framed unit).
TAG_JSON = 0x00
TAG_RAW = 0x01
TAG_CBIN = 0x02

#: Upper bound on accepted frames, mirroring the TCPROS guard.
MAX_FRAME = tcpros.MAX_FRAME

#: Smallest negotiable fragmentation threshold; below this the base64 +
#: envelope overhead of a fragment op would not fit.
MIN_MAX_FRAME = 256

#: Most fragments one unit can legitimately need: a MAX_FRAME unit,
#: base64-expanded, split at the smallest chunk :func:`fragment_unit`
#: ever emits.  A client-supplied ``total`` above this is rejected
#: before any slot list is allocated for it.
MAX_FRAGMENT_TOTAL = (4 * MAX_FRAME // 3 + 4) // (MIN_MAX_FRAME // 2) + 1

#: Most base64 text one reassembly may buffer (a MAX_FRAME unit,
#: encoded, plus padding).
_MAX_ENCODED = 4 * MAX_FRAME // 3 + 8

_LEN = struct.Struct("<I")
_SID = struct.Struct("<I")

#: Delivery codecs a subscription (or a connection default) may name.
CODECS = ("json", "raw", "cbin")

#: Status severity levels (rosbridge's set).
STATUS_LEVELS = ("error", "warning", "info", "none")


#: Why a session ends, as handed to a framing's ``goodbye`` (RFC 6455
#: close codes: WebSocket is the one wire that transmits them).
CLOSE_NORMAL = 1000
CLOSE_PROTOCOL_ERROR = 1002
CLOSE_POLICY = 1008
CLOSE_TOO_BIG = 1009
CLOSE_OVERLOADED = 1013


class BridgeProtocolError(Exception):
    """A malformed frame or op that cannot be attributed to a request."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def write_bridge_frame(sock: socket.socket, tag: int, body) -> int:
    """Write one ``length | tag | body`` frame; returns bytes on wire."""
    payload = bytes([tag]) + bytes(body)
    tcpros.write_frame(sock, payload)
    return 4 + len(payload)


def read_bridge_frame(sock: socket.socket) -> tuple[int, bytearray]:
    """Read one frame, returning ``(tag, body)``."""
    frame = tcpros.read_frame(sock)
    if not frame:
        raise BridgeProtocolError("empty bridge frame")
    return frame[0], frame[1:]


class LengthPrefixed:
    """The raw-TCP framing: ``u32 LE length | u8 tag | body``."""

    name = "tcp"
    hello_first = True
    sequential = False

    def decoder(self) -> FrameDecoder:
        return FrameDecoder(max_frame=MAX_FRAME)

    def units(self, events: list, reply) -> Iterator[tuple]:
        for _kind, payload, _trace_id, _stamp_ns in events:
            if not payload:
                raise BridgeProtocolError("empty bridge frame")
            yield payload[0], payload[1:], 4 + len(payload)

    def parts(self, tag: int, body) -> list:
        return tcpros.frame_parts([bytes([tag]) + bytes(body)])

    def goodbye(self, code: int, reason: str) -> list:
        return []


def encode_json_op(op: dict) -> bytes:
    return json.dumps(op, separators=(",", ":")).encode("utf-8")


def decode_json_op(body) -> dict:
    try:
        op = json.loads(bytes(body).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise BridgeProtocolError(f"undecodable JSON op: {exc}") from exc
    if not isinstance(op, dict):
        raise BridgeProtocolError("JSON op must be an object")
    return op


def encode_sid_body(sid: int, payload) -> bytes:
    """``u32 sid | payload`` body for RAW and CBIN frames."""
    return _SID.pack(sid) + bytes(payload)


def decode_sid_body(body) -> tuple[int, bytes]:
    if len(body) < 4:
        raise BridgeProtocolError("binary frame shorter than its sid")
    return _SID.unpack_from(body)[0], bytes(body[4:])


# ----------------------------------------------------------------------
# Op validation
# ----------------------------------------------------------------------
#: Required fields per op, as (name, acceptable types).  ``subscribe``'s
#: ``type`` may carry an ``@sfm`` suffix, resolved by the server.
_REQUIRED: dict[str, tuple[tuple[str, tuple], ...]] = {
    "hello": (),
    "advertise": (("topic", (str,)), ("type", (str,))),
    "unadvertise": (("topic", (str,)),),
    "publish": (("topic", (str,)), ("msg", (dict,))),
    "subscribe": (("topic", (str,)), ("type", (str,))),
    "unsubscribe": (),
    "call_service": (("service", (str,)), ("type", (str,))),
    "status": (("msg", (str,)),),
    "stats": (),
    "fragment": (
        ("id", (str, int)),
        ("num", (int,)),
        ("total", (int,)),
        ("data", (str,)),
    ),
}

#: Optional fields with type constraints (checked when present).
_OPTIONAL: dict[str, tuple[tuple[str, tuple], ...]] = {
    "hello": (
        ("codec", (str,)),
        ("max_frame", (int,)),
    ),
    "subscribe": (
        ("fields", (list,)),
        ("throttle_rate", (int,)),
        ("queue_length", (int,)),
        ("codec", (str,)),
    ),
    "unsubscribe": (("topic", (str,)), ("sid", (int,))),
    "call_service": (("args", (dict,)), ("timeout", (int, float))),
    "status": (("level", (str,)),),
}


def validate_op(op: dict) -> Optional[str]:
    """Return an error description for a malformed op, or None if OK."""
    name = op.get("op")
    if not isinstance(name, str):
        return "op object is missing its 'op' field"
    required = _REQUIRED.get(name)
    if required is None:
        return f"unknown op {name!r}"
    for field, types in required:
        if field not in op:
            return f"op {name!r} is missing required field {field!r}"
        if not isinstance(op[field], types):
            return (
                f"op {name!r} field {field!r} has type "
                f"{type(op[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    for field, types in _OPTIONAL.get(name, ()):
        if field in op and not isinstance(op[field], types):
            return (
                f"op {name!r} field {field!r} has type "
                f"{type(op[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    if name == "hello" and op.get("codec") not in (None,) + tuple(CODECS):
        return f"unknown codec {op.get('codec')!r} (one of {CODECS})"
    if name == "subscribe":
        codec = op.get("codec")
        if codec is not None and codec not in CODECS:
            return f"unknown codec {codec!r} (one of {CODECS})"
        fields = op.get("fields")
        if fields is not None and not all(
            isinstance(path, str) and path for path in fields
        ):
            return "op 'subscribe' field 'fields' must be non-empty strings"
        for bound in ("throttle_rate", "queue_length"):
            if op.get(bound) is not None and op[bound] < 0:
                return f"op 'subscribe' field {bound!r} must be >= 0"
    if name == "unsubscribe" and "topic" not in op and "sid" not in op:
        return "op 'unsubscribe' needs a 'topic' or a 'sid'"
    if name == "fragment":
        if op["total"] <= 0 or not 0 <= op["num"] < op["total"]:
            return "op 'fragment' has an inconsistent num/total"
        if op["total"] > MAX_FRAGMENT_TOTAL:
            return (
                f"op 'fragment' total {op['total']} exceeds the "
                f"{MAX_FRAGMENT_TOTAL}-fragment bound"
            )
    return None


def status_op(level: str, msg: str, id=None) -> dict:
    """Build a ``status`` op (the error/diagnostic channel)."""
    op = {"op": "status", "level": level, "msg": msg}
    if id is not None:
        op["id"] = id
    return op


# ----------------------------------------------------------------------
# Fragmentation
# ----------------------------------------------------------------------
def fragment_unit(
    tag: int, body, max_frame: int, frag_id
) -> Iterator[dict]:
    """Split one oversized ``tag | body`` unit into ``fragment`` ops.

    The chunks carry base64 of the *whole inner unit* (tag byte included),
    so reassembly is codec-agnostic: RAW and CBIN deliveries fragment
    exactly like JSON ops.
    """
    unit = bytes([tag]) + bytes(body)
    encoded = base64.b64encode(unit).decode("ascii")
    # Budget for chunk text: the negotiated frame bound minus a generous
    # envelope allowance (op name, id, counters, JSON punctuation).
    chunk = max(MIN_MAX_FRAME // 2, max_frame - 128)
    total = -(-len(encoded) // chunk)
    for num in range(total):
        yield {
            "op": "fragment",
            "id": frag_id,
            "num": num,
            "total": total,
            "data": encoded[num * chunk : (num + 1) * chunk],
        }


def unit_parts(framing, tag: int, body, max_frame: int,
               new_frag_id) -> tuple[list, int]:
    """One unit as ``writev`` parts on ``framing``'s wire, split into
    ``fragment`` ops (named by ``new_frag_id()``) when it exceeds
    ``max_frame``, plus the bytes it takes on the wire.  Both directions
    of every framing send through here."""
    if 5 + len(body) <= max_frame:
        parts = framing.parts(tag, body)
    else:
        parts = [
            part
            for fragment in fragment_unit(tag, body, max_frame, new_frag_id())
            for part in framing.parts(TAG_JSON, encode_json_op(fragment))
        ]
    return parts, sum(map(len, parts))


class Reassembler:
    """Collects ``fragment`` ops and yields the reassembled unit.

    Keeps at most ``max_pending`` in-progress messages; older ones are
    discarded (a slow or broken peer must not grow memory unboundedly).

    ``sequential=True`` additionally rejects *interleaved* fragment
    streams: a fragment starting a new unit while another unit is still
    incomplete raises instead of allocating a second slot list.  The
    WebSocket front door runs in this mode -- ws framing is
    message-ordered per connection, so interleaving there is always a
    hostile or broken peer, and one client must not hold ``max_pending``
    reassembly buffers at once.
    """

    def __init__(self, max_pending: int = 8, sequential: bool = False) -> None:
        self._pending: dict[object, list] = {}
        self._sizes: dict[object, int] = {}
        self._order: list = []
        self._max_pending = max_pending
        self._sequential = sequential

    def _discard(self, frag_id) -> None:
        self._pending.pop(frag_id, None)
        self._sizes.pop(frag_id, None)
        if frag_id in self._order:
            self._order.remove(frag_id)

    def add(self, op: dict) -> Optional[tuple[int, bytearray]]:
        """Feed one fragment op; returns ``(tag, body)`` when complete."""
        error = validate_op(op) if op.get("op") == "fragment" else "not a fragment"
        if error:
            raise BridgeProtocolError(error)
        frag_id, num, total = op["id"], op["num"], op["total"]
        slots = self._pending.get(frag_id)
        if slots is None:
            if self._sequential and self._pending:
                pending = next(iter(self._pending))
                raise BridgeProtocolError(
                    f"fragment {frag_id!r} interleaves with the unfinished "
                    f"fragment stream {pending!r}"
                )
            slots = [None] * total
            self._pending[frag_id] = slots
            self._sizes[frag_id] = 0
            self._order.append(frag_id)
            while len(self._order) > self._max_pending:
                stale = self._order.pop(0)
                self._pending.pop(stale, None)
                self._sizes.pop(stale, None)
        if len(slots) != total:
            raise BridgeProtocolError(
                f"fragment {frag_id!r}: total changed mid-stream"
            )
        previous = slots[num]
        slots[num] = op["data"]
        self._sizes[frag_id] += len(op["data"]) - (
            len(previous) if previous is not None else 0
        )
        if self._sizes[frag_id] > _MAX_ENCODED:
            self._discard(frag_id)
            raise BridgeProtocolError(
                f"fragment {frag_id!r}: reassembled unit would exceed "
                f"the {MAX_FRAME}-byte frame bound"
            )
        if any(part is None for part in slots):
            return None
        self._discard(frag_id)
        try:
            unit = base64.b64decode("".join(slots).encode("ascii"))
        except (ValueError, UnicodeEncodeError) as exc:
            raise BridgeProtocolError(
                f"fragment {frag_id!r}: undecodable base64: {exc}"
            ) from exc
        if not unit:
            raise BridgeProtocolError(f"fragment {frag_id!r}: empty unit")
        return unit[0], bytearray(unit[1:])
