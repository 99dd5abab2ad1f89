"""The WebSocket front door: RFC 6455 + SSE in front of the bridge.

Browsers and fleet dashboards do not speak the bridge's length-prefixed
TCP framing -- they speak WebSocket.  This module adds a second listener
to :class:`~repro.bridge.server.BridgeServer` that carries the *same*
op protocol (:mod:`repro.bridge.protocol`) over RFC 6455 frames:

- **text frames** carry one JSON op each (``subscribe``, ``publish``,
  ``status``, ...);
- **binary frames** carry one ``u8 tag | body`` unit, i.e. the inner
  part of a bridge frame without the length prefix (ws frames are
  already length-delimited), so RAW and CBIN deliveries keep their
  serialization-free payloads on the last hop too;
- ``GET /sse`` is a fallback for subscribe-only clients behind
  middleboxes that cannot upgrade: deliveries stream out as
  ``text/event-stream`` ``data:`` lines (JSON codec only).

The handshake, frame codec and HTTP parsing are stdlib-only (hashlib,
base64, struct) -- no external websocket dependency.

Production-traffic policy, all enforced per connection:

- **auth**: optional shared tokens, accepted as ``Authorization:
  Bearer <token>`` or a ``?token=`` query parameter; failures are
  rejected at the HTTP layer (401) and counted;
- **rate limits**: token buckets per op class (``publish`` /
  ``subscribe`` / ``service``); over-limit ops are refused with a
  warning status, never by dropping the connection;
- **backpressure**: ws/SSE sessions run with a default per-subscription
  queue bound, a session-wide delivery watermark that sheds oldest
  deliveries, and strike-based *eviction* (close 1013) of clients that
  stay pinned at the watermark -- one stalled browser cannot pin queue
  memory while healthy clients starve.
"""

from __future__ import annotations

import base64
import hashlib
import os
import socket
import struct
import threading
import time
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.bridge import protocol
from repro.bridge.client import BridgeClient
from repro.bridge.protocol import BridgeProtocolError, TAG_JSON
from repro.bridge.server import _ClientSession
from repro.ros import reactor as reactor_mod
from repro.ros.transport import tcpros

#: RFC 6455 handshake GUID.
_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Opcodes.
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPS = (OP_CLOSE, OP_PING, OP_PONG)

#: Close codes used by the front door.
CLOSE_NORMAL = 1000
CLOSE_PROTOCOL_ERROR = 1002
CLOSE_POLICY = 1008
CLOSE_TOO_BIG = 1009
CLOSE_OVERLOADED = 1013

#: Upper bound on one HTTP request head (request line + headers).
MAX_REQUEST_HEAD = 16 * 1024

#: Op name -> rate-limit class.  Ops not listed (hello, status, stats,
#: fragment envelopes) are control traffic and never limited.
OP_CLASSES = {
    "publish": "publish",
    "subscribe": "subscribe",
    "unsubscribe": "subscribe",
    "advertise": "subscribe",
    "unadvertise": "subscribe",
    "call_service": "service",
}

RATE_CLASSES = ("publish", "subscribe", "service")


class WsProtocolError(BridgeProtocolError):
    """A broken ws frame or handshake; carries the close code to send."""

    def __init__(self, message: str, code: int = CLOSE_PROTOCOL_ERROR) -> None:
        super().__init__(message)
        self.code = code


def accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client key (RFC 6455)."""
    digest = hashlib.sha1((key + _GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(opcode: int, payload: bytes, fin: bool = True,
                 mask: bool = False) -> bytes:
    """Encode one ws frame.  Client-to-server frames set ``mask``."""
    head = bytearray([(0x80 if fin else 0) | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if not mask:
        return bytes(head) + payload
    key = os.urandom(4)
    head += key
    return bytes(head) + mask_payload(payload, key)


def mask_payload(payload: bytes, key: bytes) -> bytes:
    """XOR-mask (or unmask -- the operation is its own inverse).

    Runs as one big-integer XOR instead of a per-byte Python loop: at
    camera-frame sizes (~1 MB) the difference is ~100 ms vs ~1 ms per
    frame, which is the whole latency budget of the front door.
    """
    if not payload:
        return b""
    length = len(payload)
    stream = (key * (-(-length // 4)))[:length]
    return (
        int.from_bytes(payload, "little")
        ^ int.from_bytes(stream, "little")
    ).to_bytes(length, "little")


def _close_payload(code: int, reason: str = "") -> bytes:
    """A CLOSE frame's body: status code + (truncated) utf-8 reason."""
    return struct.pack(">H", code) + reason.encode("utf-8")[:123]


class WsConnection:
    """One blocking ws endpoint (the client side of the front door):
    buffered frame reads + serialized writes.

    ``require_mask`` is True when reading client frames (RFC 6455
    section 5.1: unmasked client frames MUST fail the connection) and
    clients send with ``mask_writes=True``.  Control frames are handled
    inline -- PING answered, CLOSE echoed -- so callers only ever see
    data messages.
    """

    def __init__(self, sock: socket.socket, leftover: bytes = b"",
                 require_mask: bool = True, mask_writes: bool = False,
                 max_payload: int = protocol.MAX_FRAME) -> None:
        self.sock = sock
        self._buffer = bytearray(leftover)
        self._require_mask = require_mask
        self._mask_writes = mask_writes
        self._max_payload = max_payload
        self._send_lock = threading.Lock()
        self.closed_by_peer: Optional[int] = None

    # -- reading -------------------------------------------------------
    def _read_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("websocket peer closed mid-frame")
            self._buffer += chunk
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data

    def _read_frame(self) -> tuple[int, bool, bytes]:
        first, second = self._read_exact(2)
        if first & 0x70:
            raise WsProtocolError("reserved ws bits set (no extensions)")
        opcode = first & 0x0F
        fin = bool(first & 0x80)
        masked = bool(second & 0x80)
        length = second & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", self._read_exact(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", self._read_exact(8))
        if opcode in _CONTROL_OPS and (length > 125 or not fin):
            raise WsProtocolError("oversized or fragmented control frame")
        if length > self._max_payload:
            raise WsProtocolError(
                f"{length}-byte ws frame exceeds the "
                f"{self._max_payload}-byte bound", CLOSE_TOO_BIG,
            )
        if self._require_mask and not masked and opcode not in _CONTROL_OPS:
            raise WsProtocolError("client data frames must be masked")
        key = self._read_exact(4) if masked else None
        payload = self._read_exact(length)
        if key is not None:
            payload = mask_payload(payload, key)
        return opcode, fin, payload

    def recv_message(self) -> tuple[int, bytearray, int]:
        """Read one complete data message: ``(opcode, payload, wire)``.

        Reassembles continuation frames, answers PINGs, echoes CLOSE
        (then raises ConnectionError).  ``wire`` approximates bytes on
        the wire (headers + payloads of the contributing frames).
        """
        message: Optional[bytearray] = None
        opcode = OP_CONT
        wire = 0
        while True:
            frame_op, fin, payload = self._read_frame()
            wire += 2 + len(payload) + (4 if self._require_mask else 0)
            if frame_op == OP_PING:
                self.send_frame(OP_PONG, payload)
                continue
            if frame_op == OP_PONG:
                continue
            if frame_op == OP_CLOSE:
                self.closed_by_peer = (
                    struct.unpack(">H", payload[:2])[0]
                    if len(payload) >= 2 else CLOSE_NORMAL
                )
                try:
                    self.send_frame(OP_CLOSE, payload[:2])
                except OSError:
                    pass
                raise ConnectionError(
                    f"websocket closed by peer ({self.closed_by_peer})"
                )
            if frame_op == OP_CONT:
                if message is None:
                    raise WsProtocolError("continuation without a start frame")
                message += payload
            else:
                if message is not None:
                    raise WsProtocolError(
                        "new data frame interleaved into a fragmented message"
                    )
                opcode = frame_op
                message = bytearray(payload)
            if len(message) > self._max_payload:
                raise WsProtocolError(
                    "fragmented ws message exceeds the payload bound",
                    CLOSE_TOO_BIG,
                )
            if fin:
                return opcode, message, wire

    # -- writing -------------------------------------------------------
    def send_frame(self, opcode: int, payload: bytes) -> int:
        frame = encode_frame(opcode, bytes(payload), mask=self._mask_writes)
        with self._send_lock:
            self.sock.sendall(frame)
        return len(frame)


class WsDecoder:
    """Incremental RFC 6455 parser (the server side of the front door).

    The :class:`~repro.ros.reactor.StreamLink` feeds received chunks;
    ``feed`` returns the completed events:

    - ``("message", opcode, payload_bytearray)`` -- one reassembled data
      message (continuation frames merged, masks removed);
    - ``("ping", payload_bytes)`` -- the caller must answer with a PONG;
    - ``("close", code, echo_payload)`` -- the caller echoes a CLOSE and
      tears the session down; no further events are produced.

    PONGs are swallowed.  Protocol violations raise
    :class:`WsProtocolError` (carrying the close code to send), which
    the stream link routes to its error handler.
    """

    __slots__ = ("_buffer", "_require_mask", "_max_payload", "_message",
                 "_opcode", "_dead")

    def __init__(self, require_mask: bool = True,
                 max_payload: int = protocol.MAX_FRAME) -> None:
        self._buffer = bytearray()
        self._require_mask = require_mask
        self._max_payload = max_payload
        self._message: Optional[bytearray] = None
        self._opcode = OP_CONT
        self._dead = False

    def _parse_frame(self) -> Optional[tuple[int, bool, bytes]]:
        """One frame off the buffer, or None until enough bytes arrive."""
        buf = self._buffer
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        if first & 0x70:
            raise WsProtocolError("reserved ws bits set (no extensions)")
        opcode = first & 0x0F
        fin = bool(first & 0x80)
        masked = bool(second & 0x80)
        length = second & 0x7F
        pos = 2
        if length == 126:
            if len(buf) < 4:
                return None
            (length,) = struct.unpack_from(">H", buf, 2)
            pos = 4
        elif length == 127:
            if len(buf) < 10:
                return None
            (length,) = struct.unpack_from(">Q", buf, 2)
            pos = 10
        if opcode in _CONTROL_OPS and (length > 125 or not fin):
            raise WsProtocolError("oversized or fragmented control frame")
        if length > self._max_payload:
            raise WsProtocolError(
                f"{length}-byte ws frame exceeds the "
                f"{self._max_payload}-byte bound", CLOSE_TOO_BIG,
            )
        if self._require_mask and not masked and opcode not in _CONTROL_OPS:
            raise WsProtocolError("client data frames must be masked")
        key = None
        if masked:
            if len(buf) < pos + 4:
                return None
            key = bytes(buf[pos:pos + 4])
            pos += 4
        if len(buf) < pos + length:
            return None
        payload = bytes(buf[pos:pos + length])
        del buf[:pos + length]
        if key is not None:
            payload = mask_payload(payload, key)
        return opcode, fin, payload

    def feed(self, data) -> list:
        if self._dead:
            return []
        self._buffer += data
        events: list = []
        while True:
            frame = self._parse_frame()
            if frame is None:
                return events
            opcode, fin, payload = frame
            if opcode == OP_PING:
                events.append(("ping", payload))
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                code = (
                    struct.unpack(">H", payload[:2])[0]
                    if len(payload) >= 2 else CLOSE_NORMAL
                )
                self._dead = True
                events.append(("close", code, payload[:2]))
                return events
            if opcode == OP_CONT:
                if self._message is None:
                    raise WsProtocolError("continuation without a start frame")
                self._message += payload
            else:
                if self._message is not None:
                    raise WsProtocolError(
                        "new data frame interleaved into a fragmented message"
                    )
                self._opcode = opcode
                self._message = bytearray(payload)
            if len(self._message) > self._max_payload:
                raise WsProtocolError(
                    "fragmented ws message exceeds the payload bound",
                    CLOSE_TOO_BIG,
                )
            if fin:
                events.append(("message", self._opcode, self._message))
                self._message = None


class TokenBucket:
    """A token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_lock")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def allow(self, cost: float = 1.0) -> bool:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= cost:
                self._tokens -= cost
                return True
            return False


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _read_request_head(sock: socket.socket) -> bytes:
    """Read up to the blank line; the cap rejects header-bomb clients."""
    head = bytearray()
    while b"\r\n\r\n" not in head:
        if len(head) > MAX_REQUEST_HEAD:
            raise WsProtocolError(
                f"request head exceeds {MAX_REQUEST_HEAD} bytes",
                CLOSE_TOO_BIG,
            )
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("client closed during HTTP request")
        head += chunk
    return bytes(head)


def _parse_request(head: bytes) -> tuple[str, str, dict, bytes]:
    """-> (method, target, lowercase-header dict, leftover body bytes)."""
    try:
        text, _, leftover = head.partition(b"\r\n\r\n")
        lines = text.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise WsProtocolError(f"malformed HTTP request: {exc}") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return method, target, headers, leftover


def _http_response(sock: socket.socket, status: str,
                   body: str = "", extra: str = "") -> None:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: text/plain\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n{extra}\r\n"
    )
    try:
        sock.sendall(head.encode("latin-1") + payload)
    except OSError:
        pass


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class _WsSession(_ClientSession):
    """A bridge session whose wire is RFC 6455 frames."""

    transport = "ws"
    # ws framing is message-ordered per connection: interleaved bridge
    # fragment streams can only come from a hostile or broken peer.
    reassembler_sequential = True

    def __init__(self, server, sock, peer, frontend,
                 leftover: bytes = b"") -> None:
        self.frontend = frontend
        self._leftover = leftover
        self._buckets = frontend.make_buckets()
        # Policy knobs become *instance* attributes before the base
        # constructor spawns the session start.
        self.default_queue_length = frontend.queue_length
        self.high_watermark = frontend.high_watermark
        self.evict_strikes = frontend.evict_strikes
        super().__init__(server, sock, peer)

    def _handshake(self) -> None:
        # The HTTP upgrade already happened on the frontend's accept
        # path; codec/max_frame arrive in-band via the hello op.
        pass

    def _make_decoder(self):
        return WsDecoder(require_mask=True, max_payload=protocol.MAX_FRAME)

    def _initial_bytes(self) -> bytes:
        data, self._leftover = self._leftover, b""
        return data

    def _handle_units(self, events: list) -> None:
        for event in events:
            if self.closed:
                return
            kind = event[0]
            if kind == "message":
                _kind, opcode, payload = event
                if opcode == OP_TEXT:
                    self._dispatch_unit(TAG_JSON, payload)
                elif opcode == OP_BINARY:
                    if not payload:
                        raise BridgeProtocolError("empty binary ws message")
                    self._dispatch_unit(payload[0], payload[1:])
                else:
                    raise WsProtocolError(
                        f"unsupported ws opcode {opcode:#x}"
                    )
            elif kind == "ping":
                self._rlink.write([encode_frame(OP_PONG, event[1])])
            elif kind == "close":
                self._rlink.write([encode_frame(OP_CLOSE, bytes(event[2]))])
                raise ConnectionError(
                    f"websocket closed by peer ({event[1]})"
                )

    def _session_error(self, exc: Exception) -> None:
        if isinstance(exc, WsProtocolError):
            # Tell the peer *why* before tearing down (best-effort: the
            # socket is non-blocking under the reactor, so this cannot
            # wedge the worker).
            try:
                self.sock.send(encode_frame(
                    OP_CLOSE, _close_payload(exc.code, str(exc)[:100])
                ))
            except (OSError, ValueError):
                pass
        self.server._drop_session(self)

    def _unit_parts(self, tag: int, body) -> tuple[list, int]:
        if 5 + len(body) > self.max_frame:
            parts: list = []
            wire = 0
            frag_id = f"f{next(self._frag_ids)}"
            for fragment in protocol.fragment_unit(
                tag, body, self.max_frame, frag_id
            ):
                frame = encode_frame(
                    OP_TEXT, protocol.encode_json_op(fragment)
                )
                parts.append(frame)
                wire += len(frame)
            return parts, wire
        if tag == TAG_JSON:
            frame = encode_frame(OP_TEXT, bytes(body))
        else:
            frame = encode_frame(OP_BINARY, bytes([tag]) + bytes(body))
        return [frame], len(frame)

    def _admit(self, kind: str) -> bool:
        op_class = OP_CLASSES.get(kind)
        if op_class is None:
            return True
        bucket = self._buckets.get(op_class)
        if bucket is None or bucket.allow():
            return True
        self.frontend.count_rate_limited(op_class)
        return False

    def _notify_eviction(self, reason: str) -> None:
        self.frontend.evictions += 1
        if self._rlink is not None:
            # Queue the goodbye *behind* any partially-written frame so
            # the stream stays well-formed; the write buffer is memory,
            # never a blocking send, which is all eviction requires.
            self._rlink.write([encode_frame(OP_CLOSE, _close_payload(
                CLOSE_OVERLOADED, "evicted: slow consumer"
            ))])


class _SseSession(_ClientSession):
    """Subscribe-only fallback: deliveries stream as server-sent events.

    The client never sends after the GET; the stream link just watches
    for EOF so a vanished browser tears the session down."""

    transport = "sse"
    reassembler_sequential = True

    def __init__(self, server, sock, peer, frontend) -> None:
        self.frontend = frontend
        self.default_queue_length = frontend.queue_length
        self.high_watermark = frontend.high_watermark
        self.evict_strikes = frontend.evict_strikes
        super().__init__(server, sock, peer)

    def _handshake(self) -> None:
        pass

    def _make_decoder(self):
        # Inbound bytes are ignored wholesale; only EOF matters (the
        # stream link reports it as a ConnectionError -> session drop).
        return reactor_mod.RawDecoder()

    def _handle_units(self, events: list) -> None:
        pass  # anything a "subscribe-only" client sends is ignored

    def _unit_parts(self, tag: int, body) -> tuple[list, int]:
        if tag != TAG_JSON:
            return [], 0  # SSE subscriptions are forced to the json codec
        chunk = b"data: " + bytes(body) + b"\r\n\r\n"
        return [chunk], len(chunk)

    def _notify_eviction(self, reason: str) -> None:
        self.frontend.evictions += 1


# ----------------------------------------------------------------------
# Frontend
# ----------------------------------------------------------------------
class WsFrontend:
    """The ws/SSE listener bolted onto one :class:`BridgeServer`.

    Constructed via :meth:`BridgeServer.enable_ws`.  Policy:

    - ``auth_tokens``: iterable of accepted tokens; empty/None = open;
    - ``rate_limits``: ``{op_class: (rate_per_s, burst)}`` token-bucket
      configuration (classes: publish, subscribe, service); missing
      classes are unlimited;
    - ``queue_length`` / ``high_watermark`` / ``evict_strikes``: the
      slow-client policy applied to every ws/SSE session.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0,
                 auth_tokens=None, rate_limits: Optional[dict] = None,
                 queue_length: int = 64, high_watermark: int = 1024,
                 evict_strikes: int = 256) -> None:
        self.server = server
        self.auth_tokens = frozenset(auth_tokens or ())
        self.rate_limits = dict(rate_limits or {})
        for op_class in self.rate_limits:
            if op_class not in RATE_CLASSES:
                raise ValueError(
                    f"unknown rate-limit class {op_class!r} "
                    f"(one of {RATE_CLASSES})"
                )
        self.queue_length = queue_length
        self.high_watermark = high_watermark
        self.evict_strikes = evict_strikes

        self.handshakes = 0
        self.auth_failures = 0
        self.bad_requests = 0
        self.evictions = 0
        self.rate_limited = {op_class: 0 for op_class in RATE_CLASSES}
        self._lock = threading.Lock()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(512)
        self.host, self.port = self._listener.getsockname()
        self._acceptor = reactor_mod.AcceptorLink(
            self._listener, self._on_accept,
            label=f"bridge-ws-accept:{self.port}",
        )
        self._acceptor.start()

    @property
    def url(self) -> str:
        return f"ws://{self.host}:{self.port}/ws"

    def make_buckets(self) -> dict:
        return {
            op_class: TokenBucket(rate, burst)
            for op_class, (rate, burst) in self.rate_limits.items()
        }

    def count_rate_limited(self, op_class: str) -> None:
        with self._lock:
            self.rate_limited[op_class] = \
                self.rate_limited.get(op_class, 0) + 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "host": self.host,
                "port": self.port,
                "handshakes": self.handshakes,
                "auth_failures": self.auth_failures,
                "bad_requests": self.bad_requests,
                "evictions": self.evictions,
                "rate_limited": dict(self.rate_limited),
                "policy": {
                    "queue_length": self.queue_length,
                    "high_watermark": self.high_watermark,
                    "evict_strikes": self.evict_strikes,
                    "auth": bool(self.auth_tokens),
                },
            }

    # ------------------------------------------------------------------
    def _on_accept(self, sock, addr) -> None:
        """AcceptorLink callback (loop thread, must not block): the HTTP
        request read + upgrade runs on a transient spawn, exactly like
        the TCP bridge handshake."""
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Same chaos seam as the TCP listener: FaultPlan rules on
        # seam="bridge" (sever, corrupt, delay) reach ws clients too.
        wrapped = tcpros.wrap_socket(sock, "bridge", role="server")
        reactor_mod.global_reactor().spawn_blocking(
            lambda: self._handle_conn(wrapped, addr),
            name=f"bridge-ws-hs:{addr[0]}:{addr[1]}",
        )

    def _handle_conn(self, sock, addr) -> None:
        peer = f"{addr[0]}:{addr[1]}"
        try:
            sock.settimeout(10.0)
            head = _read_request_head(sock)
            method, target, headers, leftover = _parse_request(head)
        except WsProtocolError as exc:
            with self._lock:
                self.bad_requests += 1
            status = "431 Request Header Fields Too Large" \
                if exc.code == CLOSE_TOO_BIG else "400 Bad Request"
            _http_response(sock, status, f"{exc}\n")
            sock.close()
            return
        except (ConnectionError, OSError):
            try:
                sock.close()
            except OSError:
                pass
            return

        parts = urlsplit(target)
        query = parse_qs(parts.query)
        if not self._authorized(headers, query):
            with self._lock:
                self.auth_failures += 1
            _http_response(sock, "401 Unauthorized",
                           "missing or invalid auth token\n")
            sock.close()
            return

        try:
            if headers.get("upgrade", "").lower() == "websocket":
                self._accept_ws(sock, peer, headers, leftover)
            elif parts.path == "/sse":
                self._accept_sse(sock, peer, method, query)
            else:
                with self._lock:
                    self.bad_requests += 1
                _http_response(
                    sock, "404 Not Found",
                    "endpoints: websocket upgrade on /ws, GET /sse\n",
                )
                sock.close()
        except (WsProtocolError, BridgeProtocolError) as exc:
            with self._lock:
                self.bad_requests += 1
            _http_response(sock, "400 Bad Request", f"{exc}\n")
            sock.close()
        except (ConnectionError, OSError):
            try:
                sock.close()
            except OSError:
                pass

    def _authorized(self, headers: dict, query: dict) -> bool:
        if not self.auth_tokens:
            return True
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer ") and \
                auth[7:].strip() in self.auth_tokens:
            return True
        for token in query.get("token", ()):
            if token in self.auth_tokens:
                return True
        return False

    def _accept_ws(self, sock, peer: str, headers: dict,
                   leftover: bytes) -> None:
        key = headers.get("sec-websocket-key", "")
        try:
            raw = base64.b64decode(key.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            raw = b""
        if len(raw) != 16:
            raise WsProtocolError(
                "Sec-WebSocket-Key must be 16 base64 bytes"
            )
        if headers.get("sec-websocket-version") != "13":
            raise WsProtocolError("only websocket version 13 is supported")
        response = (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
            "\r\n"
        )
        sock.sendall(response.encode("latin-1"))
        sock.settimeout(None)
        with self._lock:
            self.handshakes += 1
        session = _WsSession(self.server, sock, f"ws:{peer}", self,
                             leftover=leftover)
        self.server.register_session(session)

    def _accept_sse(self, sock, peer: str, method: str, query: dict) -> None:
        if method != "GET":
            raise WsProtocolError("/sse only answers GET")
        topics = query.get("topic", ())
        types = query.get("type", ())
        if not topics or len(topics) != len(types):
            raise WsProtocolError(
                "/sse needs paired topic= and type= query parameters"
            )
        if query.get("codec", ["json"])[0] != "json":
            raise WsProtocolError("/sse streams the json codec only")
        response = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        sock.sendall(response.encode("latin-1"))
        sock.settimeout(None)
        with self._lock:
            self.handshakes += 1
        session = _SseSession(self.server, sock, f"sse:{peer}", self)
        if not self.server.register_session(session):
            return
        fields = [f for f in query.get("fields", [""])[0].split(",") if f]
        for topic, spelling in zip(topics, types):
            op = {"op": "subscribe", "topic": topic, "type": spelling,
                  "codec": "json"}
            if fields:
                op["fields"] = fields
            for bound in ("throttle_rate", "queue_length"):
                if bound in query:
                    op[bound] = int(query[bound][0])
            self.server.handle_op(session, op)

    def close(self) -> None:
        self._acceptor.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class WsBridgeClient(BridgeClient):
    """A :class:`BridgeClient` that dials the WebSocket front door.

    Same API, same op protocol -- only the wire differs: JSON ops ride
    text frames, RAW/CBIN units ride binary frames (``u8 tag | body``).
    """

    def __init__(self, host: str, port: int, token: Optional[str] = None,
                 path: str = "/ws", **kwargs) -> None:
        self._token = token
        self._path = path
        self._conn: Optional[WsConnection] = None
        super().__init__(host, port, **kwargs)

    def _connect(self, host: str, port: int, timeout: float) -> socket.socket:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        auth = f"Authorization: Bearer {self._token}\r\n" if self._token \
            else ""
        request = (
            f"GET {self._path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            f"{auth}\r\n"
        )
        sock.sendall(request.encode("latin-1"))
        head = _read_request_head(sock)
        try:
            status_line, _, rest = head.partition(b"\r\n")
            status = status_line.decode("latin-1").split(" ", 2)[1]
        except (IndexError, UnicodeDecodeError) as exc:
            raise BridgeProtocolError(
                f"malformed ws handshake response: {exc}"
            ) from exc
        if status != "101":
            detail = head.partition(b"\r\n\r\n")[2].decode(
                "utf-8", "replace").strip()
            raise BridgeProtocolError(
                f"websocket upgrade refused: HTTP {status}"
                + (f" ({detail})" if detail else "")
            )
        _method, _target, headers, leftover = _parse_request(
            b"RESPONSE " + head  # reuse the header parser on the response
        )
        if headers.get("sec-websocket-accept") != accept_key(key):
            raise BridgeProtocolError("bad Sec-WebSocket-Accept in handshake")
        self._conn = WsConnection(
            sock, leftover, require_mask=False, mask_writes=True
        )
        return sock

    def _send_unit(self, tag: int, body: bytes) -> None:
        if 5 + len(body) > self.max_frame:
            frag_id = self._next_id()
            for fragment in protocol.fragment_unit(
                tag, body, self.max_frame, frag_id
            ):
                self._conn.send_frame(
                    OP_TEXT, protocol.encode_json_op(fragment)
                )
            return
        if tag == TAG_JSON:
            self._conn.send_frame(OP_TEXT, bytes(body))
        else:
            self._conn.send_frame(OP_BINARY, bytes([tag]) + bytes(body))

    def _read_unit(self):
        opcode, payload, wire = self._conn.recv_message()
        if opcode == OP_TEXT:
            return TAG_JSON, payload, wire
        if opcode == OP_BINARY:
            if not payload:
                raise BridgeProtocolError("empty binary ws message")
            return payload[0], payload[1:], wire
        raise BridgeProtocolError(f"unsupported ws opcode {opcode:#x}")


def sse_url(host: str, port: int, topic: str, spelling: str,
            fields=None, token: Optional[str] = None, **bounds) -> str:
    """Compose a ``GET /sse`` URL for one subscription (convenience for
    dashboards and the docs)."""
    from urllib.parse import urlencode

    params = [("topic", topic), ("type", spelling)]
    if fields:
        params.append(("fields", ",".join(fields)))
    if token:
        params.append(("token", token))
    params += [(key, str(value)) for key, value in bounds.items()]
    return f"http://{host}:{port}/sse?{urlencode(params)}"
