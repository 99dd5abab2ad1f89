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

What this module owns is the wire and the door: the one RFC 6455
parser (:class:`WsDecoder`, both ends), the :class:`WebSocket` and
:class:`ServerSentEvents` framings, the HTTP upgrade and the client.
The sessions behind the door are ordinary
:class:`~repro.bridge.server.Session` objects, run under the
:class:`~repro.bridge.server.Policy` built from ``enable_ws``'s keyword
arguments -- rate limits, queue bounds and strike-based eviction (ws
says goodbye with close 1013) are the session's, on any wire.  Only
**auth** is checked here: shared tokens, accepted as ``Authorization:
Bearer <token>`` or a ``?token=`` query parameter; failures are rejected
at the HTTP layer (401) and counted.
"""

from __future__ import annotations

import base64
import hashlib
import os
import socket
import struct
import threading
from typing import Iterator, Optional
from urllib.parse import parse_qs, urlsplit

from repro.bridge import protocol
from repro.bridge.client import BridgeClient
from repro.bridge.protocol import (  # noqa: F401  (close codes re-exported)
    BridgeProtocolError,
    CLOSE_NORMAL,
    CLOSE_OVERLOADED,
    CLOSE_POLICY,
    CLOSE_PROTOCOL_ERROR,
    CLOSE_TOO_BIG,
    TAG_JSON,
)
from repro.bridge.server import (  # noqa: F401  (TokenBucket re-exported)
    Policy,
    RATE_CLASSES,
    TokenBucket,
)
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

#: Upper bound on one HTTP request head (request line + headers).
MAX_REQUEST_HEAD = 16 * 1024

class WsProtocolError(BridgeProtocolError):
    """A broken ws frame or handshake; carries the close code (and, as
    the reason, its own message) to say goodbye with."""

    def __init__(self, message: str, code: int = CLOSE_PROTOCOL_ERROR) -> None:
        super().__init__(message)
        self.code = code
        self.reason = message


class WsClosed(ConnectionError):
    """The peer sent CLOSE; its code is echoed back, without a reason."""

    reason = ""

    def __init__(self, code: int) -> None:
        super().__init__(f"websocket closed by peer ({code})")
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


class WsDecoder:
    """Incremental RFC 6455 parser, for both ends of the front door.

    A :class:`~repro.ros.reactor.StreamLink` (server) or the client's
    reader thread feeds received chunks; ``feed`` returns the completed
    events:

    - ``("message", opcode, payload_bytearray, wire)`` -- one
      reassembled data message (continuation frames merged, masks
      removed) and the bytes its frames took on the wire;
    - ``("ping", payload_bytes)`` -- the caller must answer with a PONG;
    - ``("close", code)`` -- the caller echoes a CLOSE and tears the
      connection down; no further events are produced.

    PONGs are swallowed.  ``require_mask`` is set when reading client
    frames (RFC 6455 section 5.1: unmasked client data frames MUST fail
    the connection).  Protocol violations raise :class:`WsProtocolError`
    (carrying the close code to send).
    """

    __slots__ = ("_buffer", "_require_mask", "_max_payload", "_message",
                 "_opcode", "_wire", "_dead")

    def __init__(self, require_mask: bool = True,
                 max_payload: int = protocol.MAX_FRAME) -> None:
        self._buffer = bytearray()
        self._require_mask = require_mask
        self._max_payload = max_payload
        self._message: Optional[bytearray] = None
        self._opcode = OP_CONT
        self._wire = 0
        self._dead = False

    def _parse_frame(self) -> Optional[tuple[int, bool, bytes, int]]:
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
        return opcode, fin, payload, pos + length

    def feed(self, data) -> list:
        if self._dead:
            return []
        self._buffer += data
        events: list = []
        while True:
            frame = self._parse_frame()
            if frame is None:
                return events
            opcode, fin, payload, wire = frame
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
                events.append(("close", code))
                return events
            if opcode == OP_CONT:
                if self._message is None:
                    raise WsProtocolError("continuation without a start frame")
                self._message += payload
                self._wire += wire
            else:
                if self._message is not None:
                    raise WsProtocolError(
                        "new data frame interleaved into a fragmented message"
                    )
                self._opcode = opcode
                self._message = bytearray(payload)
                self._wire = wire
            if len(self._message) > self._max_payload:
                raise WsProtocolError(
                    "fragmented ws message exceeds the payload bound",
                    CLOSE_TOO_BIG,
                )
            if fin:
                events.append(
                    ("message", self._opcode, self._message, self._wire)
                )
                self._message = None


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
# Framings (the contract is in repro.bridge.protocol)
# ----------------------------------------------------------------------
class WebSocket:
    """RFC 6455 frames: JSON ops ride text frames, RAW/CBIN units ride
    binary frames (``u8 tag | body``).  ``mask`` is the client end:
    it masks what it sends and reads unmasked frames."""

    name = "ws"
    hello_first = False
    # ws framing is message-ordered per connection: interleaved bridge
    # fragment streams can only come from a hostile or broken peer.
    sequential = True

    def __init__(self, mask: bool) -> None:
        self.mask = mask

    def decoder(self) -> WsDecoder:
        return WsDecoder(require_mask=not self.mask)

    def units(self, events: list, reply) -> Iterator[tuple]:
        for event in events:
            if event[0] == "ping":
                reply([encode_frame(OP_PONG, event[1], mask=self.mask)])
                continue
            if event[0] == "close":
                raise WsClosed(event[1])
            _kind, opcode, payload, wire = event
            if opcode == OP_TEXT:
                yield TAG_JSON, payload, wire
            elif opcode != OP_BINARY:
                raise WsProtocolError(f"unsupported ws opcode {opcode:#x}")
            elif not payload:
                raise BridgeProtocolError("empty binary ws message")
            else:
                yield payload[0], payload[1:], wire

    def parts(self, tag: int, body) -> list:
        if tag == TAG_JSON:
            return [encode_frame(OP_TEXT, bytes(body), mask=self.mask)]
        return [encode_frame(OP_BINARY, bytes([tag]) + bytes(body),
                             mask=self.mask)]

    def goodbye(self, code: int, reason: str) -> list:
        # A CLOSE body: status code + utf-8 reason, 125 bytes at most.
        body = struct.pack(">H", code) + reason.encode("utf-8")[:123]
        return [encode_frame(OP_CLOSE, body, mask=self.mask)]


class ServerSentEvents:
    """The subscribe-only fallback: JSON units stream out as ``data:``
    events and nothing is read -- whatever such a client sends after its
    GET is ignored, the stream link only watches for EOF so a vanished
    browser tears the session down."""

    name = "sse"
    hello_first = False
    sequential = True

    def decoder(self) -> reactor_mod.RawDecoder:
        return reactor_mod.RawDecoder()

    def units(self, events: list, reply) -> tuple:
        return ()

    def parts(self, tag: int, body) -> list:
        if tag != TAG_JSON:
            return []  # SSE subscriptions are forced to the json codec
        return [b"data: " + bytes(body) + b"\r\n\r\n"]

    def goodbye(self, code: int, reason: str) -> list:
        return []


# ----------------------------------------------------------------------
# Frontend
# ----------------------------------------------------------------------
class WsFrontend:
    """The ws/SSE listener bolted onto one :class:`BridgeServer`.

    Constructed via :meth:`BridgeServer.enable_ws`; the keyword
    arguments are the :class:`~repro.bridge.server.Policy` every ws/SSE
    session runs under (``auth_tokens`` is checked here, against the
    HTTP head, before there is a session).
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0,
                 auth_tokens=None, rate_limits: Optional[dict] = None,
                 queue_length: int = 64, high_watermark: int = 1024,
                 evict_strikes: int = 256) -> None:
        self.server = server
        self.policy = Policy(
            frozenset(auth_tokens or ()), dict(rate_limits or {}),
            queue_length, high_watermark, evict_strikes,
        )
        self.handshakes = 0
        self.auth_failures = 0
        self.bad_requests = 0
        self._lock = threading.Lock()
        self._acceptor = reactor_mod.AcceptorLink.listen(
            host, port, self._on_accept, backlog=512,
            label="bridge-ws-accept",
        )
        self.host, self.port = self._acceptor.host, self._acceptor.port

    @property
    def url(self) -> str:
        return f"ws://{self.host}:{self.port}/ws"

    def stats(self) -> dict:
        policy = self.policy
        framings = (WebSocket.name, ServerSentEvents.name)
        with self._lock:
            stats = {
                "host": self.host,
                "port": self.port,
                "handshakes": self.handshakes,
                "auth_failures": self.auth_failures,
                "bad_requests": self.bad_requests,
            }
        # What the policy did to this door's sessions is counted once,
        # on the server, per framing.
        stats["evictions"] = self.server.tally("evicted", *framings)
        stats["rate_limited"] = {
            op_class: self.server.tally(op_class, *framings)
            for op_class in RATE_CLASSES
        }
        stats["policy"] = {
            "queue_length": policy.queue_length,
            "high_watermark": policy.high_watermark,
            "evict_strikes": policy.evict_strikes,
            "auth": bool(policy.auth_tokens),
        }
        return stats

    # ------------------------------------------------------------------
    def _on_accept(self, sock, addr) -> None:
        """AcceptorLink callback (loop thread, must not block): the HTTP
        request read + upgrade runs on a transient spawn -- the one
        thread a pending front-door connection costs, gone once the
        session exists."""
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
        accepted = self.policy.auth_tokens
        if not accepted:
            return True
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer ") and \
                auth[7:].strip() in accepted:
            return True
        return any(token in accepted for token in query.get("token", ()))

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
        self.server.accept_session(
            sock, f"ws:{peer}", WebSocket(mask=False), self.policy, leftover
        )

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
        session = self.server.accept_session(
            sock, f"sse:{peer}", ServerSentEvents(), self.policy
        )
        if session is None:
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

    Same API, same op protocol -- only the wire differs: it performs the
    HTTP upgrade and then speaks the masking end of :class:`WebSocket`.
    """

    def __init__(self, host: str, port: int, token: Optional[str] = None,
                 path: str = "/ws", **kwargs) -> None:
        self._token = token
        self._path = path
        super().__init__(host, port, **kwargs)

    def _connect(self, host: str, port: int, timeout: float) -> tuple:
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
        return sock, WebSocket(mask=True), leftover


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
