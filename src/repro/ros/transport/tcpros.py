"""TCPROS-style transport: handshake headers and length-framed messages.

Wire protocol (as in ROS1's TCPROS):

- A *connection header* is a 32-bit little-endian total length followed by
  fields, each a 32-bit little-endian length plus ``key=value`` bytes.
  The subscriber sends its header first (callerid, topic, type, md5sum,
  format); the publisher validates and answers with its own header, or
  with an ``error`` field.
- After the handshake, each message is a 32-bit little-endian length
  followed by the payload bytes.

``write_frame`` accepts any bytes-like payload including memoryviews, so
the SFM path sends the message buffer without an intermediate copy.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
from typing import Callable, Optional

from repro.ros.exceptions import ConnectionHandshakeError
from repro.ros.reactor import _MAX_IOV, AcceptorLink

_LEN = struct.Struct("<I")

#: Upper bound on accepted frame/header sizes; guards against garbage
#: lengths from a confused peer (64 MiB covers a 6 MB image many times).
MAX_FRAME = 64 * 1024 * 1024

#: In-band keepalive marker: a length word no real frame can use (far
#: beyond MAX_FRAME).  A publisher whose send queue idles writes just
#: this word; readers skip it, resetting their idle timer -- which is how
#: a half-open link (peer vanished without FIN) is told apart from a
#: merely quiet topic.
KEEPALIVE_WORD = 0xFFFFFFFF
#: The keepalive marker's wire bytes, queued on an idle link's write buffer.
KEEPALIVE_FRAME = _LEN.pack(KEEPALIVE_WORD)


# ----------------------------------------------------------------------
# Chaos seam: an installable factory wrapping every data socket.  The
# transport never imports repro.chaos; a FaultPlan installs its wrapper
# here and every TCPROS/bridge connection flows through it.
# ----------------------------------------------------------------------
_socket_hook = None


def install_socket_hook(hook) -> None:
    """Install (or with ``None`` remove) the global socket-wrapping hook:
    ``hook(sock, seam, context) -> socket-like``."""
    global _socket_hook
    _socket_hook = hook


def wrap_socket(sock, seam: str, **context):
    """Run ``sock`` through the installed hook (identity when absent)."""
    hook = _socket_hook
    if hook is None:
        return sock
    return hook(sock, seam, context)


# ----------------------------------------------------------------------
# Routing seam: an installable factory that *creates* outbound data
# connections.  Where the socket hook wraps a connection after dialing,
# the connect hook replaces the dial itself -- repro.graphplane.routed
# installs one to splice subscriber links through a per-host-pair
# multiplexed tunnel.  Returning None falls back to a direct dial.
# ----------------------------------------------------------------------
_connect_hook = None


def install_connect_hook(hook) -> None:
    """Install (or with ``None`` remove) the outbound-dial hook:
    ``hook(host, port, timeout) -> socket-like | None``."""
    global _connect_hook
    _connect_hook = hook


def open_connection(host: str, port: int, timeout: float) -> socket.socket:
    """Dial an outbound data connection through the routing seam."""
    hook = _connect_hook
    if hook is not None:
        sock = hook(host, port, timeout)
        if sock is not None:
            return sock
    return socket.create_connection((host, port), timeout=timeout)

#: Traced connections (both sides sent ``trace=1`` in the connection
#: header) prefix every frame's payload with (trace_id, stamp_ns): the
#: publisher's per-message trace id (0 when untraced) and its publish
#: time in monotonic nanoseconds.  The outer length covers prefix +
#: payload, so a traced stream is still well-formed length framing.
_TRACE = struct.Struct("<QQ")
TRACE_PREFIX = _TRACE.size


def encode_header(fields: dict[str, str]) -> bytes:
    """Encode a connection header (without the outer length prefix)."""
    out = bytearray()
    for key, value in fields.items():
        entry = f"{key}={value}".encode("utf-8")
        out += _LEN.pack(len(entry))
        out += entry
    return bytes(out)


def decode_header(data: bytes) -> dict[str, str]:
    """Decode a connection header body into a field dict."""
    fields: dict[str, str] = {}
    offset = 0
    view = memoryview(data)
    while offset < len(view):
        (length,) = _LEN.unpack_from(view, offset)
        offset += 4
        entry = bytes(view[offset : offset + length]).decode("utf-8")
        offset += length
        key, sep, value = entry.partition("=")
        if not sep:
            raise ConnectionHandshakeError(f"malformed header entry {entry!r}")
        fields[key] = value
    return fields


def read_exact(sock: socket.socket, count: int) -> bytearray:
    """Read exactly ``count`` bytes (raises ConnectionError on EOF)."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    got = 0
    while got < count:
        read = sock.recv_into(view[got:], count - got)
        if read == 0:
            raise ConnectionError("peer closed the connection")
        got += read
    return buffer


def read_frame(sock: socket.socket) -> bytearray:
    """Read one length-prefixed frame (silently skipping keepalives)."""
    while True:
        (length,) = _LEN.unpack(bytes(read_exact(sock, 4)))
        if length == KEEPALIVE_WORD:
            continue
        if length > MAX_FRAME:
            raise ConnectionHandshakeError(
                f"frame length {length} exceeds limit"
            )
        return read_exact(sock, length)


#: Payloads at or below this ride in one coalesced buffer with their
#: length prefix (one small copy beats a second syscall); larger payloads
#: go out vectored via ``sendmsg`` so the payload is never copied.
SMALL_FRAME = 8192

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: Sender-side coalescing watermarks: a drained send queue is flushed as
#: one vectored write of up to this many frames / this many payload
#: bytes.  The *time* watermark is zero -- a lone publish never waits for
#: company; only messages that were already queued behind it share the
#: flush -- so single-message latency is untouched while a backlog
#: collapses N syscalls into one.
BATCH_MAX_FRAMES = 16
BATCH_MAX_BYTES = 64 * 1024


def send_parts(sock: socket.socket, parts: list) -> None:
    """One vectored send of ``parts`` (bytes-like), finishing any partial
    write; more parts than one ``sendmsg`` takes go out in several.
    Falls back to a joined ``sendall`` without ``sendmsg``."""
    if len(parts) == 1:
        sock.sendall(parts[0])
        return
    if len(parts) > _MAX_IOV:
        for start in range(0, len(parts), _MAX_IOV):
            send_parts(sock, parts[start:start + _MAX_IOV])
        return
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
        sock.sendall(b"".join(bytes(part) for part in parts))
        return
    total = sum(len(part) for part in parts)
    sent = sock.sendmsg(parts)
    if sent >= total:
        return
    # Partial write under backpressure (rare): flatten the remainder.
    rest = b"".join(bytes(part) for part in parts)
    sock.sendall(memoryview(rest)[sent:])


def write_frame(sock: socket.socket, payload) -> None:
    """Write one length-prefixed frame (payload may be a memoryview).

    A single syscall per frame: small payloads are coalesced with the
    4-byte prefix, large ones use a vectored ``sendmsg([prefix, payload])``
    -- either way the prefix and payload never cost two ``sendall`` calls,
    which is benchmark-visible on small messages.
    """
    if isinstance(payload, memoryview) and payload.itemsize != 1:
        payload = payload.cast("B")
    size = len(payload)
    prefix = _LEN.pack(size)
    if size <= SMALL_FRAME:
        sock.sendall(prefix + bytes(payload))
        return
    if not _HAS_SENDMSG:  # pragma: no cover - non-POSIX fallback
        sock.sendall(prefix)
        sock.sendall(payload)
        return
    view = payload if isinstance(payload, memoryview) else memoryview(payload)
    total = len(prefix) + size
    sent = sock.sendmsg([prefix, view])
    # sendmsg on a stream socket may write partially under backpressure;
    # finish the remainder with ordinary sends.
    while sent < total:
        if sent < len(prefix):
            sock.sendall(prefix[sent:])
            sent = len(prefix)
            continue
        sent += sock.send(view[sent - len(prefix) :])


def frame_parts(payloads: list) -> list:
    """The iovec list for a batch of length-prefixed frames: each
    payload keeps its own prefix, so batching is invisible on the wire.
    Small payloads are coalesced with their prefixes, large ones ride as
    separate zero-copy iovecs.  Links queue the result on their write
    buffer; a blocking caller sends it with :func:`send_parts`."""
    parts: list = []
    pending = bytearray()
    for payload in payloads:
        if isinstance(payload, memoryview) and payload.itemsize != 1:
            payload = payload.cast("B")
        size = len(payload)
        if size <= SMALL_FRAME:
            pending += _LEN.pack(size)
            pending += payload
        else:
            if pending:
                parts.append(bytes(pending))
                pending = bytearray()
            parts.append(_LEN.pack(size))
            parts.append(
                payload if isinstance(payload, memoryview)
                else memoryview(payload)
            )
    if pending:
        parts.append(bytes(pending))
    return parts


def traced_frame_parts(entries: list) -> list:
    """:func:`frame_parts` for a traced connection (``(payload,
    trace_id, stamp_ns)`` triples, 16-byte prefix inside each frame)."""
    parts: list = []
    pending = bytearray()
    for payload, trace_id, stamp_ns in entries:
        if isinstance(payload, memoryview) and payload.itemsize != 1:
            payload = payload.cast("B")
        size = len(payload)
        head = _LEN.pack(size + TRACE_PREFIX) + _TRACE.pack(trace_id, stamp_ns)
        if size <= SMALL_FRAME:
            pending += head
            pending += payload
        else:
            if pending:
                parts.append(bytes(pending))
                pending = bytearray()
            parts.append(head)
            parts.append(
                payload if isinstance(payload, memoryview)
                else memoryview(payload)
            )
    if pending:
        parts.append(bytes(pending))
    return parts


def quiet_close(sock) -> None:
    """Close a socket absorbing every teardown error.

    Interpreter shutdown races (links closing sockets while the socket
    module is being torn down) can surface odd exceptions from
    ``close``; link teardown must be idempotent and exception-free."""
    if sock is None:
        return
    try:
        sock.close()
    except Exception:
        pass


def exchange_header_as_client(
    sock: socket.socket, fields: dict[str, str]
) -> dict[str, str]:
    """Subscriber side of the handshake: send ours, read the reply."""
    write_frame(sock, encode_header(fields))
    reply = decode_header(bytes(read_frame(sock)))
    if "error" in reply:
        raise ConnectionHandshakeError(reply["error"])
    return reply


def connect_subscriber(
    host: str, port: int, fields: dict[str, str], timeout: float = 10.0
) -> tuple[socket.socket, dict[str, str]]:
    """Open a data connection to a publisher and run the handshake."""
    sock = open_connection(host, port, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    except OSError:
        # A routed (multiplexed) connection hands back a socketpair
        # endpoint; TCP options don't apply to it.
        pass
    sock = wrap_socket(sock, "tcpros", role="subscriber",
                       topic=fields.get("topic", ""))
    try:
        reply = exchange_header_as_client(sock, fields)
    except Exception:
        sock.close()
        raise
    sock.settimeout(None)
    return sock, reply


class TcpRosServer:
    """The publisher-side data server: accepts subscriber connections,
    reads their handshake header and hands the socket to a dispatcher."""

    def __init__(
        self,
        dispatcher: Callable[[socket.socket, dict[str, str]], None],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._dispatcher = dispatcher
        self._closed = threading.Event()
        self._acceptor = AcceptorLink.listen(
            host, port, self._on_accept, backlog=256, label="tcpros"
        )
        self.host, self.port = self._acceptor.host, self._acceptor.port

    def _on_accept(self, sock: socket.socket, _addr) -> None:
        # The accept happened on the loop thread; the handshake may block
        # for seconds, so it rides a transient spawn.
        sock.setblocking(True)
        self._acceptor.reactor.spawn_blocking(
            lambda: self._handshake(sock), name=f"tcpros-hs:{self.port}"
        )

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            sock.settimeout(10.0)
            header = decode_header(bytes(read_frame(sock)))
            sock.settimeout(None)
            sock = wrap_socket(sock, "tcpros", role="publisher",
                               topic=header.get("topic", ""))
            self._dispatcher(sock, header)
        except Exception:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._acceptor.close()


def reject_connection(sock: socket.socket, reason: str) -> None:
    """Answer a handshake with an error header and close."""
    try:
        write_frame(sock, encode_header({"error": reason}))
    except OSError:
        pass
    finally:
        try:
            sock.close()
        except OSError:
            pass
