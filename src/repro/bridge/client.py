"""BridgeClient: the external-client side of the gateway protocol.

A thin, dependency-free library for programs *outside* the graph::

    client = BridgeClient("127.0.0.1", port)
    client.subscribe("/image", "sensor_msgs/Image@sfm",
                     lambda msg, meta: print(msg["height"], msg["width"]),
                     fields=["height", "width"])

Callbacks receive ``(msg, meta)`` where ``msg`` is

- a dict for ``json`` subscriptions (full message or the selected-field
  subtree),
- ``bytes`` for ``raw`` subscriptions (the message payload exactly as it
  travelled the internal graph -- for SFM topics, the SFM buffer),
- a flat ``{path: value}`` dict for ``cbin`` subscriptions (decoded from
  the packed fields using the schema the server returned at subscribe
  time),

and ``meta`` carries ``sid``, ``topic`` and the per-delivery
``wire_bytes``.  The client counts received messages and bytes-on-wire
per subscription (``received`` / ``wire_bytes``), which is what the
fan-out benchmark reads.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Callable, Optional

from repro.bridge import protocol
from repro.bridge.extract import unpack_packed
from repro.bridge.protocol import (
    BridgeProtocolError,
    TAG_CBIN,
    TAG_JSON,
    TAG_RAW,
)
from repro.ros.transport import tcpros


class BridgeError(Exception):
    """The server reported an error status for one of our requests."""


class _Pending:
    """One in-flight request awaiting its reply op."""

    __slots__ = ("event", "reply", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: Optional[dict] = None
        self.error: Optional[str] = None


class _ClientSub:
    __slots__ = ("sid", "topic", "codec", "schema", "callback")

    def __init__(self, sid, topic, codec, schema, callback) -> None:
        self.sid = sid
        self.topic = topic
        self.codec = codec
        self.schema = schema
        self.callback = callback


class BridgeClient:
    """One connection to a :class:`~repro.bridge.server.BridgeServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        codec: str = "json",
        max_frame: Optional[int] = None,
        timeout: float = 10.0,
    ) -> None:
        self.timeout = timeout
        #: Status ops not tied to a pending request, newest last.
        self.statuses: list[dict] = []
        #: Per-sid counters, fed by the reader thread.
        self.received: dict[int, int] = {}
        self.wire_bytes: dict[int, int] = {}
        self._subs: dict[int, _ClientSub] = {}
        self._chans: dict[str, int] = {}
        self._pending: dict[str, _Pending] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = False
        self._reassembler = protocol.Reassembler()
        self._frag_bytes: dict[object, int] = {}
        self.max_frame = protocol.MAX_FRAME  # until hello_ok negotiates it

        self.sock, self._framing, leftover = self._connect(
            host, port, timeout
        )
        self._decoder = self._framing.decoder()
        hello = {"op": "hello", "codec": codec, "id": self._next_id()}
        if max_frame is not None:
            hello["max_frame"] = max_frame
        pending = self._register(hello["id"])
        self._send_op(hello)
        # The handshake reply is read inline (the reader thread starts
        # after it) so construction fails loudly on a refused hello.
        self._feed(leftover)
        while not pending.event.is_set():
            self._feed(self._recv())
        reply = self._await(pending, "hello")
        self.codec = reply["codec"]
        self.max_frame = reply["max_frame"]
        self.sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"bridge-client:{host}:{port}",
        )
        self._reader.start()

    def _connect(self, host: str, port: int, timeout: float) -> tuple:
        """Open the transport: ``(socket, framing, bytes already read
        past the handshake)``.  The one thing a client for another wire
        overrides (the ws client adds its HTTP upgrade here)."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, protocol.LengthPrefixed(), b""

    # ------------------------------------------------------------------
    # Public ops
    # ------------------------------------------------------------------
    def advertise(self, topic: str, type: str) -> int:
        """Advertise ``topic``; returns the raw-publish channel id."""
        reply = self._request({
            "op": "advertise", "topic": topic, "type": type,
        }, expect="advertise_ok")
        with self._lock:
            self._chans[topic] = reply["chan"]
        return reply["chan"]

    def unadvertise(self, topic: str) -> None:
        self._send_op({"op": "unadvertise", "topic": topic})
        with self._lock:
            self._chans.pop(topic, None)

    def publish(self, topic: str, msg: dict) -> None:
        """Publish a JSON message dict (converted by the gateway)."""
        self._send_op({"op": "publish", "topic": topic, "msg": msg})

    def publish_raw(self, topic: str, payload: bytes) -> None:
        """Publish pre-encoded payload bytes over the raw binary codec
        (for SFM topics: the SFM buffer, forwarded without conversion)."""
        with self._lock:
            chan = self._chans.get(topic)
        if chan is None:
            raise BridgeError(f"{topic} is not advertised on this client")
        self._send_unit(TAG_RAW, protocol.encode_sid_body(chan, payload))

    def subscribe(
        self,
        topic: str,
        type: str,
        callback: Callable,
        fields: Optional[list] = None,
        codec: Optional[str] = None,
        throttle_rate: int = 0,
        queue_length: int = 0,
    ) -> int:
        """Subscribe; returns the sid the server assigned."""
        op = {"op": "subscribe", "topic": topic, "type": type}
        if fields:
            op["fields"] = list(fields)
        if codec:
            op["codec"] = codec
        if throttle_rate:
            op["throttle_rate"] = throttle_rate
        if queue_length:
            op["queue_length"] = queue_length
        reply = self._request(op, expect="subscribe_ok")
        sub = _ClientSub(
            reply["sid"], topic, reply["codec"], reply.get("schema"), callback
        )
        with self._lock:
            self._subs[sub.sid] = sub
            self.received.setdefault(sub.sid, 0)
            self.wire_bytes.setdefault(sub.sid, 0)
        return sub.sid

    def unsubscribe(self, sid: Optional[int] = None,
                    topic: Optional[str] = None) -> None:
        op = {"op": "unsubscribe"}
        if sid is not None:
            op["sid"] = sid
        if topic is not None:
            op["topic"] = topic
        reply = self._request(op, expect="unsubscribe_ok")
        with self._lock:
            for done in reply.get("sids", ()):
                self._subs.pop(done, None)

    def call_service(self, service: str, type: str,
                     args: Optional[dict] = None,
                     timeout: Optional[float] = None) -> dict:
        """Call a graph service; returns the response values dict."""
        op = {"op": "call_service", "service": service, "type": type}
        if args:
            op["args"] = args
        if timeout is not None:
            op["timeout"] = timeout
        reply = self._request(op, expect="service_response",
                              timeout=timeout)
        if not reply.get("result"):
            raise BridgeError(
                reply.get("values", {}).get("error", "service call failed")
            )
        return reply["values"]

    def stats(self) -> dict:
        """The gateway's live counters (subscriptions, advertisements,
        internal subscriber link errors)."""
        return self._request({"op": "stats"}, expect="stats")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for entry in pending:
            entry.error = "client closed"
            entry.event.set()
        # shutdown() before close(): our reader thread is blocked in
        # recv on this socket, and a plain close() would leave the
        # kernel socket (and the server's end) open until it returned.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "BridgeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"c{next(self._ids)}"

    def _register(self, op_id: str) -> _Pending:
        entry = _Pending()
        with self._lock:
            self._pending[op_id] = entry
        return entry

    def _request(self, op: dict, expect: str,
                 timeout: Optional[float] = None) -> dict:
        op_id = self._next_id()
        op["id"] = op_id
        entry = self._register(op_id)
        self._send_op(op)
        reply = self._await(entry, expect, timeout)
        return reply

    def _await(self, entry: _Pending, expect: str,
               timeout: Optional[float] = None) -> dict:
        if not entry.event.wait(timeout or self.timeout):
            raise BridgeError(f"timed out waiting for {expect}")
        if entry.error is not None:
            raise BridgeError(entry.error)
        return entry.reply

    def _send_op(self, op: dict) -> None:
        self._send_unit(TAG_JSON, protocol.encode_json_op(op))

    def _send_unit(self, tag: int, body: bytes) -> None:
        parts, _wire = protocol.unit_parts(
            self._framing, tag, body, self.max_frame, self._next_id
        )
        self._send_parts(parts)

    def _send_parts(self, parts: list) -> None:
        """One unit's parts (all its fragments), whole: senders on other
        threads never interleave with it."""
        with self._send_lock:
            tcpros.send_parts(self.sock, parts)

    # ------------------------------------------------------------------
    # Reader
    # ------------------------------------------------------------------
    def _recv(self) -> bytes:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("bridge closed the connection")
        return data

    def _feed(self, data: bytes) -> None:
        """Received bytes -> units -> handlers (control answers the
        wire owes the server go straight back out)."""
        events = self._decoder.feed(data)
        for unit in self._framing.units(events, self._send_parts):
            self._handle_unit(*unit)

    def _read_loop(self) -> None:
        try:
            while not self._closed:
                self._feed(self._recv())
        except (ConnectionError, OSError, BridgeProtocolError) as exc:
            code = getattr(exc, "code", None)
            if code is not None:
                try:
                    self._send_parts(self._framing.goodbye(code, exc.reason))
                except OSError:
                    pass
        finally:
            self.close()

    def _handle_unit(self, tag: int, body, wire: int) -> None:
        if tag in (TAG_RAW, TAG_CBIN):
            sid, payload = protocol.decode_sid_body(body)
            self._deliver(sid, tag, payload, wire)
            return
        op = protocol.decode_json_op(body)
        kind = op.get("op")
        if kind == "fragment":
            frag_id = op.get("id")
            self._frag_bytes[frag_id] = self._frag_bytes.get(frag_id, 0) + wire
            unit = self._reassembler.add(op)
            if unit is not None:
                total = self._frag_bytes.pop(frag_id, wire)
                self._handle_unit(unit[0], unit[1], total)
            return
        if kind == "publish":
            self._deliver(op.get("sid"), TAG_JSON, op.get("msg"), wire)
            return
        if kind == "status":
            self._on_status(op)
            return
        entry = self._pop_pending(op.get("id"))
        if entry is not None:
            entry.reply = op
            entry.event.set()
        else:
            self.statuses.append(op)

    def _pop_pending(self, op_id) -> Optional[_Pending]:
        if op_id is None:
            return None
        with self._lock:
            return self._pending.pop(op_id, None)

    def _on_status(self, op: dict) -> None:
        entry = self._pop_pending(op.get("id"))
        if entry is not None and op.get("level") in ("error", "warning"):
            # A status addressed to a pending request is its answer: the
            # op was refused (e.g. rate limited).  Fail the caller fast
            # instead of letting it time out.
            entry.error = op.get("msg", "bridge error")
            entry.event.set()
            return
        self.statuses.append(op)

    def _deliver(self, sid, tag: int, payload, wire: int) -> None:
        with self._lock:
            sub = self._subs.get(sid)
            if sub is not None:
                self.received[sid] = self.received.get(sid, 0) + 1
                self.wire_bytes[sid] = self.wire_bytes.get(sid, 0) + wire
        if sub is None:
            return
        if tag == TAG_CBIN:
            if sub.schema is None:
                return
            payload = unpack_packed(sub.schema, payload)
        elif tag == TAG_RAW:
            payload = bytes(payload)
        meta = {"sid": sid, "topic": sub.topic, "wire_bytes": wire}
        try:
            sub.callback(payload, meta)
        except Exception:
            pass  # a client callback must not kill the reader
