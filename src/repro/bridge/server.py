"""The bridge gateway: many external clients, one port, one graph node.

Architecture (mirroring rosbridge's server/protocol split, adapted to the
serialization-free middleware)::

    external clients                 gateway                 miniros graph
    ----------------   frames   -----------------   SHMROS/TCPROS
    BridgeClient  <--------------> Session <---+
    BridgeClient  <--------------> Session <---+--- _TopicTap --- Subscriber(raw)
    ...                                                |
                                                       +--- _Advertisement --- Publisher

- one **Session** per connection, whatever its wire (raw TCP, WebSocket,
  SSE -- the listener hands it a framing and a policy): a reactor stream
  link whose decoded units dispatch ops on the worker pool, and a pump
  draining that client's shared fan-out queue into the link's write
  buffer (all of its subscriptions feed one bounded queue, like the
  per-link queues of :mod:`repro.ros.topic`);
- one **_TopicTap** per (topic, class flavour): a single *raw* internal
  subscription whose payload bytes fan out to every bridge subscription,
  so the graph-side cost is paid once regardless of client count;
- per-delivery encoding happens **once per message per distinct
  (codec, fields) shape** and the encoded payload is shared by every
  subscription of that shape -- the bridge-level analogue of the
  topic layer's encode-once fan-out.

Selective field subscriptions on SFM topics never decode the message:
the tap hands the raw buffer to a compiled
:class:`~repro.bridge.extract.FieldSelector`, which slices the requested
fields by fixed offset (serialization-free selective field extraction).
"""

from __future__ import annotations

import base64
import itertools
import json
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.bridge import protocol
from repro.bridge.conversion import ConversionError, dict_to_msg, msg_to_dict
from repro.bridge.extract import FieldPathError, FieldSelector, nest_paths
from repro.bridge.protocol import (
    BridgeProtocolError,
    TAG_CBIN,
    TAG_JSON,
    TAG_RAW,
    status_op,
)
from repro.msg.fields import ComplexType
from repro.msg.generator import generate_message_class
from repro.msg.registry import TypeRegistry, UnknownTypeError, default_registry
from repro.msg.srv import default_service_registry, service_type
from repro.obs import instrument as obs_instrument
from repro.ros import reactor as reactor_mod
from repro.ros.codecs import codec_for_class
from repro.ros.transport import tcpros
from repro.sfm.generator import generate_sfm_class
from repro.sfm.message import SFMMessage


def resolve_msg_class(spelling: str, registry: Optional[TypeRegistry] = None):
    """``pkg/Type`` -> plain class, ``pkg/Type@sfm`` -> SFM class.

    Raises :class:`ValueError` for bad flavours and
    :class:`~repro.msg.registry.UnknownTypeError` for unknown types.
    """
    registry = registry or default_registry
    name, _, flavour = spelling.partition("@")
    if flavour and flavour != "sfm":
        raise ValueError(f"unknown class flavour {flavour!r} (use @sfm)")
    try:
        if flavour == "sfm":
            return generate_sfm_class(name, registry)
        return generate_message_class(name, registry)
    except UnknownTypeError:
        raise UnknownTypeError(f"unknown message type {name!r}") from None


class _Subscription:
    """One client subscription: codec shape, throttle/queue policy and
    wire counters."""

    __slots__ = (
        "sid", "session", "topic", "spelling", "codec", "fields", "selector",
        "schema", "throttle_rate", "queue_length", "sent", "wire_bytes",
        "dropped", "throttled", "queued", "_last_send",
    )

    def __init__(self, sid, session, topic, spelling, codec, fields,
                 selector, schema, throttle_rate, queue_length) -> None:
        self.sid = sid
        self.session = session
        self.topic = topic
        self.spelling = spelling
        self.codec = codec
        self.fields = fields
        self.selector = selector
        self.schema = schema
        self.throttle_rate = throttle_rate
        self.queue_length = queue_length
        self.sent = 0
        self.wire_bytes = 0
        self.dropped = 0
        self.throttled = 0
        #: Deliveries currently sitting in the session queue (guarded by
        #: the session lock) -- keeps the bound check O(1).
        self.queued = 0
        self._last_send = 0.0

    def throttle(self, now: float) -> bool:
        """True when this message must be dropped by throttle_rate."""
        if self.throttle_rate and (now - self._last_send) * 1000.0 < self.throttle_rate:
            self.throttled += 1
            return True
        self._last_send = now
        return False

    def describe(self) -> dict:
        return {
            "sid": self.sid,
            "topic": self.topic,
            "type": self.spelling,
            "codec": self.codec,
            "fields": self.fields,
            "throttle_rate": self.throttle_rate,
            "queue_length": self.queue_length,
            "sent": self.sent,
            "wire_bytes": self.wire_bytes,
            "dropped": self.dropped,
            "throttled": self.throttled,
        }


class _TopicTap:
    """One raw internal subscription fanning out to bridge subscriptions."""

    def __init__(self, server: "BridgeServer", topic: str, spelling: str) -> None:
        self.server = server
        self.topic = topic
        self.spelling = spelling
        self.msg_class = resolve_msg_class(spelling, server.registry)
        self.is_sfm = issubclass(self.msg_class, SFMMessage)
        self.codec = codec_for_class(self.msg_class)
        self._subs: list[_Subscription] = []
        self._lock = threading.Lock()
        self.subscriber = server.node.subscribe(
            topic, self.msg_class, self._on_raw, raw=True
        )

    def add(self, sub: _Subscription) -> None:
        with self._lock:
            self._subs.append(sub)

    def remove(self, sub: _Subscription) -> bool:
        """Drop ``sub``; returns True when the tap became empty."""
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)
            return not self._subs

    # ------------------------------------------------------------------
    # Fan-out (runs on the internal subscriber's delivery queue)
    # ------------------------------------------------------------------
    def _on_raw(self, payload: bytes) -> None:
        with self._lock:
            subs = list(self._subs)
        if not subs:
            return
        now = time.monotonic()
        topic_json = json.dumps(self.topic)
        cache: dict[tuple, object] = {}
        decoded: list = [None]
        failed: list[tuple[_Subscription, Exception]] = []
        for sub in subs:
            if sub.throttle(now):
                continue
            # Nothing may escape into the internal delivery queue: an
            # uncaught error would kill the shared inbound link and
            # silence every other subscription on this tap.  Report the
            # failure to the offending client and drop its subscription.
            try:
                self._deliver(sub, payload, topic_json, cache, decoded)
            except Exception as exc:
                failed.append((sub, exc))
        for sub, exc in failed:
            sub.session.enqueue_op(status_op(
                "error",
                f"subscription {sub.sid} on {self.topic} dropped: {exc}",
            ))
            self.server.drop_subscription(sub)

    def _deliver(self, sub: _Subscription, payload: bytes, topic_json: str,
                 cache: dict, decoded: list) -> None:
        """Encode-and-enqueue one subscription's delivery (shared-shape
        encodings cached across the fan-out)."""
        if sub.codec == "raw":
            sub.session.enqueue_delivery(
                sub, TAG_RAW, protocol.encode_sid_body(sub.sid, payload)
            )
            return
        if sub.codec == "cbin":
            key = ("cbin", tuple(sub.fields))
            packed = cache.get(key)
            if packed is None:
                packed = sub.selector.pack(payload)
                cache[key] = packed
            sub.session.enqueue_delivery(
                sub, TAG_CBIN, protocol.encode_sid_body(sub.sid, packed)
            )
            return
        # JSON delivery: serialize the msg part once per distinct
        # fields shape, then compose the tiny envelope per client.
        key = ("json", tuple(sub.fields) if sub.fields else None)
        msg_json = cache.get(key)
        if msg_json is None:
            if sub.selector is not None:
                msg_dict = _json_safe(sub.selector.extract_nested(payload))
            else:
                if decoded[0] is None:
                    decoded[0] = msg_to_dict(self._decode(payload))
                msg_dict = (
                    _pick_paths(decoded[0], sub.fields)
                    if sub.fields else decoded[0]
                )
            msg_json = json.dumps(msg_dict, separators=(",", ":"))
            cache[key] = msg_json
        body = (
            '{"op":"publish","sid":%d,"topic":%s,"msg":%s}'
            % (sub.sid, topic_json, msg_json)
        ).encode("utf-8")
        sub.session.enqueue_delivery(sub, TAG_JSON, body)

    def _decode(self, payload: bytes):
        """Full decode (the expensive path, used only by full-JSON and
        decoded-subset subscriptions on plain topics)."""
        return self.codec.decode(bytearray(payload))


def _json_safe(value):
    """Base64 any raw byte values a selector sliced out (matching the
    full-conversion convention of :func:`msg_to_dict`)."""
    if isinstance(value, (bytes, bytearray)):
        return base64.b64encode(bytes(value)).decode("ascii")
    if isinstance(value, dict):
        return {key: _json_safe(val) for key, val in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _validate_plain_paths(msg_class, paths: list[str],
                          registry: TypeRegistry) -> None:
    """Resolve dotted field paths against a plain message spec at
    subscribe time (SFM selections get the same check from
    :class:`FieldSelector` compilation), so a bad path is a subscribe
    error instead of a per-message failure inside the tap fan-out."""
    spec = msg_class._spec
    for path in paths:
        current = spec
        parts = path.split(".")
        for depth, part in enumerate(parts):
            try:
                field = current.field(part)
            except KeyError:
                raise FieldPathError(
                    f"{spec.full_name}: no field {path!r} "
                    f"({current.full_name} has no {part!r})"
                ) from None
            if depth < len(parts) - 1:
                if not isinstance(field.type, ComplexType):
                    raise FieldPathError(
                        f"{spec.full_name}: {path!r} descends through "
                        f"non-message field {part!r}"
                    )
                current = registry.get(field.type.name)


def _pick_paths(full: dict, paths: list[str]) -> dict:
    """Subset a decoded message dict by dotted paths (plain topics)."""
    flat = {}
    for path in paths:
        node = full
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConversionError(f"no field {path!r} in message")
            node = node[part]
        flat[path] = node
    return nest_paths(flat)


class _Advertisement:
    """One externally advertised topic (shared across sessions)."""

    def __init__(self, server: "BridgeServer", chan: int, topic: str,
                 spelling: str) -> None:
        self.chan = chan
        self.topic = topic
        self.spelling = spelling
        self.msg_class = resolve_msg_class(spelling, server.registry)
        self.is_sfm = issubclass(self.msg_class, SFMMessage)
        self.publisher = server.node.advertise(topic, self.msg_class)
        self.codec = codec_for_class(self.msg_class)
        self.sessions: set = set()
        self.published = 0


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

#: Seconds a ``hello_first`` connection may stay silent before it is
#: dropped.
HELLO_TIMEOUT = 10.0


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


@dataclass(frozen=True)
class Policy:
    """What a listener demands of its clients; the default is open.

    - ``auth_tokens``: accepted shared tokens, empty = no auth (checked
      where the transport carries a token: the front door's HTTP head);
    - ``rate_limits``: ``{op_class: (rate_per_s, burst)}`` token buckets
      per session (classes: publish, subscribe, service); missing
      classes are unlimited;
    - ``queue_length``: default per-subscription queue bound;
    - ``high_watermark``: session-wide queued-delivery bound, shedding
      the oldest delivery of any subscription;
    - ``evict_strikes``: consecutive sheds with no write progress before
      the session is evicted.  0 disables each of the three.
    """

    auth_tokens: frozenset = frozenset()
    rate_limits: Mapping = field(default_factory=dict)
    queue_length: int = 0
    high_watermark: int = 0
    evict_strikes: int = 0

    def __post_init__(self) -> None:
        for op_class in self.rate_limits:
            if op_class not in RATE_CLASSES:
                raise ValueError(
                    f"unknown rate-limit class {op_class!r} "
                    f"(one of {RATE_CLASSES})"
                )


class Session:
    """One connected bridge client, on any wire: ops, subscriptions,
    reassembly, a shared bounded fan-out queue and the slow-client and
    rate-limit policy.

    It never touches a byte of framing.  Whoever accepted the socket
    hands it a *framing* (:mod:`repro.bridge.protocol`) that turns the
    stream link's decoder events into ``tag | body`` units and units
    into ``writev`` parts, and a :class:`Policy`.
    """

    def __init__(self, server: "BridgeServer", sock: socket.socket,
                 peer: str, framing, policy: Policy) -> None:
        self.server = server
        self.peer = peer
        self.framing = framing
        self.policy = policy
        self.codec = "json"
        self.max_frame = protocol.MAX_FRAME
        self.subscriptions: dict[int, _Subscription] = {}
        self.closed = False
        self.evicted = False
        self.evict_reason: Optional[str] = None
        #: Deliveries shed by the session watermark (any subscription).
        self.shed = 0
        #: Consecutive sheds/drops with no write progress in between --
        #: the eviction trigger.  Reset whenever a unit batch reaches
        #: the kernel, so a bursty-but-draining client is forgiven while
        #: a wedged one (write buffer never flushing) accumulates strikes
        #: until eviction.
        self._strikes = 0
        self._delivery_depth = 0
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._frag_ids = itertools.count(1)
        self._reassembler = protocol.Reassembler(
            sequential=framing.sequential
        )
        self._buckets = {
            op_class: TokenBucket(rate, burst)
            for op_class, (rate, burst) in policy.rate_limits.items()
        }
        self._pump_scheduled = False
        #: A written-but-unflushed unit batch is in the kernel's hands;
        #: further units wait in ``_queue`` so the shed/evict policy
        #: still sees the backlog of a stalled client.
        self._inflight = False
        self._greeted = not framing.hello_first
        self._hello_timer = None
        self._loop = reactor_mod.global_reactor()
        self._serial = self._loop.serial_queue(on_error=self._session_error)
        self._rlink = reactor_mod.StreamLink(
            sock,
            framing.decoder(),
            on_events=self._on_events,
            on_error=self._session_error,
            reactor=self._loop,
            label=f"bridge:{peer}",
        )

    def start(self, leftover: bytes = b"") -> None:
        """Join the shared loop (no thread of its own, on any wire).
        ``leftover`` is what an HTTP upgrade read past its head: it must
        reach the decoder before the socket joins the loop, or a
        complete buffered message would wait for a *next* readable
        event that may never come."""
        if not self._greeted:
            self._hello_timer = self._loop.call_later(
                HELLO_TIMEOUT, self._hello_expired
            )
        if leftover:
            try:
                self._on_events(self._rlink.decoder.feed(leftover))
            except Exception as exc:
                self._session_error(exc)
                return
        self._rlink.start()

    def _on_events(self, events: list) -> None:
        """Decoder events -> op dispatch on the worker pool (serialized
        per session, so op order is preserved)."""
        if events:
            self._serial.push(lambda: self._handle_events(events))

    def _handle_events(self, events: list) -> None:
        for tag, body, _wire in self.framing.units(events, self._rlink.write):
            if self.closed:
                return
            self._dispatch_unit(tag, body)

    def _hello_expired(self) -> None:
        """Loop thread: a connection that never said hello goes.  The
        teardown may block, so it runs on the worker pool -- in line
        behind a hello that arrived with the deadline."""
        self._serial.push(
            lambda: self._greeted or self.server._drop_session(self)
        )

    def _session_error(self, exc: Exception) -> None:
        """Any failure ends the session; one that names a close code
        (a broken or closing ws peer) is answered with it first."""
        code = getattr(exc, "code", None)
        if code is not None:
            self._goodbye(self.framing.goodbye(code, exc.reason))
        self.server._drop_session(self)

    def _goodbye(self, parts: list) -> None:
        """The only last word: refusal, protocol error and eviction all
        leave through here, ahead of the close that discards the write
        queue.  Best effort -- sent only on a frame boundary and never
        blocking, because the peer may be the reason we are closing."""
        if parts:
            self._rlink.send_if_idle(b"".join(parts))

    # ------------------------------------------------------------------
    # Outgoing queue
    # ------------------------------------------------------------------
    def enqueue_op(self, op: dict) -> None:
        """Control traffic: never dropped by subscription queue bounds."""
        self._enqueue(None, TAG_JSON, protocol.encode_json_op(op))

    def enqueue_delivery(self, sub: _Subscription, tag: int, body: bytes) -> None:
        self._enqueue(sub, tag, body)

    def _enqueue(self, sub: Optional[_Subscription], tag: int, body: bytes) -> None:
        evict_reason = None
        policy = self.policy
        with self._lock:
            if self.closed:
                return
            if sub is not None:
                shed = False
                limit = sub.queue_length or policy.queue_length
                if limit and sub.queued >= limit:
                    # Drop the oldest queued delivery of this subscription
                    # (slow external client; same policy as _OutboundLink).
                    self._shed_oldest(sub)
                    shed = True
                if policy.high_watermark and \
                        self._delivery_depth >= policy.high_watermark:
                    # The whole session is saturated across subscriptions:
                    # shed the oldest delivery of *any* subscription.
                    self._shed_oldest(None)
                    shed = True
                if shed and policy.evict_strikes:
                    # A shed with no write progress since the last one is
                    # a strike; enough consecutive strikes and the client
                    # is evicted -- one stalled browser must not pin
                    # queue memory and fan-out time forever.
                    self._strikes += 1
                    if self._strikes >= policy.evict_strikes:
                        evict_reason = (
                            f"{self._strikes} consecutive deliveries shed "
                            f"with no write progress (stalled consumer)"
                        )
                sub.queued += 1
                self._delivery_depth += 1
            self._queue.append((sub, tag, body))
            schedule = not self._pump_scheduled
            if schedule:
                self._pump_scheduled = True
        if schedule:
            self._loop.call_soon(self._pump)
        if evict_reason is not None:
            self.server.evict_session(self, evict_reason)

    def _shed_oldest(self, of: Optional[_Subscription]) -> None:
        """Shed the oldest queued delivery of one subscription, or
        (``None``, counted in ``shed``) of any; ops are never shed.
        Caller holds the lock."""
        for index, (queued, _t, _b) in enumerate(self._queue):
            if queued is not None and (of is None or queued is of):
                del self._queue[index]
                queued.dropped += 1
                queued.queued -= 1
                self._delivery_depth -= 1
                if of is None:
                    self.shed += 1
                break

    #: Units moved to the link buffer per pump: enough to amortize the
    #: wakeup, small enough that a stalled client's backlog stays in
    #: ``_queue`` where the shed/evict policy can reach it.
    _PUMP_MAX_UNITS = 32

    def _pump(self) -> None:
        """The writer: drain a bounded batch of units into the stream
        link (runs on the loop thread)."""
        units: list = []
        with self._lock:
            self._pump_scheduled = False
            if self._inflight or self.closed:
                return
            while self._queue and len(units) < self._PUMP_MAX_UNITS:
                sub, tag, body = self._queue.popleft()
                if sub is not None:
                    sub.queued -= 1
                    self._delivery_depth -= 1
                units.append((sub, tag, body))
            if units:
                self._inflight = True
        if not units:
            return
        parts: list = []
        metered: list = []
        framing, max_frame = self.framing, self.max_frame
        new_frag_id = self._new_frag_id
        for sub, tag, body in units:
            try:
                unit_parts, wire = protocol.unit_parts(
                    framing, tag, body, max_frame, new_frag_id
                )
            except Exception:
                continue
            parts.extend(unit_parts)
            metered.append((sub, wire))
        self._rlink.write(
            parts,
            on_flushed=lambda metered=metered: self._units_flushed(metered),
        )

    def _new_frag_id(self) -> str:
        return f"f{next(self._frag_ids)}"

    def _units_flushed(self, metered: list) -> None:
        for sub, wire in metered:
            if sub is not None:
                sub.sent += 1
                sub.wire_bytes += wire
        with self._lock:
            self._inflight = False
            # Bytes reached the kernel: the client is draining, so its
            # accumulated shed strikes are forgiven.
            self._strikes = 0
            more = (
                bool(self._queue)
                and not self._pump_scheduled
                and not self.closed
            )
            if more:
                self._pump_scheduled = True
        if more:
            self._loop.call_soon(self._pump)

    def describe(self) -> dict:
        """Per-client counters for stats_snapshot()/``tools top``."""
        with self._lock:
            depth = self._delivery_depth
            shed = self.shed
        subs = list(self.subscriptions.values())
        return {
            "peer": self.peer,
            "transport": self.framing.name,
            "codec": self.codec,
            "subscriptions": len(subs),
            "queue_depth": depth,
            "dropped": sum(sub.dropped for sub in subs) + shed,
            "shed": shed,
            "evicted": self.evicted,
        }

    # ------------------------------------------------------------------
    # Incoming units
    # ------------------------------------------------------------------
    def _admit(self, kind: str) -> bool:
        """May an op of this kind be processed now (rate limits)?"""
        op_class = OP_CLASSES.get(kind)
        bucket = self._buckets.get(op_class)
        if bucket is None or bucket.allow():
            return True
        self.server.count(self.framing.name, op_class)
        return False

    def _greet(self, tag: int, body) -> None:
        """The first unit on a ``hello_first`` wire: a valid hello op,
        or the connection is refused (with an error status when the op
        could at least be read)."""
        if tag != TAG_JSON:
            raise BridgeProtocolError("handshake must be a JSON hello op")
        op = protocol.decode_json_op(body)
        error = protocol.validate_op(op)
        if error is None and op.get("op") != "hello":
            error = f"expected hello, got {op.get('op')!r}"
        if error:
            self._goodbye(self.framing.parts(
                TAG_JSON,
                protocol.encode_json_op(status_op("error", error,
                                                  op.get("id"))),
            ))
            raise BridgeProtocolError(error)
        self._greeted = True
        self._hello_timer.cancel()
        self.apply_hello(op)

    def apply_hello(self, op: dict) -> None:
        """Adopt a (validated) hello op's negotiation and ack it.  The
        first unit on raw TCP; an ordinary, optional op on the wires
        that shook hands in HTTP (WebSocket, SSE)."""
        self.codec = op.get("codec", "json")
        if op.get("max_frame"):
            # Clamp both ways: below MIN_MAX_FRAME fragments cannot carry
            # their envelope, above MAX_FRAME the peer's read_frame guard
            # would reject our unfragmented writes.  hello_ok echoes the
            # clamped value so the client adopts it.
            self.max_frame = min(
                protocol.MAX_FRAME,
                max(protocol.MIN_MAX_FRAME, int(op["max_frame"])),
            )
        self.enqueue_op({
            "op": "hello_ok",
            "version": protocol.PROTOCOL_VERSION,
            "codec": self.codec,
            "max_frame": self.max_frame,
            "id": op.get("id"),
        })

    def _dispatch_unit(self, tag: int, body) -> None:
        if not self._greeted:
            self._greet(tag, body)
            return
        if tag == TAG_RAW:
            if not self._admit("publish"):
                return
            chan, payload = protocol.decode_sid_body(body)
            self.server.publish_raw(self, chan, payload)
            return
        if tag == TAG_CBIN:
            self.enqueue_op(status_op(
                "error", "cbin frames are server-to-client only"
            ))
            return
        if tag != TAG_JSON:
            self.enqueue_op(status_op("error", f"unknown frame tag {tag}"))
            return
        try:
            op = protocol.decode_json_op(body)
        except BridgeProtocolError as exc:
            self.enqueue_op(status_op("error", str(exc)))
            return
        error = protocol.validate_op(op)
        if error:
            self.enqueue_op(status_op("error", error, op.get("id")))
            return
        if not self._admit(op["op"]):
            self.enqueue_op(status_op(
                "warning",
                f"op {op['op']!r} rate limited; retry later", op.get("id"),
            ))
            return
        if op["op"] == "fragment":
            try:
                unit = self._reassembler.add(op)
            except BridgeProtocolError as exc:
                self.enqueue_op(status_op("error", str(exc), op.get("id")))
                return
            if unit is not None:
                self._dispatch_unit(*unit)
            return
        self.server.handle_op(self, op)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._queue.clear()
        if self._hello_timer is not None:
            self._hello_timer.cancel()
        self._rlink.close()


class BridgeServer:
    """A rosbridge-style gateway in front of one miniros graph."""

    def __init__(
        self,
        master_uri: str,
        host: str = "127.0.0.1",
        port: int = 0,
        node_name: str = "rossf_bridge",
        registry: Optional[TypeRegistry] = None,
        service_timeout: float = 10.0,
    ) -> None:
        from repro.ros.node import NodeHandle

        self.registry = registry or default_registry
        self.service_timeout = service_timeout
        self.node = NodeHandle(node_name, master_uri)
        self._lock = threading.RLock()
        self._sessions: list[Session] = []
        self._taps: dict[tuple[str, str], _TopicTap] = {}
        self._advertisements: dict[str, _Advertisement] = {}
        self._chan_by_id: dict[int, _Advertisement] = {}
        self._sid_source = itertools.count(1)
        self._chan_source = itertools.count(1)
        self._closed = False
        self._ws_frontend = None
        #: Policy outcomes, ``(framing name, event) -> count``: the
        #: event is ``"evicted"`` (a slow client removed) or the
        #: rate-limit class of a refused op.
        self._tally: dict[tuple[str, str], int] = {}

        self._acceptor = reactor_mod.AcceptorLink.listen(
            host, port, self._on_accept, backlog=256, label="bridge-accept"
        )
        self.host, self.port = self._acceptor.host, self._acceptor.port
        obs_instrument.track_bridge(self)

    # ------------------------------------------------------------------
    # Accepting clients
    # ------------------------------------------------------------------
    def _on_accept(self, sock, addr) -> None:
        """AcceptorLink callback (loop thread, must not block): the raw
        TCP listener is open to all -- the hello arrives through the
        decoder like any unit, so a connection costs no thread."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock = tcpros.wrap_socket(sock, "bridge", role="server")
        self.accept_session(sock, f"{addr[0]}:{addr[1]}",
                            protocol.LengthPrefixed(), Policy())

    def accept_session(self, sock, peer: str, framing,
                       policy: Policy, leftover: bytes = b""
                       ) -> Optional[Session]:
        """The one way in: every listener hands its connected socket,
        the wire it speaks and its policy here.  None once shut down."""
        session = Session(self, sock, peer, framing, policy)
        with self._lock:
            if self._closed:
                session.close()
                return None
            self._sessions.append(session)
        session.start(leftover)
        return session

    def count(self, framing: str, event: str) -> None:
        with self._lock:
            key = (framing, event)
            self._tally[key] = self._tally.get(key, 0) + 1

    def tally(self, event: str, *framings: str) -> int:
        """How often ``event`` was counted on the named framings (none
        named: on all of them)."""
        with self._lock:
            return sum(
                count for (name, counted), count in self._tally.items()
                if counted == event and (not framings or name in framings)
            )

    @property
    def evictions(self) -> int:
        """Sessions removed by the slow-client policy (all framings)."""
        return self.tally("evicted")

    def evict_session(self, session: Session, reason: str) -> None:
        """Remove a session under the slow-client policy: best-effort
        goodbye, then the normal teardown path."""
        with self._lock:
            if session.evicted or session.closed:
                return
            session.evicted = True
            session.evict_reason = reason
            self.count(session.framing.name, "evicted")
        session._goodbye(session.framing.goodbye(
            protocol.CLOSE_OVERLOADED, "evicted: slow consumer"
        ))
        self._drop_session(session)

    def _drop_session(self, session: Session) -> None:
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)
            subs = list(session.subscriptions.values())
            session.subscriptions.clear()
        session.close()
        for sub in subs:
            self._release_subscription(sub)

    def _release_subscription(self, sub: _Subscription) -> None:
        with self._lock:
            tap = self._taps.get((sub.topic, sub.spelling))
            if tap is not None and tap.remove(sub):
                del self._taps[(sub.topic, sub.spelling)]
            else:
                tap = None
        if tap is not None:
            tap.subscriber.unsubscribe()

    def drop_subscription(self, sub: _Subscription) -> None:
        """Forcibly remove one subscription (a delivery failure: the
        session stays, only the offending subscription goes)."""
        with self._lock:
            sub.session.subscriptions.pop(sub.sid, None)
        self._release_subscription(sub)

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def handle_op(self, session: Session, op: dict) -> None:
        handler = getattr(self, f"_op_{op['op']}", None)
        if handler is None:
            session.enqueue_op(status_op(
                "error", f"unsupported op {op['op']!r}", op.get("id")
            ))
            return
        try:
            handler(session, op)
        except (ValueError, UnknownTypeError, ConversionError,
                FieldPathError, KeyError, OverflowError,
                struct.error) as exc:
            # struct.error/OverflowError: a JSON value passed type checks
            # but not the wire range (2**40 into an int32); the op fails
            # with a status, the session lives on.
            # KeyError's str() wraps the message in repr quotes.
            text = exc.args[0] if isinstance(exc, KeyError) and exc.args \
                else str(exc)
            session.enqueue_op(status_op("error", str(text), op.get("id")))

    def _op_status(self, session, op) -> None:
        pass  # client-side diagnostics are informational

    def _op_hello(self, session, op) -> None:
        # Raw TCP greets with it (Session._greet); ws/SSE clients may
        # send it as an ordinary op after the HTTP upgrade.
        session.apply_hello(op)

    def _op_advertise(self, session, op) -> None:
        topic, spelling = op["topic"], op["type"]
        with self._lock:
            adv = self._advertisements.get(topic)
            if adv is None:
                adv = _Advertisement(self, next(self._chan_source), topic,
                                     spelling)
                self._advertisements[topic] = adv
                self._chan_by_id[adv.chan] = adv
            elif adv.spelling != spelling:
                raise ValueError(
                    f"{topic} is already advertised as {adv.spelling}"
                )
            adv.sessions.add(session)
        session.enqueue_op({
            "op": "advertise_ok", "id": op.get("id"),
            "topic": topic, "chan": adv.chan,
        })

    def _op_unadvertise(self, session, op) -> None:
        topic = op["topic"]
        with self._lock:
            adv = self._advertisements.get(topic)
            if adv is None:
                raise ValueError(f"{topic} is not advertised")
            adv.sessions.discard(session)
            last = not adv.sessions
            if last:
                del self._advertisements[topic]
                del self._chan_by_id[adv.chan]
        if last:
            adv.publisher.unadvertise()

    def _op_publish(self, session, op) -> None:
        with self._lock:
            adv = self._advertisements.get(op["topic"])
        if adv is None:
            raise ValueError(f"{op['topic']} is not advertised (advertise first)")
        msg = dict_to_msg(op["msg"], adv.msg_class)
        adv.publisher.publish(msg)
        adv.published += 1

    def publish_raw(self, session, chan: int, payload: bytes) -> None:
        """A TAG_RAW frame from a client: adopt and publish without any
        per-field work (zero-copy for SFM topics)."""
        with self._lock:
            adv = self._chan_by_id.get(chan)
        if adv is None:
            session.enqueue_op(status_op("error", f"unknown channel {chan}"))
            return
        try:
            msg = adv.codec.decode(bytearray(payload))
            adv.publisher.publish(msg)
            adv.published += 1
        except Exception as exc:
            session.enqueue_op(status_op(
                "error", f"raw publish on {adv.topic} failed: {exc}"
            ))

    def _op_subscribe(self, session, op) -> None:
        topic, spelling = op["topic"], op["type"]
        codec = op.get("codec") or session.codec
        fields = op.get("fields")
        msg_class = resolve_msg_class(spelling, self.registry)
        is_sfm = issubclass(msg_class, SFMMessage)
        selector = None
        schema = None
        if codec == "cbin" and not fields:
            raise ValueError("cbin subscriptions require a 'fields' list")
        if codec == "raw" and fields:
            raise ValueError(
                "raw subscriptions forward whole messages; drop 'fields' "
                "or use the json/cbin codec"
            )
        if fields:
            if is_sfm:
                from repro.sfm.layout import layout_for

                selector = FieldSelector(
                    layout_for(spelling.partition("@")[0], self.registry),
                    fields,
                )
                if codec == "cbin":
                    schema = selector.schema()
            elif codec == "cbin":
                raise ValueError(
                    "cbin requires an @sfm type (fixed-offset layout)"
                )
            else:
                # plain topics keep fields as a decoded-subset filter;
                # resolve the paths now so a typo is this client's
                # subscribe error, not a per-message fan-out failure
                _validate_plain_paths(msg_class, fields, self.registry)
        sid = next(self._sid_source)
        sub = _Subscription(
            sid, session, topic, spelling, codec, fields, selector, schema,
            int(op.get("throttle_rate") or 0), int(op.get("queue_length") or 0),
        )
        with self._lock:
            tap = self._taps.get((topic, spelling))
            if tap is None:
                tap = _TopicTap(self, topic, spelling)
                self._taps[(topic, spelling)] = tap
            tap.add(sub)
            session.subscriptions[sid] = sub
        ack = {
            "op": "subscribe_ok", "id": op.get("id"), "sid": sid,
            "topic": topic, "codec": codec,
            "mode": (
                "sfm-offset" if selector is not None
                else ("decoded-subset" if fields else "full")
            ),
        }
        if schema is not None:
            ack["schema"] = schema
        session.enqueue_op(ack)

    def _op_unsubscribe(self, session, op) -> None:
        sid = op.get("sid")
        topic = op.get("topic")
        with self._lock:
            if sid is not None:
                subs = [session.subscriptions.pop(sid, None)]
                if subs[0] is None:
                    raise ValueError(f"unknown subscription {sid}")
            else:
                subs = [
                    sub for sub in session.subscriptions.values()
                    if sub.topic == topic
                ]
                if not subs:
                    raise ValueError(f"no subscription on {topic}")
                for sub in subs:
                    session.subscriptions.pop(sub.sid, None)
        for sub in subs:
            self._release_subscription(sub)
        session.enqueue_op({
            "op": "unsubscribe_ok", "id": op.get("id"),
            "sids": [sub.sid for sub in subs],
        })

    def _op_call_service(self, session, op) -> None:
        # Service calls block on the remote handler; run them off the
        # worker pool so one slow service cannot stall the session.
        threading.Thread(
            target=self._call_service, args=(session, op), daemon=True,
            name=f"bridge-srv:{op['service']}",
        ).start()

    def _call_service(self, session, op) -> None:
        response_op = {
            "op": "service_response", "id": op.get("id"),
            "service": op["service"], "result": False, "values": {},
        }
        try:
            srv = service_type(op["type"], default_service_registry)
            request = dict_to_msg(op.get("args") or {}, srv.request_class)
            timeout = float(op.get("timeout") or self.service_timeout)
            proxy = self.node.service_proxy(op["service"], srv, timeout)
            try:
                response = proxy(request)
            finally:
                proxy.close_connection()
            response_op["result"] = True
            response_op["values"] = msg_to_dict(response)
        except Exception as exc:
            response_op["values"] = {"error": str(exc)}
        session.enqueue_op(response_op)

    def stats_snapshot(self) -> dict:
        """One consistent public view of the gateway: client count,
        every subscription's counters, advertisements and inbound link
        errors.  Serves both the ``stats`` wire op and the metrics
        collectors."""
        with self._lock:
            sessions = [sess.describe() for sess in self._sessions]
            by_transport: dict[str, int] = {}
            for entry in sessions:
                by_transport[entry["transport"]] = (
                    by_transport.get(entry["transport"], 0) + 1
                )
            snap = {
                "clients": len(self._sessions),
                "clients_by_transport": by_transport,
                "evictions": self.evictions,
                "sessions": sessions,
                "subscriptions": [
                    sub.describe()
                    for sess in self._sessions
                    for sub in sess.subscriptions.values()
                ],
                "advertisements": [
                    {"topic": adv.topic, "type": adv.spelling,
                     "chan": adv.chan, "published": adv.published}
                    for adv in self._advertisements.values()
                ],
                "link_errors": {
                    tap.topic: {
                        uri: str(error)
                        for uri, error in tap.subscriber.link_errors.items()
                    }
                    for tap in self._taps.values()
                    if tap.subscriber.link_errors
                },
            }
            frontend = self._ws_frontend
        if frontend is not None:
            snap["ws"] = frontend.stats()
        return snap

    def _op_stats(self, session, op) -> None:
        stats = self.stats_snapshot()
        stats["op"] = "stats"
        stats["id"] = op.get("id")
        session.enqueue_op(stats)

    # ------------------------------------------------------------------
    # WebSocket front door
    # ------------------------------------------------------------------
    def enable_ws(self, host: str = "127.0.0.1", port: int = 0, **kwargs):
        """Open the WebSocket/SSE front door on a second listener.

        Keyword arguments are forwarded to
        :class:`repro.bridge.ws.WsFrontend` (auth tokens, rate limits,
        queue policy).  Idempotent: a second call returns the running
        frontend."""
        from repro.bridge.ws import WsFrontend

        with self._lock:
            if self._closed:
                raise RuntimeError("bridge is shut down")
            if self._ws_frontend is not None:
                return self._ws_frontend
        frontend = WsFrontend(self, host=host, port=port, **kwargs)
        with self._lock:
            self._ws_frontend = frontend
        return frontend

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions)
            self._sessions.clear()
            frontend = self._ws_frontend
        if frontend is not None:
            frontend.close()
        self._acceptor.close()
        for session in sessions:
            session.close()
        self.node.shutdown()

    def __enter__(self) -> "BridgeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
