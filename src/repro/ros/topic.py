"""Publisher and Subscriber: the topic layer.

The user-facing API mirrors roscpp/rospy:

- ``pub = nh.advertise(topic, MsgClass)`` then ``pub.publish(msg)``;
- ``nh.subscribe(topic, MsgClass, callback)`` and the callback receives
  the message object.

Internally the publisher keeps one outbound link (socket + bounded queue,
scheduled by the shared reactor) per connected subscriber; the subscriber
keeps one inbound link per discovered publisher.  No link owns a thread.
Payload encoding happens **once per publish** regardless of fan-out, and
the payload's release hook (the SFM buffer pointer) fires only after
every link has sent or dropped it -- reproducing the reference counting
of the paper's Fig. 8.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
import xmlrpc.client
from collections import deque
from typing import Callable, Optional

from repro.obs import instrument as obs_instrument
from repro.obs import trace as obs_trace
from repro.obs.metrics import global_registry as obs_registry
from repro.obs.trace import tracer
from repro.ros import reactor as reactor_mod
from repro.ros.codecs import codec_for_class, type_info_for_class
from repro.ros.exceptions import TopicTypeMismatch
from repro.ros.retry import CancellableTimer, DEFAULT_LINK_RETRY, RetryState
from repro.ros.transport import shm, tcpros, tzc
from repro.ros.transport.intraprocess import local_bus
from repro.sfm.manager import MessageState


class _DrainDecoder:
    """Outbound data sockets are one-way after the handshake: inbound
    bytes are discarded, only EOF/reset (surfaced by the reactor's read)
    matters."""

    __slots__ = ()

    def feed(self, data) -> list:
        return []


class _Outgoing:
    """One encoded payload shared by all links; releases the codec's
    payload hook when every link is done with it.

    ``trace_id``/``pub_ns`` are the message's observability identity:
    zero when untraced, otherwise carried on the wire by traced links so
    the subscriber can stamp receive-side spans and the latency
    histogram against the publish instant.
    """

    __slots__ = ("payload", "trace_id", "pub_ns", "tzc_parts", "_remaining",
                 "_release", "_lock")

    def __init__(self, payload, fanout: int, release,
                 trace_id: int = 0, pub_ns: int = 0) -> None:
        self.payload = payload
        self.trace_id = trace_id
        self.pub_ns = pub_ns
        #: Precomputed TZC split (control + bulk iovecs), set once per
        #: publish when any link negotiated TZC framing, so the split --
        #: like the encode -- happens once regardless of fan-out.
        self.tzc_parts = None
        self._remaining = fanout
        self._release = release
        self._lock = threading.Lock()

    def done(self) -> None:
        with self._lock:
            self._remaining -= 1
            finished = self._remaining == 0
        if finished and self._release is not None:
            self._release()


class _OutboundLink:
    """Publisher-side connection to one subscriber."""

    is_shm = False

    def __init__(
        self, publisher: "Publisher", sock, subscriber_id: str,
        traced: bool = False, tzc_mode: bool = False,
    ) -> None:
        self.publisher = publisher
        self.sock = sock
        self.subscriber_id = subscriber_id
        #: Both ends negotiated ``trace=1``: every frame carries the
        #: 16-byte observability prefix (zeros for untraced messages).
        self.traced = traced
        #: Both ends negotiated ``tzc=1``: messages travel as a compact
        #: control frame plus a bulk frame of arena-sliced iovecs instead
        #: of one monolithic payload frame (partial serialization).
        self.tzc = tzc_mode
        self._queue: deque[_Outgoing] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self.dropped = 0
        self.sent_count = 0
        self.sent_bytes = 0
        self._ka_timer = None
        self._pump_scheduled = False
        # EOF detection, sends and keepalives all ride the shared loop:
        # this link owns zero threads.  The subscriber never speaks on a
        # TCPROS data socket after the handshake, so the only read event
        # that matters is EOF/reset -- a vanished subscriber is detected
        # without waiting for the next send to fail.
        loop = reactor_mod.global_reactor()
        self._loop = loop
        self._last_activity = time.monotonic()
        self._rlink = reactor_mod.StreamLink(
            sock,
            _DrainDecoder(),
            on_events=lambda events: None,
            on_error=lambda exc: self._shutdown_from_error(),
            reactor=loop,
            label=f"pub:{publisher.topic}->{subscriber_id}",
        )
        self._rlink.start()
        keepalive = getattr(publisher.node, "link_keepalive", 2.0)
        if keepalive:
            self._ka_timer = loop.call_later(
                keepalive, self._keepalive_tick
            )

    def enqueue(self, outgoing: _Outgoing) -> None:
        schedule = False
        with self._lock:
            if self._closed:
                outgoing.done()
                return
            if (
                self.publisher.queue_size
                and len(self._queue) >= self.publisher.queue_size
            ):
                oldest = self._queue.popleft()
                oldest.done()
                self.dropped += 1
                self.publisher.dropped_count += 1
            self._queue.append(outgoing)
            if not self._pump_scheduled:
                self._pump_scheduled = True
                schedule = True
        if schedule:
            self._loop.call_soon(self._pump)

    def _depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- unified Link protocol -----------------------------------------
    @property
    def link_state(self) -> str:
        return "dead" if self._closed else "healthy"

    def fileno(self) -> int:
        try:
            return self.sock.fileno()
        except (OSError, ValueError, AttributeError):
            return -1

    def on_readable(self) -> None:
        self._rlink.on_readable()

    def on_writable(self) -> None:
        self._rlink.on_writable()

    def stats(self) -> dict:
        return {
            "transport": "TZC" if self.tzc else "TCPROS",
            "subscriber": self.subscriber_id,
            "sent": self.sent_count,
            "bytes": self.sent_bytes,
            "dropped": self.dropped,
            "queue_depth": self._depth(),
            "traced": self.traced,
            "link_state": self.link_state,
        }

    # -- send path -------------------------------------------------------
    def _pump(self) -> None:
        """Drain the queue onto the reactor link's write buffer (loop
        thread).  Everything already queued, up to the frame and byte
        watermarks, goes out as one vectored write; a lone publish
        flushes immediately, so latency is never traded for throughput.
        Completion (``_Outgoing.done``) fires from the flush callback so
        SFM payloads stay alive until their bytes leave the process."""
        with self._lock:
            self._pump_scheduled = False
        while True:
            batch: list[_Outgoing] = []
            with self._lock:
                nbytes = 0
                while (
                    self._queue
                    and len(batch) < tcpros.BATCH_MAX_FRAMES
                    and nbytes <= tcpros.BATCH_MAX_BYTES
                ):
                    outgoing = self._queue.popleft()
                    batch.append(outgoing)
                    nbytes += len(outgoing.payload)
            if not batch:
                return
            traced = self.traced
            if self.tzc:
                parts = tzc.split_batch_parts(
                    [(out.tzc_parts or self.publisher._tzc_split(out.payload),
                      out.trace_id, out.pub_ns)
                     for out in batch],
                    traced=traced,
                )
            elif traced:
                parts = tcpros.traced_frame_parts(
                    [(out.payload, out.trace_id, out.pub_ns)
                     for out in batch]
                )
            else:
                parts = tcpros.frame_parts([out.payload for out in batch])
            start_ns = (
                time.monotonic_ns()
                if traced and any(out.trace_id for out in batch)
                else 0
            )
            self._last_activity = time.monotonic()
            self._rlink.write(
                parts,
                on_flushed=lambda batch=batch, start_ns=start_ns:
                    self._batch_flushed(batch, start_ns),
            )

    def _batch_flushed(self, batch: list, start_ns: int) -> None:
        end_ns = time.monotonic_ns() if start_ns else 0
        transport_label = "TZC" if self.tzc else "TCPROS"
        closed = self._closed
        for out in batch:
            size = len(out.payload)
            if not closed:
                if self.traced and out.trace_id:
                    tracer.record(
                        "send", out.trace_id, start_ns, end_ns,
                        topic=self.publisher.topic,
                        transport=transport_label, bytes=size,
                    )
                self.sent_count += 1
                self.sent_bytes += size
            out.done()

    def _keepalive_tick(self) -> None:
        if self._closed:
            return
        keepalive = getattr(self.publisher.node, "link_keepalive", 2.0)
        if not keepalive:
            return
        idle_for = time.monotonic() - self._last_activity
        if idle_for >= keepalive and not self._depth() \
                and not self._rlink._pending_write():
            self._rlink.write([tcpros.KEEPALIVE_FRAME])
            self._last_activity = time.monotonic()
        self._ka_timer = self._loop.call_later(
            keepalive, self._keepalive_tick
        )

    def _shutdown_from_error(self) -> None:
        self.close()
        self.publisher._remove_link(self)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._queue)
            self._queue.clear()
        for outgoing in pending:
            outgoing.done()
        if self._ka_timer is not None:
            self._ka_timer.cancel()
        self._rlink.close()


class _ShmOutboundLink:
    """Publisher-side SHMROS connection to one subscriber.

    The socket that carried the handshake becomes the *doorbell*: the
    pump writes tiny control frames (slot notifications, ring reseg
    notices, or inline payloads when shared memory cannot serve), and
    the slot acknowledgements decoded off the same socket let ring slots
    be reused.  Queue overflow drops the oldest droppable entry and
    releases its slot -- the same slow-subscriber policy as
    ``_OutboundLink``.
    """

    is_shm = True

    def __init__(
        self, publisher: "Publisher", sock, subscriber_id: str, ring=None
    ) -> None:
        self.publisher = publisher
        self.sock = sock
        self.subscriber_id = subscriber_id
        #: The ring this link's subscriber is currently attached to; when
        #: the publisher grows the ring, a reseg notice is queued before
        #: the first slot frame of the new ring (per-link frame order).
        self.ring = ring if ring is not None else publisher._shm_ring
        self._queue: deque[tuple] = deque()
        #: Non-reseg entries in ``_queue``, maintained incrementally so
        #: the bound check in ``_enqueue`` is O(1) per publish instead of
        #: a scan of the (possibly deep) backlog.
        self._droppable = 0
        self._lock = threading.Lock()
        self._closed = False
        self.dropped = 0
        self.sent_count = 0
        self.sent_bytes = 0
        self._ka_timer = None
        self._pump_scheduled = False
        # The doorbell socket's acks are decoded on the shared loop;
        # sends and keepalives ride its write buffer.
        loop = reactor_mod.global_reactor()
        self._loop = loop
        self._last_activity = time.monotonic()
        self._rlink = reactor_mod.StreamLink(
            sock,
            shm.DoorbellDecoder(),
            on_events=self._on_ack_events,
            on_error=lambda exc: self._shutdown_from_error(),
            reactor=loop,
            label=f"shmpub:{publisher.topic}->{subscriber_id}",
        )
        self._rlink.start()
        keepalive = getattr(publisher.node, "link_keepalive", 2.0)
        if keepalive:
            self._ka_timer = loop.call_later(
                keepalive, self._keepalive_tick
            )

    def _on_ack_events(self, events: list) -> None:
        for frame in events:
            if frame[0] == "ack":
                _kind, slot, seq = frame
                self.publisher._shm_ack(slot, seq, self)

    # ------------------------------------------------------------------
    # Enqueueing (publisher thread)
    # ------------------------------------------------------------------
    def enqueue(self, outgoing: _Outgoing) -> None:
        """Inline fallback (and latched replay): the payload itself rides
        the doorbell socket, TCPROS-framed inside a control frame."""
        self._enqueue(("inline", outgoing))

    def enqueue_slot(
        self, ring, slot: int, seq: int, size: int,
        trace_id: int = 0, pub_ns: int = 0,
    ) -> None:
        self._enqueue(("slot", ring, slot, seq, size, trace_id, pub_ns))

    def enqueue_reseg(self, ring) -> None:
        self._enqueue(("reseg", ring))

    def _enqueue(self, item: tuple) -> None:
        with self._lock:
            if self._closed:
                self._discard(item)
                return
            queue_size = self.publisher.queue_size
            if (
                queue_size
                and item[0] != "reseg"
                and self._droppable >= queue_size
            ):
                # Drop the oldest droppable entry; reseg notices are
                # control-plane and must never be dropped.
                for index, candidate in enumerate(self._queue):
                    if candidate[0] != "reseg":
                        del self._queue[index]
                        self._droppable -= 1
                        self._discard(candidate)
                        self.dropped += 1
                        self.publisher.dropped_count += 1
                        break
            self._queue.append(item)
            if item[0] != "reseg":
                self._droppable += 1
            schedule = not self._pump_scheduled
            if schedule:
                self._pump_scheduled = True
        if schedule:
            self._loop.call_soon(self._pump)

    def _depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- unified Link protocol -----------------------------------------
    @property
    def link_state(self) -> str:
        return "dead" if self._closed else "healthy"

    def fileno(self) -> int:
        try:
            return self.sock.fileno()
        except (OSError, ValueError, AttributeError):
            return -1

    def on_readable(self) -> None:
        self._rlink.on_readable()

    def on_writable(self) -> None:
        self._rlink.on_writable()

    def stats(self) -> dict:
        return {
            "transport": "SHMROS",
            "subscriber": self.subscriber_id,
            "sent": self.sent_count,
            "bytes": self.sent_bytes,
            "dropped": self.dropped,
            "queue_depth": self._depth(),
            "link_state": self.link_state,
        }

    # -- send path -------------------------------------------------------
    def _pump(self) -> None:
        """Drain the doorbell queue onto the reactor link (loop thread).
        Every slot announcement is a 37-byte control frame, so a burst of
        small publishes is syscall-bound on the doorbell: the drained
        queue goes out as one vectored write, while a lone publish still
        flushes immediately (zero time watermark).  Inline payload
        release fires from the flush callback."""
        with self._lock:
            self._pump_scheduled = False
        while True:
            batch: list[tuple] = []
            with self._lock:
                nbytes = 0
                while (
                    self._queue
                    and len(batch) < tcpros.BATCH_MAX_FRAMES
                    and nbytes <= tcpros.BATCH_MAX_BYTES
                ):
                    item = self._queue.popleft()
                    if item[0] != "reseg":
                        self._droppable -= 1
                    batch.append(item)
                    if item[0] == "inline":
                        nbytes += len(item[1].payload)
            if not batch:
                return
            frames, any_trace = self._batch_frames(batch)
            start_ns = time.monotonic_ns() if any_trace else 0
            parts = shm.frames_to_parts(self.sock, frames)
            self._last_activity = time.monotonic()
            flush = (
                lambda batch=batch, start_ns=start_ns:
                    self._batch_flushed(batch, start_ns)
            )
            if parts:
                self._rlink.write(parts, on_flushed=flush)
            else:
                # The chaos gate swallowed every frame: the payloads are
                # still spent.
                flush()

    def _batch_frames(self, batch: list) -> tuple[list, bool]:
        frames: list[tuple] = []
        any_trace = False
        for item in batch:
            if item[0] == "slot":
                _kind, _ring, slot, seq, size, trace_id, pub_ns = item
                frames.append(("slot", slot, seq, size, trace_id, pub_ns))
                any_trace = any_trace or bool(trace_id)
            elif item[0] == "inline":
                outgoing = item[1]
                frames.append((
                    "inline", outgoing.payload, outgoing.trace_id,
                    outgoing.pub_ns,
                ))
                any_trace = any_trace or bool(outgoing.trace_id)
            else:  # reseg
                ring = item[1]
                frames.append((
                    "reseg", ring.name, ring.slot_count, ring.slot_bytes
                ))
        return frames, any_trace

    def _batch_flushed(self, batch: list, start_ns: int) -> None:
        end_ns = time.monotonic_ns() if start_ns else 0
        closed = self._closed
        for item in batch:
            if item[0] == "slot":
                _kind, _ring, slot, seq, size, trace_id, pub_ns = item
                if closed:
                    continue
                if trace_id:
                    tracer.record(
                        "send", trace_id, start_ns, end_ns,
                        topic=self.publisher.topic, transport="SHMROS",
                        bytes=size,
                    )
                self.sent_count += 1
                self.sent_bytes += size
            elif item[0] == "inline":
                outgoing = item[1]
                size = len(outgoing.payload)
                if not closed:
                    if outgoing.trace_id:
                        tracer.record(
                            "send", outgoing.trace_id, start_ns, end_ns,
                            topic=self.publisher.topic,
                            transport="SHMROS-inline", bytes=size,
                        )
                    self.sent_count += 1
                    self.sent_bytes += size
                outgoing.done()

    def _keepalive_tick(self) -> None:
        if self._closed:
            return
        keepalive = getattr(self.publisher.node, "link_keepalive", 2.0)
        if not keepalive:
            return
        idle_for = time.monotonic() - self._last_activity
        if idle_for >= keepalive and not self._depth() \
                and not self._rlink._pending_write():
            parts = shm.frames_to_parts(self.sock, [("keepalive",)])
            if parts:
                self._rlink.write(parts)
            self._last_activity = time.monotonic()
        self._ka_timer = self._loop.call_later(
            keepalive, self._keepalive_tick
        )

    def _discard(self, item: tuple) -> None:
        """Release whatever the queued entry was holding."""
        if item[0] == "slot":
            ring, slot, seq = item[1], item[2], item[3]
            ring.release(slot, seq, self)
        elif item[0] == "inline":
            item[1].done()

    def _note_reclaimed(self) -> None:
        """The ring forcibly reclaimed a slot this subscriber had not yet
        acknowledged (ring full, subscriber too slow)."""
        self.dropped += 1
        self.publisher.dropped_count += 1

    def _shutdown_from_error(self) -> None:
        self.close()
        self.publisher._remove_link(self)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._queue)
            self._queue.clear()
            self._droppable = 0
        for item in pending:
            self._discard(item)
        self.publisher._shm_drop_reader(self)
        if self._ka_timer is not None:
            self._ka_timer.cancel()
        self._rlink.close()


class Publisher:
    """A handle for publishing messages on one topic."""

    def __init__(
        self,
        node,
        topic: str,
        msg_class: type,
        queue_size: int = 100,
        intraprocess: bool = False,
        latch: bool = False,
        shm_slots: Optional[int] = None,
        shm_slot_bytes: Optional[int] = None,
    ) -> None:
        self.node = node
        self.topic = topic
        self.msg_class = msg_class
        self.queue_size = queue_size
        self.intraprocess = intraprocess
        self.latch = latch
        self.codec = codec_for_class(msg_class)
        self.type_name, self.md5sum = type_info_for_class(msg_class)
        self._links: list[_OutboundLink] = []
        self._links_lock = threading.Lock()
        self._link_event = threading.Event()
        #: Last published payload, kept when latching so late subscribers
        #: receive it on connect (map_server-style semantics).
        self._latched_payload: bytes | None = None
        self.published_count = 0
        self.bytes_published = 0
        #: Lifetime deliveries dropped on this topic (queue overflow and
        #: forced slot reclaims), kept here so the total survives link
        #: disconnects.
        self.dropped_count = 0
        # --- SHMROS state -------------------------------------------------
        self._shm_enabled = (
            getattr(node, "shmros", True)
            and shm.shm_available()
            and not shm.env_disabled()
        )
        self._shm_slots = shm_slots or shm.DEFAULT_SLOT_COUNT
        self._shm_slot_bytes = shm_slot_bytes or shm.DEFAULT_SLOT_BYTES
        self._shm_lock = threading.Lock()
        self._shm_ring: Optional[shm.ShmRingWriter] = None
        #: Rings superseded by a reseg, kept mapped until their in-flight
        #: slots are acknowledged.
        self._shm_retired: list[shm.ShmRingWriter] = []
        self._shm_seq = itertools.count(1).__next__
        if intraprocess:
            local_bus.register_publisher(self)
        obs_instrument.track_publisher(self)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, msg) -> None:
        """Publish ``msg`` to every connected subscriber.

        For plain classes this runs the generated serializer; for SFM
        classes it takes a buffer pointer (no serialization) -- the same
        call site either way, which is the transparency the paper claims.
        """
        self.published_count += 1
        if self.intraprocess:
            local_bus.deliver(self, msg)
        with self._links_lock:
            links = list(self._links)
        if not links and not self.latch:
            return
        # Observability identity: a trace id when a trace window is open
        # (one attribute check otherwise) and the publish instant, read
        # only when someone will consume it -- traced links forward it
        # for the publish-to-callback latency histogram.
        trace_id = tracer.new_trace_id()
        pub_ns = (
            time.monotonic_ns() if (trace_id or obs_registry.enabled) else 0
        )
        payload, release = self.codec.encode(msg)
        self.bytes_published += len(payload)
        if self.latch:
            # Keep a private copy: the original payload (e.g. an SFM
            # buffer) is released once every link has sent it.  Already-
            # immutable bytes need no defensive copy.
            self._latched_payload = (
                payload if isinstance(payload, bytes) else bytes(payload)
            )
        if not links:
            if release is not None:
                release()
            return
        shm_links = [link for link in links if link.is_shm]
        tcp_links = [link for link in links if not link.is_shm]
        # Slab-backed SFM records carry delta bookkeeping (dirty floor /
        # clean owner): the ring write can then skip re-copying the
        # byte-stable prefix of a republished grown message.
        record = (
            getattr(msg, "_record", None)
            if self.codec.format_name == "sfm"
            else None
        )
        ticket = (
            self._shm_write(payload, shm_links, record)
            if shm_links else None
        )
        # The payload is referenced once per TCP link plus once for the
        # whole shared-memory fan-out: the ring write above already copied
        # the bytes into the slot shared by every SHM subscriber.
        fanout = len(tcp_links) + (
            1 if ticket is not None else len(shm_links)
        )
        outgoing = _Outgoing(payload, fanout, release, trace_id, pub_ns)
        if any(getattr(link, "tzc", False) for link in tcp_links):
            # Split once here (like the encode) so every TZC link in the
            # fan-out shares the same control segment and bulk iovecs.
            outgoing.tzc_parts = self._tzc_split(payload)
        if shm_links:
            if ticket is not None:
                ring, slot, seq, size = ticket
                for link in shm_links:
                    if link.ring is not ring:
                        link.enqueue_reseg(ring)
                        link.ring = ring
                    link.enqueue_slot(ring, slot, seq, size, trace_id, pub_ns)
                outgoing.done()  # the SHM fan-out's shared reference
            else:
                # Shared memory unavailable (or the write failed): the
                # payload travels inline over each doorbell socket.
                for link in shm_links:
                    link.enqueue(outgoing)
        for link in tcp_links:
            link.enqueue(outgoing)
        if trace_id:
            tracer.record(
                "publish", trace_id, pub_ns, time.monotonic_ns(),
                topic=self.topic, bytes=len(payload), fanout=len(links),
            )

    # ------------------------------------------------------------------
    # Connection management (called by the node's data server)
    # ------------------------------------------------------------------
    def _accept(self, sock, header: dict[str, str]) -> None:
        error = self._validate_header(header)
        if error:
            tcpros.reject_connection(sock, error)
            return
        reply = {
            "callerid": self.node.name,
            "topic": self.topic,
            "type": self.type_name,
            "md5sum": self.md5sum,
            "format": self.codec.format_name,
            "latching": "1" if self.latch else "0",
        }
        # The subscriber *requests* shared memory with ``shmros=1``; the
        # reply grants it by naming the segment.  If the ring cannot be
        # served the reply omits the fields and the connection degrades to
        # plain TCPROS on the same socket -- fallback without a round trip.
        ring = self._ensure_shm_ring() if header.get("shmros") == "1" else None
        if ring is not None:
            reply["shm_segment"] = ring.name
            reply["shm_slots"] = str(ring.slot_count)
            reply["shm_slot_bytes"] = str(ring.slot_bytes)
        # Trace negotiation: the subscriber asks with ``trace=1``; the
        # confirmation commits this connection to the 16-byte framed
        # prefix.  SHMROS doorbell frames carry the fields natively, so
        # only the plain-TCPROS link changes its framing.
        traced = header.get("trace") == "1" and obs_trace.wire_enabled()
        if traced:
            reply["trace"] = "1"
        # TZC negotiation: only meaningful for remote (non-SHM) SFM links
        # -- a subscriber that got a ring never sees payload frames, and a
        # non-SFM codec has no skeleton to split on.  The ``format``
        # header field is untouched, so either side lacking the code
        # falls back to classic framing automatically.
        grant_tzc = (
            ring is None
            and header.get("tzc") == "1"
            and self.codec.format_name == "sfm"
            and tzc.tzc_enabled()
        )
        if grant_tzc:
            reply["tzc"] = "1"
        try:
            tcpros.write_frame(sock, tcpros.encode_header(reply))
        except OSError:
            sock.close()
            return
        if ring is not None:
            link = _ShmOutboundLink(
                self, sock, header.get("callerid", "?"), ring=ring
            )
        else:
            link = _OutboundLink(
                self, sock, header.get("callerid", "?"), traced=traced,
                tzc_mode=grant_tzc,
            )
        # Reconnect dedupe: a handshake carrying the same (callerid,
        # link_instance) as a live link is the *same subscription*
        # re-dialing -- typically a watchdog replay against a master that
        # never lost this registration.  The fresh socket replaces the
        # old one instead of double-streaming every message.  Clients
        # that omit ``link_instance`` (bridges, old peers) keep the old
        # accept-everything behaviour.
        instance = header.get("link_instance", "")
        link.link_key = (
            (header.get("callerid", "?"), instance) if instance else None
        )
        stale: list = []
        with self._links_lock:
            if link.link_key is not None:
                stale = [
                    existing for existing in self._links
                    if getattr(existing, "link_key", None) == link.link_key
                ]
                for existing in stale:
                    self._links.remove(existing)
            self._links.append(link)
            latched = self._latched_payload
        for existing in stale:
            existing.close()
        if latched is not None:
            link.enqueue(_Outgoing(latched, 1, None))
        self._link_event.set()

    def _validate_header(self, header: dict[str, str]) -> Optional[str]:
        if header.get("topic") != self.topic:
            return f"topic mismatch: {header.get('topic')} != {self.topic}"
        their_type = header.get("type")
        if their_type not in ("*", self.type_name):
            return f"type mismatch: {their_type} != {self.type_name}"
        their_md5 = header.get("md5sum")
        if their_md5 not in ("*", self.md5sum):
            return f"md5sum mismatch for {self.type_name}"
        their_format = header.get("format", "ros")
        if their_format != self.codec.format_name:
            return (
                f"wire format mismatch: subscriber expects {their_format}, "
                f"publisher sends {self.codec.format_name}"
            )
        return None

    def _remove_link(self, link) -> None:
        with self._links_lock:
            if link in self._links:
                self._links.remove(link)

    # ------------------------------------------------------------------
    # SHMROS ring management
    # ------------------------------------------------------------------
    def _offer_shm(self, peer_machine: str) -> Optional[shm.ShmRingWriter]:
        """Transport negotiation: a ring to advertise in ``requestTopic``,
        or None when SHMROS cannot serve this subscriber (different
        machine, disabled, or segment creation failure)."""
        if not self._shm_enabled or peer_machine != shm.machine_id():
            return None
        return self._ensure_shm_ring()

    def _ensure_shm_ring(self) -> Optional[shm.ShmRingWriter]:
        if not self._shm_enabled:
            return None
        with self._shm_lock:
            if self._shm_ring is None:
                try:
                    self._shm_ring = shm.ShmRingWriter(
                        slot_count=self._shm_slots,
                        slot_bytes=self._shm_slot_bytes,
                        seq_source=self._shm_seq,
                        on_reclaim=lambda link: link._note_reclaimed(),
                    )
                except (OSError, shm.ShmTransportError):
                    # No shared memory on this host: disable for good so
                    # every future subscriber negotiates plain TCPROS.
                    self._shm_enabled = False
                    return None
            return self._shm_ring

    def _tzc_split(self, payload) -> "tzc.TzcParts":
        """Split an encoded SFM payload into control + bulk iovecs."""
        return tzc.split_message(
            self.codec.msg_class._layout, payload, len(payload)
        )

    def _shm_write(self, payload, readers, record=None) -> Optional[tuple]:
        """Copy ``payload`` once into a ring slot shared by all SHM
        subscribers; returns ``(ring, slot, seq, size)`` or None when the
        payload must travel inline instead.

        ``record`` (a slab-backed SFM record, when the publisher knows
        it) unlocks the sticky-slot delta path: a republish of the same
        record reuses its previous slot and copies only the skeleton plus
        the bytes written since the last publish.  The delta is sound
        because the record's size is monotonic under growth, in-class
        slab growth never moves bytes, and a promotion copies the prefix
        byte-identically -- so ``[skeleton_size, dirty_floor)`` is
        byte-stable since ``mark_clean`` unless an untracked write
        capability escaped (``record.delta_unsafe``)."""
        with self._shm_lock:
            ring = self._shm_ring
            if ring is None:
                return None
            if len(payload) > ring.slot_bytes:
                try:
                    grown = shm.ShmRingWriter(
                        slot_count=ring.slot_count,
                        slot_bytes=shm.next_slot_bytes(
                            ring.slot_bytes, len(payload)
                        ),
                        seq_source=self._shm_seq,
                        on_reclaim=lambda link: link._note_reclaimed(),
                    )
                except (OSError, shm.ShmTransportError):
                    return None
                self._shm_retired.append(ring)
                self._shm_ring = ring = grown
            try:
                if record is not None and record.slab is not None:
                    key = record._extra.get("sticky")
                    if key is None:
                        key = record._extra["sticky"] = object()
                    prefix = record.skeleton_size
                    stable = (
                        prefix
                        if (record.delta_unsafe
                            or record.clean_owner is not self)
                        else record.dirty_floor
                    )
                    written = ring.write_update(
                        payload, readers, key, prefix, stable
                    )
                    if written is not None:
                        record.mark_clean(self)
                else:
                    written = ring.write(payload, readers)
            except shm.ShmTransportError:
                return None
            # A full ring (every slot awaiting acks) degrades to inline
            # delivery: backlog depth stays governed by queue_size and no
            # in-flight slot is yanked from under a reader.
            return None if written is None else (ring,) + written

    def _shm_ack(self, slot: int, seq: int, link) -> None:
        """Route a subscriber acknowledgement to the owning ring (the
        sequence counter is shared across rings, so a (slot, seq) pair is
        unambiguous even across a reseg)."""
        with self._shm_lock:
            rings = (
                [self._shm_ring] if self._shm_ring is not None else []
            ) + self._shm_retired
        for ring in rings:
            if ring.release(slot, seq, link):
                break
        self._gc_retired_rings()

    def _shm_drop_reader(self, link) -> None:
        with self._shm_lock:
            rings = (
                [self._shm_ring] if self._shm_ring is not None else []
            ) + self._shm_retired
        for ring in rings:
            ring.drop_reader(link)
        self._gc_retired_rings()

    def _gc_retired_rings(self) -> None:
        """Unmap superseded rings once their last slot is acknowledged."""
        with self._shm_lock:
            drained = [ring for ring in self._shm_retired if ring.idle()]
            self._shm_retired = [
                ring for ring in self._shm_retired if not ring.idle()
            ]
        for ring in drained:
            ring.close()

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    def get_num_connections(self) -> int:
        """Number of connected subscriber links."""
        with self._links_lock:
            return len(self._links)

    def links(self) -> list:
        """Live outbound links, each speaking the unified Link protocol
        (``fileno``/``stats``/``link_state``/``close``) regardless of
        transport -- the supported replacement for poking per-transport
        attributes."""
        with self._links_lock:
            return list(self._links)

    def stats(self) -> dict:
        """A point-in-time counter snapshot (the observability layer's
        public window onto this publisher)."""
        with self._links_lock:
            links = list(self._links)
        return {
            "topic": self.topic,
            "type": self.type_name,
            "format": self.codec.format_name,
            "messages": self.published_count,
            "bytes": self.bytes_published,
            "drops": self.dropped_count,
            "connections": len(links),
            "queue_depth": sum(link._depth() for link in links),
            "latched": self.latch,
            # A publisher heals passively (subscribers redial it); its
            # link health therefore mirrors the node's master link.
            "link_state": getattr(self.node, "master_state", "healthy"),
        }

    def wait_for_subscribers(self, count: int = 1, timeout: float = 10.0) -> bool:
        """Block until at least ``count`` subscribers are connected."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.get_num_connections() >= count:
                return True
            self._link_event.clear()
            self._link_event.wait(timeout=0.05)
        return self.get_num_connections() >= count

    def unadvertise(self) -> None:
        """Close every link and unregister from the master."""
        if self.intraprocess:
            local_bus.unregister_publisher(self)
        with self._links_lock:
            links = list(self._links)
            self._links.clear()
        for link in links:
            link.close()
        with self._shm_lock:
            rings = (
                [self._shm_ring] if self._shm_ring is not None else []
            ) + self._shm_retired
            self._shm_ring = None
            self._shm_retired = []
        for ring in rings:
            ring.close()
        self.node._unadvertise(self)

    def __enter__(self) -> "Publisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unadvertise()


class _InboundLink:
    """Subscriber-side connection to one publisher.

    Transport preference: SHMROS when both ends share a machine and allow
    it, TCPROS otherwise.  Fallback is transparent at two levels -- the
    publisher can decline shared memory in the handshake reply (the same
    socket then carries plain TCPROS frames), and a subscriber-side
    attach failure reconnects with SHMROS off.
    """

    def __init__(
        self,
        subscriber: "Subscriber",
        publisher_uri: str,
        allow_shm: Optional[bool] = None,
        downgraded: bool = False,
        planned_reason: str = "",
    ) -> None:
        self.subscriber = subscriber
        self.publisher_uri = publisher_uri
        self.sock = None
        self.error: Optional[Exception] = None
        #: "SHMROS" or "TCPROS" once connected (None before/after).
        self.transport: Optional[str] = None
        #: The retry scheduler forced this link off shared memory
        #: (SHM -> TCPROS downgrade); surfaces as ``link_state=degraded``.
        self.downgraded = downgraded
        #: Why the transport planner dialed this link the way it did
        #: ("" for links the planner did not touch).  A planned flip is a
        #: *choice*, not a failure, so it never marks the link degraded.
        self.planned_reason = planned_reason
        #: None: decide from node/env.  False: the reconnect path already
        #: burned its SHM attempts for this publisher.
        self._allow_shm = allow_shm
        #: The publisher confirmed ``trace=1``: frames carry the
        #: observability prefix.
        self.traced = False
        #: The publisher confirmed ``tzc=1``: messages arrive as a
        #: control + bulk frame pair (partial serialization).  Reported
        #: as transport "TCPROS" -- the planner's ladder reasons about
        #: SHMROS vs TCPROS, and TZC is a framing of the latter.
        self.tzc = False
        #: Slot notifications skipped because the publisher had already
        #: reclaimed the slot by the time this subscriber got to it.
        self.stale_drops = 0
        self._closed = False
        self._rlink = None
        self._serial = None
        self._shm_reader = None
        self._finalized = False
        self._finalize_lock = threading.Lock()
        # The (legitimately blocking) dial + handshake rides a transient
        # spawn; once connected the socket joins the shared loop and this
        # link owns zero threads.
        reactor_mod.global_reactor().spawn_blocking(
            self._dial,
            name=f"sub-dial:{subscriber.topic}<-{publisher_uri}",
        )

    def _dial(self) -> None:
        """The connect phase on a transient spawn: negotiate, register
        the socket with the reactor, exit.  Streaming errors arrive later
        through :meth:`_stream_error`; this method only owns the dial."""
        subscriber = self.subscriber
        allow_shm = self._allow_shm
        if allow_shm is None:
            allow_shm = (
                getattr(subscriber.node, "shmros", True)
                and shm.shm_available()
                and not shm.env_disabled()
            )
        try:
            try:
                connected = self._connect(allow_shm)
            except shm.ShmAttachError:
                # The publisher granted a segment we cannot map (stale
                # name, exhausted /dev/shm, ...): renegotiate pure TCPROS
                # while still on the blocking spawn.
                connected = False
                if not self._closed:
                    self._reset_socket()
                    connected = self._connect(False)
        except Exception as exc:
            self._stream_error(exc)
        else:
            if not connected or self._closed:
                # Publisher declined (requestTopic != 1) or we were
                # closed mid-dial: report the link closed.
                self._finalize()

    def _finalize(self) -> None:
        """Exactly-once teardown notification to the subscriber."""
        with self._finalize_lock:
            if self._finalized:
                return
            self._finalized = True
        self.close()
        self.subscriber._link_closed(self)

    def _stream_error(self, exc: Exception) -> None:
        """The dial failed, or streaming failed after registration
        (socket error, idle timeout, decode error, callback exception).
        A refusal by the publisher (type/md5/format mismatch) or a
        shared-memory failure is always recorded, so
        ``wait_for_publishers`` debugging can surface it; anything else
        only when unexpected -- an intentional close() tears the socket
        down under the dial or the reactor."""
        if not self._closed or isinstance(
            exc,
            (tcpros.ConnectionHandshakeError, TopicTypeMismatch,
             shm.ShmTransportError),
        ):
            self.error = exc
        self._finalize()

    def _negotiate(self, allow_shm: bool) -> Optional[dict]:
        """requestTopic + TCPROS handshake; returns the publisher's reply
        header (None when the publisher declined the topic) with
        ``self.sock``/``self.traced`` set."""
        subscriber = self.subscriber
        protocols = (
            [["SHMROS", shm.machine_id()], ["TCPROS"]]
            if allow_shm
            else [["TCPROS"]]
        )
        proxy = xmlrpc.client.ServerProxy(self.publisher_uri, allow_none=True)
        code, _status, protocol = proxy.requestTopic(
            subscriber.node.name, subscriber.topic, protocols
        )
        if code != 1 or not protocol or protocol[0] not in ("TCPROS", "SHMROS"):
            return None
        host, port = protocol[1], protocol[2]
        header = {
            "callerid": subscriber.node.name,
            "topic": subscriber.topic,
            "type": subscriber.type_name,
            "md5sum": subscriber.md5sum,
            "format": subscriber.codec.format_name,
            "tcp_nodelay": "1",
            "link_instance": subscriber.instance_id,
        }
        if protocol[0] == "SHMROS":
            header["shmros"] = "1"
        if obs_trace.wire_enabled():
            header["trace"] = "1"
        if subscriber.codec.format_name == "sfm" and tzc.tzc_enabled():
            # Capability, not a demand: the publisher only grants TZC
            # framing when this link ends up on plain TCP.
            header["tzc"] = "1"
        self.sock, reply = tcpros.connect_subscriber(host, port, header)
        their_format = reply.get("format", "ros")
        if their_format != subscriber.codec.format_name:
            raise TopicTypeMismatch(
                f"publisher sends {their_format}, expected "
                f"{subscriber.codec.format_name}"
            )
        self.traced = reply.get("trace") == "1"
        return reply

    def _connect(self, allow_shm: bool) -> bool:
        """Negotiate, pick the decoder for the granted transport, and
        register the data socket with the shared loop.  Returns False
        when the publisher declined the topic.  The ring attach happens
        here, still on the blocking spawn, so ``ShmAttachError`` reaches
        the caller's renegotiate-without-SHM path."""
        subscriber = self.subscriber
        reply = self._negotiate(allow_shm)
        if reply is None:
            return False
        loop = reactor_mod.global_reactor()
        self._serial = loop.serial_queue(on_error=self._stream_error)
        if reply.get("shm_segment"):
            self._shm_reader = shm.ShmRingReader(
                reply["shm_segment"],
                int(reply["shm_slots"]),
                int(reply["shm_slot_bytes"]),
            )
            self.transport = "SHMROS"
            decoder = shm.DoorbellDecoder()
            handler = self._handle_shm_events
        elif reply.get("tzc") == "1":
            self.transport = "TCPROS"
            self.tzc = True
            decoder = tzc.SplitDecoder(tzc.BulkBudget(), traced=self.traced)
            handler = self._handle_tzc_events
        else:
            self.transport = "TCPROS"
            decoder = reactor_mod.FrameDecoder(traced=self.traced)
            handler = self._handle_tcp_events
        # Half-open detection: publishers keepalive idle links, so total
        # silence past ``link_idle_timeout`` means the link is dead even
        # though the socket never errored.  The resulting ``timeout``
        # surfaces through the normal error path and triggers a retry.
        idle = getattr(subscriber.node, "link_idle_timeout", 15.0)
        self._rlink = reactor_mod.StreamLink(
            self.sock,
            decoder,
            on_events=lambda events, _h=handler: self._serial.push(
                lambda: _h(events)
            ),
            on_error=self._stream_error,
            reactor=loop,
            label=f"sub:{subscriber.topic}<-{self.publisher_uri}",
            idle_timeout=idle or 0.0,
        )
        subscriber._link_connected(self)
        self._rlink.start()
        return True

    # -- event handlers (run on the worker pool, serialized per link) ---
    def _handle_tcp_events(self, events: list) -> None:
        subscriber = self.subscriber
        for _kind, payload, trace_id, pub_ns in events:
            if self._closed:
                return
            if trace_id:
                tracer.record(
                    "recv", trace_id, pub_ns, time.monotonic_ns(),
                    topic=subscriber.topic, transport="TCPROS",
                    bytes=len(payload),
                )
            self._deliver_frame(payload, trace_id, pub_ns)

    def _handle_tzc_events(self, events: list) -> None:
        subscriber = self.subscriber
        for _kind, buffer, order, trace_id, pub_ns in events:
            if self._closed:
                return
            if trace_id:
                tracer.record(
                    "recv", trace_id, pub_ns, time.monotonic_ns(),
                    topic=subscriber.topic, transport="TZC",
                    bytes=len(buffer),
                )
            subscriber.received_bytes += len(buffer)
            if subscriber.raw:
                subscriber._dispatch(bytes(buffer), trace_id, pub_ns)
                continue
            if trace_id:
                start_ns = time.monotonic_ns()
                msg = subscriber.codec.decode_adopted(buffer, order)
                tracer.record(
                    "decode", trace_id, start_ns, time.monotonic_ns(),
                    topic=subscriber.topic,
                )
            else:
                msg = subscriber.codec.decode_adopted(buffer, order)
            subscriber._dispatch(msg, trace_id, pub_ns)

    def _handle_shm_events(self, events: list) -> None:
        subscriber = self.subscriber
        for frame in events:
            if self._closed:
                return
            kind = frame[0]
            if kind == "keepalive":
                continue
            if kind == "slot":
                _kind, slot, seq, size, trace_id, pub_ns = frame
                if trace_id:
                    tracer.record(
                        "recv", trace_id, pub_ns, time.monotonic_ns(),
                        topic=subscriber.topic, transport="SHMROS",
                        bytes=size,
                    )
                reader = self._shm_reader
                if reader is None or reader.slot_seq(slot) != seq:
                    # The publisher reclaimed the slot before we got
                    # here (we were too slow); it already counted the
                    # drop on its side.
                    self.stale_drops += 1
                    subscriber.stale_drops += 1
                    continue
                self._dispatch_slot(reader, slot, seq, size,
                                    trace_id, pub_ns)
            elif kind == "inline":
                _kind, payload, trace_id, pub_ns = frame
                if trace_id:
                    tracer.record(
                        "recv", trace_id, pub_ns, time.monotonic_ns(),
                        topic=subscriber.topic,
                        transport="SHMROS-inline", bytes=len(payload),
                    )
                self._deliver_frame(payload, trace_id, pub_ns)
            elif kind == "reseg":
                _kind, name, slot_count, slot_bytes = frame
                old = self._shm_reader
                # Attach the grown ring before dropping the old one; an
                # attach failure routes through the serial queue's
                # on_error like any other stream failure.
                self._shm_reader = shm.ShmRingReader(
                    name, slot_count, slot_bytes
                )
                if old is not None:
                    old.close()

    # -- Link protocol --------------------------------------------------
    @property
    def link_state(self) -> str:
        if self._closed or self.error is not None:
            return "dead"
        if self.transport is None:
            return "reconnecting"
        return "degraded" if self.downgraded else "healthy"

    def fileno(self) -> int:
        return -1 if self._rlink is None else self._rlink.fileno()

    def on_readable(self) -> None:
        if self._rlink is not None:
            self._rlink.on_readable()

    def on_writable(self) -> None:
        if self._rlink is not None:
            self._rlink.on_writable()

    def stats(self) -> dict:
        counters = self._rlink.stats() if self._rlink is not None else {}
        return {
            "transport": "TZC" if self.tzc else (self.transport or "-"),
            "publisher": self.publisher_uri,
            "stale_drops": self.stale_drops,
            "rx_bytes": counters.get("rx_bytes", 0),
            "traced": self.traced,
            "link_state": self.link_state,
        }

    def _reset_socket(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def _deliver_frame(self, frame, trace_id: int, pub_ns: int) -> None:
        """Decode (span-wrapped when traced) and dispatch one frame."""
        subscriber = self.subscriber
        subscriber.received_bytes += len(frame)
        if subscriber.raw:
            subscriber._dispatch(bytes(frame), trace_id, pub_ns)
            return
        if trace_id:
            start_ns = time.monotonic_ns()
            msg = subscriber.codec.decode(frame)
            tracer.record(
                "decode", trace_id, start_ns, time.monotonic_ns(),
                topic=subscriber.topic,
            )
        else:
            msg = subscriber.codec.decode(frame)
        subscriber._dispatch(msg, trace_id, pub_ns)

    def _dispatch_slot(
        self, reader, slot: int, seq: int, size: int,
        trace_id: int = 0, pub_ns: int = 0,
    ) -> None:
        """One zero-copy delivery: adopt the slot in place, run the
        callback, detach if the user kept the message, acknowledge."""
        subscriber = self.subscriber
        subscriber.received_bytes += size
        view = reader.payload_view(slot, size)
        if subscriber.raw:
            # Raw delivery must copy out of the slot: the bytes object is
            # the callback's to keep, the slot goes back to the publisher.
            try:
                subscriber._dispatch(bytes(view), trace_id, pub_ns)
            finally:
                del view
                self._rlink.write([shm.ack_bytes(slot, seq)])
            return
        if trace_id:
            start_ns = time.monotonic_ns()
            msg = subscriber.codec.decode_external(view)
            tracer.record(
                "decode", trace_id, start_ns, time.monotonic_ns(),
                topic=subscriber.topic,
            )
        else:
            msg = subscriber.codec.decode_external(view)
        # SFM messages borrow the slot memory itself; remember the record
        # so we can copy it out *after* the callback if it is still alive.
        record = getattr(msg, "_record", None)
        try:
            subscriber._dispatch(msg, trace_id, pub_ns)
        finally:
            del msg, view
            if (
                record is not None
                and record.external
                and record.state is not MessageState.DESTRUCTED
            ):
                # The callback kept a reference: detach it from the slot
                # so the publisher can reclaim the memory.
                record.materialize()
            self._rlink.write([shm.ack_bytes(slot, seq)])

    def close(self) -> None:
        self._closed = True
        rlink = self._rlink
        if rlink is not None:
            rlink.close()
        reader = self._shm_reader
        if reader is not None:
            self._shm_reader = None
            try:
                reader.close()
            except Exception:
                pass
        if self.sock is not None:
            tcpros.quiet_close(self.sock)
        if rlink is not None and not self._finalized:
            # Report the closure off-thread: callers may hold the
            # subscriber lock.
            reactor_mod.global_reactor().submit(self._finalize)


class Subscriber:
    """A subscription delivering messages to a callback."""

    def __init__(
        self,
        node,
        topic: str,
        msg_class: type,
        callback: Callable,
        intraprocess: bool = False,
        raw: bool = False,
    ) -> None:
        self.node = node
        self.topic = topic
        self.msg_class = msg_class
        self.callback = callback
        self.intraprocess = intraprocess
        #: Raw subscriptions hand the callback the undecoded payload bytes
        #: of every message (the exact frame that travelled the wire or
        #: shared-memory slot).  The handshake still negotiates type,
        #: md5sum and wire format from ``msg_class``, so a raw subscriber
        #: is type-checked without paying for decoding -- the gateway's
        #: forward-without-deserializing path.
        self.raw = raw
        self.codec = codec_for_class(msg_class)
        self.type_name, self.md5sum = type_info_for_class(msg_class)
        #: Unique identity of this Subscriber object, sent in the
        #: connection header as ``link_instance``.  The publisher uses
        #: (callerid, link_instance) to recognise a *reconnect of the
        #: same subscription* -- a watchdog replay against a master that
        #: never lost state re-dials existing links, and without this
        #: the publisher would stream every message twice.  Two distinct
        #: Subscriber objects on one topic in one node get different
        #: instances, so legitimate duplicates still work.
        self.instance_id = uuid.uuid4().hex[:16]
        self._links: dict[str, _InboundLink] = {}
        self._connected: set[_InboundLink] = set()
        #: Last connection failure per publisher URI (type/md5/format
        #: mismatches land here), for wait_for_publishers debugging.
        self.link_errors: dict[str, Exception] = {}
        self._lock = threading.Lock()
        self._connect_event = threading.Event()
        self.received_count = 0
        #: Payload bytes received over socket transports (SHM slots and
        #: TCPROS/inline frames).  Intra-process deliveries hand over the
        #: object itself, so they contribute no bytes here.  The transport
        #: planner divides this by ``received_count`` for the observed
        #: message size.
        self.received_bytes = 0
        #: Messages announced by a SHMROS doorbell whose slot had already
        #: been reclaimed by the time we looked (we were too slow).
        self.stale_drops = 0
        # --- self-healing state -------------------------------------------
        #: Publisher URIs the master currently lists for this topic.
        self._wanted: set[str] = set()
        #: Connected links the master stopped listing: a freshly
        #: restarted (amnesiac) master forgets live publishers, so a
        #: working data link is never closed on the master's say-so alone
        #: -- it is merely *suspect* until the socket itself dies.
        self._suspect: set[str] = set()
        self._retry: dict[str, RetryState] = {}
        self._timers: dict[str, CancellableTimer] = {}
        self._retry_policy = getattr(node, "link_retry", DEFAULT_LINK_RETRY)
        #: Lifetime reconnect attempts (the obs counter behind
        #: ``miniros_link_retries_total``).
        self.retries = 0
        #: Exhausted every transport for an in-process publisher and fell
        #: back to direct local-bus delivery (the ladder's last rung).
        self._intraprocess_fallback = False
        self._state = "healthy"
        self._state_history: deque[str] = deque(["healthy"], maxlen=64)
        self._latency = obs_instrument.latency_child(topic)
        self._shutdown = False
        if intraprocess:
            local_bus.register_subscriber(self)
        obs_instrument.track_subscriber(self)

    # ------------------------------------------------------------------
    # Publisher discovery
    # ------------------------------------------------------------------
    def update_publishers(self, publisher_uris: list[str]) -> None:
        """React to the master's current publisher list for the topic.

        A URI that disappears from the list is closed only if its link is
        not (yet) connected; a *connected* link is kept and marked
        suspect instead, because a master that just restarted with an
        empty registry reports publishers it merely forgot.  Truly dead
        links are reaped by socket errors and the idle timeout.
        """
        local_uris = (
            local_bus.local_publisher_uris(self.node.master_uri, self.topic)
            if self.intraprocess
            else set()
        )
        with self._lock:
            if self._shutdown:
                return
            known = set(self._links)
            wanted = {
                uri for uri in publisher_uris
                if uri != "" and uri not in local_uris
            }
            self._wanted = wanted
            self._suspect -= wanted
            for uri in wanted - known:
                self._retry.pop(uri, None)
                self._cancel_timer(uri)
                self._links[uri] = _InboundLink(self, uri)
            for uri in known - wanted:
                link = self._links[uri]
                if link in self._connected:
                    self._suspect.add(uri)
                    continue
                del self._links[uri]
                link.close()
            for uri in list(self._retry):
                if uri not in wanted:
                    self._retry.pop(uri)
                    self._cancel_timer(uri)
            self._refresh_state()

    def _link_connected(self, link: _InboundLink) -> None:
        with self._lock:
            self._connected.add(link)
            self._retry.pop(link.publisher_uri, None)
            self._refresh_state()
        self._connect_event.set()

    def _link_closed(self, link: _InboundLink) -> None:
        uri = link.publisher_uri
        with self._lock:
            self._connected.discard(link)
            was_current = self._links.get(uri) is link
            if was_current:
                del self._links[uri]
            self._suspect.discard(uri)
            if link.error is not None:
                self.link_errors[uri] = link.error
            if (
                not self._shutdown
                and was_current
                and uri in self._wanted
                and uri not in self._timers
            ):
                self._schedule_retry(uri, link)
            self._refresh_state()

    # ------------------------------------------------------------------
    # Per-link retry (self-healing)
    # ------------------------------------------------------------------
    def _schedule_retry(self, uri: str, link: _InboundLink) -> None:
        """Called under ``self._lock`` when a wanted link died."""
        state = self._retry.setdefault(uri, RetryState())
        state.attempts += 1
        if link.transport == "SHMROS":
            state.shm_failures += 1
        permanent = link.transport is None and isinstance(
            link.error, (tcpros.ConnectionHandshakeError, TopicTypeMismatch)
        )
        policy = self._retry_policy
        if permanent or policy.gives_up(state.attempts + 1, state.started):
            state.exhausted = True
            self._exhausted(uri)
            return
        self._timers[uri] = CancellableTimer(
            policy.delay(state.attempts), lambda: self._retry_connect(uri)
        )

    def _retry_connect(self, uri: str) -> None:
        with self._lock:
            self._timers.pop(uri, None)
            if self._shutdown or uri not in self._wanted or uri in self._links:
                return
            state = self._retry.get(uri)
            downgraded = (
                state is not None
                and not state.allow_shm(self._retry_policy)
            )
            self.retries += 1
            self._links[uri] = _InboundLink(
                self, uri,
                allow_shm=False if downgraded else None,
                downgraded=downgraded,
            )
            self._refresh_state()

    def _exhausted(self, uri: str) -> None:
        """Retry budget spent.  Last rung of the failover ladder: if the
        unreachable publisher lives in this very process, deliver through
        the local bus instead of a socket."""
        if self._intraprocess_fallback or self.intraprocess:
            return
        if uri in local_bus.local_publisher_uris(
            self.node.master_uri, self.topic
        ):
            self._intraprocess_fallback = True
            local_bus.register_subscriber(self)

    def _cancel_timer(self, uri: str) -> None:
        timer = self._timers.pop(uri, None)
        if timer is not None:
            timer.cancel()

    # ------------------------------------------------------------------
    # Transport planning
    # ------------------------------------------------------------------
    def set_transport_preference(
        self, uri: str, transport: str, reason: str = ""
    ) -> bool:
        """Re-dial the link to ``uri`` with the given transport ("SHMROS"
        or "TCPROS") -- the planner's flip primitive.

        The replacement link is installed *before* the old one is closed:
        ``_link_closed`` then sees the dying link is no longer current and
        schedules no retry, so a flip is one reconnect, not a reconnect
        plus a spurious self-heal.  Returns True when a flip was started.
        """
        if transport not in ("SHMROS", "TCPROS"):
            raise ValueError(f"unknown transport {transport!r}")
        with self._lock:
            if self._shutdown or uri not in self._links:
                return False
            old = self._links[uri]
            if old.transport is None or old.transport == transport:
                # Still connecting, or already where the planner wants it.
                return False
            self._links[uri] = _InboundLink(
                self, uri,
                allow_shm=(transport == "SHMROS"),
                planned_reason=reason,
            )
            self._refresh_state()
        old.close()
        return True

    # ------------------------------------------------------------------
    # link_state (healthy / degraded / reconnecting / dead)
    # ------------------------------------------------------------------
    def _refresh_state(self) -> None:
        """Recompute ``link_state`` (caller holds ``self._lock``)."""
        state = self._compute_state()
        if state != self._state:
            self._state = state
            self._state_history.append(state)

    def _compute_state(self) -> str:
        pending = [
            uri for uri, st in self._retry.items()
            if uri in self._wanted and not st.exhausted
        ]
        exhausted = [
            uri for uri, st in self._retry.items()
            if uri in self._wanted and st.exhausted
        ]
        degraded = any(link.downgraded for link in self._connected)
        if not self._connected:
            if exhausted and not pending:
                return "dead" if not self._intraprocess_fallback else "degraded"
            if pending:
                return "reconnecting"
            return "healthy"
        if pending or exhausted or degraded:
            return "degraded"
        return "healthy"

    def get_num_connections(self) -> int:
        with self._lock:
            count = len(self._connected)
        if self.intraprocess or self._intraprocess_fallback:
            count += len(
                local_bus.local_publisher_uris(self.node.master_uri, self.topic)
            )
        return count

    def links(self) -> list:
        """Inbound links (connected or dialing), each speaking the
        unified Link protocol -- the supported replacement for poking
        per-transport attributes."""
        with self._lock:
            return list(self._links.values())

    @property
    def link_state(self) -> str:
        """Aggregate health of this subscription's data links."""
        with self._lock:
            return self._state

    def state_history(self) -> list[str]:
        """The sequence of ``link_state`` values this subscription has
        been through (bounded; newest last) -- what chaos tests assert
        recovery against."""
        with self._lock:
            return list(self._state_history)

    def wait_for_publishers(self, count: int = 1, timeout: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.get_num_connections() >= count:
                return True
            self._connect_event.clear()
            self._connect_event.wait(timeout=0.05)
        return self.get_num_connections() >= count

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _dispatch(self, msg, trace_id: int = 0, pub_ns: int = 0) -> None:
        self.received_count += 1
        if pub_ns:
            self._latency.observe((time.monotonic_ns() - pub_ns) / 1e9)
        if trace_id:
            start_ns = time.monotonic_ns()
            try:
                self.callback(msg)
            finally:
                tracer.record(
                    "callback", trace_id, start_ns, time.monotonic_ns(),
                    topic=self.topic,
                )
        else:
            self.callback(msg)

    def stats(self) -> dict:
        """Public snapshot for diagnostics/metrics collectors."""
        with self._lock:
            links = list(self._connected)
        transports: dict[str, int] = {}
        for link in links:
            transports[link.transport] = transports.get(link.transport, 0) + 1
        with self._lock:
            state = self._state
            history = list(self._state_history)
            retries = self.retries
        return {
            "topic": self.topic,
            "type": self.type_name,
            "messages": self.received_count,
            "bytes": self.received_bytes,
            "connections": self.get_num_connections(),
            "stale_drops": self.stale_drops,
            "transports": transports,
            "link_state": state,
            "state_history": history,
            "retries": retries,
        }

    def _deliver_local(self, msg) -> None:
        """Intra-process delivery: the message object itself, by
        reference (const-ptr convention)."""
        if self.raw:
            # Raw subscribers always see payload bytes, even from the
            # local bus, so the callback contract stays uniform.
            payload, release = self.codec.encode(msg)
            try:
                self._dispatch(bytes(payload))
            finally:
                if release is not None:
                    release()
            return
        self.received_count += 1
        self.callback(msg)

    def unsubscribe(self) -> None:
        """Disconnect from every publisher and unregister."""
        with self._lock:
            self._shutdown = True
            links = list(self._links.values())
            self._links.clear()
            timers = list(self._timers.values())
            self._timers.clear()
            self._retry.clear()
            self._wanted = set()
        for timer in timers:
            timer.cancel()
        if self.intraprocess or self._intraprocess_fallback:
            local_bus.unregister_subscriber(self)
        for link in links:
            link.close()
        self.node._unsubscribe(self)

    def __enter__(self) -> "Subscriber":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unsubscribe()
