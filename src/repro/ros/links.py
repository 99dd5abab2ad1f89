"""The data links under :mod:`repro.ros.topic`: one per direction.

A publisher keeps one :class:`_OutboundLink` per connected subscriber
(socket + bounded queue, scheduled by the shared reactor); a subscriber
keeps one :class:`_InboundLink` per discovered publisher.  No link owns
a thread.

The outbound link is written once -- queue, drop-oldest, pump, flush
accounting, keepalive, close -- and parameterised by a small *wire*
object chosen at accept time (:class:`_TcprosWire`, :class:`_TzcWire`,
:class:`_ShmWire`) that supplies only what differs between the three
framings.  The inbound link funnels every framing through one
:meth:`_InboundLink._deliver`.
"""

from __future__ import annotations

import threading
import time
import xmlrpc.client
from collections import deque
from typing import NamedTuple, Optional

from repro.obs import trace as obs_trace
from repro.obs.trace import tracer
from repro.ros import reactor as reactor_mod
from repro.ros.exceptions import TopicTypeMismatch
from repro.ros.transport import shm, tcpros, tzc
from repro.sfm.manager import MessageState


class _Outgoing:
    """One encoded payload shared by all links; releases the codec's
    payload hook when every link is done with it.

    ``trace_id``/``pub_ns`` are the message's observability identity:
    zero when untraced, otherwise carried on the wire by traced links so
    the subscriber can stamp receive-side spans and the latency
    histogram against the publish instant.
    """

    __slots__ = ("payload", "trace_id", "pub_ns", "ticket", "_tzc_parts",
                 "_remaining", "_release", "_lock")

    def __init__(self, payload, fanout: int, release,
                 trace_id: int = 0, pub_ns: int = 0,
                 ticket: Optional[tuple] = None) -> None:
        self.payload = payload
        self.trace_id = trace_id
        self.pub_ns = pub_ns
        #: ``(ring, slot, seq, size)`` when the publisher copied the
        #: payload into a ring slot shared by every SHM link of this
        #: fan-out; None when it must travel inline.
        self.ticket = ticket
        self._tzc_parts = None
        self._remaining = fanout
        self._release = release
        self._lock = threading.Lock()

    def tzc_parts(self, layout) -> "tzc.TzcParts":
        """The TZC split (control + bulk iovecs), computed by the first
        TZC link that asks so the split -- like the encode -- happens
        once regardless of fan-out."""
        if self._tzc_parts is None:
            self._tzc_parts = tzc.split_message(
                layout, self.payload, len(self.payload)
            )
        return self._tzc_parts

    def done(self) -> None:
        with self._lock:
            self._remaining -= 1
            finished = self._remaining == 0
        if finished and self._release is not None:
            self._release()


class _Entry(NamedTuple):
    """One queued delivery on one outbound link."""

    #: What the wire's encoder consumes for this entry.
    frame: object
    #: What the wire releases once the entry is sent or dropped.
    held: object
    #: Message bytes the entry delivers (counters and the send span).
    size: int
    #: Bytes it adds to the socket write (the batch byte watermark).
    weight: int
    trace_id: int
    #: The send span's transport label.
    label: str


class _TcprosWire:
    """Classic framing: every message one length-prefixed payload frame
    (with the 16-byte observability prefix when both ends negotiated
    ``trace=1``).  The subscriber never speaks after the handshake."""

    label = "TCPROS"
    #: The ring this link's subscriber reads slots from (SHM only).
    ring = None

    def __init__(self, traced: bool) -> None:
        self.traced = traced

    def stats(self) -> dict:
        return {"transport": self.label, "traced": self.traced}

    def decoder(self):
        return reactor_mod.RawDecoder()

    def on_events(self, link, events: list) -> None:
        """The data socket is one-way after the handshake: inbound bytes
        are discarded, only EOF/reset (surfaced by the reactor's read)
        matters."""

    def _frame(self, outgoing: _Outgoing):
        return outgoing.payload

    def entry(self, link, outgoing: _Outgoing) -> _Entry:
        size = len(outgoing.payload)
        # An untraced connection cannot carry the id, so the message is
        # untraced as far as this link's send span is concerned.
        trace_id = outgoing.trace_id if self.traced else 0
        return _Entry(
            (self._frame(outgoing), outgoing.trace_id, outgoing.pub_ns),
            outgoing, size, size, trace_id, self.label,
        )

    def parts(self, sock, batch: list) -> list:
        if self.traced:
            return tcpros.traced_frame_parts([entry.frame for entry in batch])
        return tcpros.frame_parts([entry.frame[0] for entry in batch])

    def keepalive_parts(self, sock) -> list:
        return [tcpros.KEEPALIVE_FRAME]

    def release(self, link, entry: _Entry, sent: bool) -> None:
        entry.held.done()


class _TzcWire(_TcprosWire):
    """TZC is a framing of the TCPROS socket link, not a second link
    type: the same one-way stream, the payload split once per publish
    into a compact control segment plus zero-copy bulk ranges."""

    label = "TZC"

    def __init__(self, traced: bool, layout) -> None:
        super().__init__(traced)
        self._layout = layout

    def _frame(self, outgoing: _Outgoing):
        return outgoing.tzc_parts(self._layout)

    def parts(self, sock, batch: list) -> list:
        return tzc.split_batch_parts(
            [entry.frame for entry in batch], traced=self.traced
        )


class _ShmWire:
    """SHMROS doorbell: the socket that carried the handshake wakes the
    subscriber with tiny control frames (slot notifications, ring reseg
    notices, or inline payloads when shared memory cannot serve), and
    the slot acknowledgements decoded off the same socket let ring slots
    be reused.  Doorbell frames carry the trace fields natively."""

    label = "SHMROS"

    def __init__(self, ring) -> None:
        #: The ring this link's subscriber is currently attached to.
        self.ring = ring

    def stats(self) -> dict:
        return {"transport": self.label}

    def decoder(self):
        return shm.DoorbellDecoder()

    def on_events(self, link, events: list) -> None:
        for frame in events:
            if frame[0] == "ack":
                _kind, slot, seq = frame
                link.publisher._shm_ack(slot, seq, link)

    def entry(self, link, outgoing: _Outgoing) -> _Entry:
        trace_id, pub_ns = outgoing.trace_id, outgoing.pub_ns
        if outgoing.ticket is None:
            # Shared memory could not serve (or a latched replay): the
            # payload itself rides the doorbell socket.
            size = len(outgoing.payload)
            return _Entry(
                ("inline", outgoing.payload, trace_id, pub_ns),
                outgoing, size, size, trace_id, "SHMROS-inline",
            )
        # The ring write already copied the bytes: this link holds the
        # slot, not the payload.
        outgoing.done()
        _ring, slot, seq, size = outgoing.ticket
        return _Entry(
            ("slot", slot, seq, size, trace_id, pub_ns),
            outgoing.ticket, size, 0, trace_id, self.label,
        )

    def parts(self, sock, batch: list) -> list:
        frames = []
        for entry in batch:
            if entry.frame[0] == "slot" and entry.held[0] is not self.ring:
                # The publisher grew the ring: a reseg notice precedes
                # the first slot frame of the new ring (per-link frame
                # order).  It is minted here, not queued, so no queue
                # overflow can drop it.
                ring = self.ring = entry.held[0]
                frames.append(
                    ("reseg", ring.name, ring.slot_count, ring.slot_bytes)
                )
            frames.append(entry.frame)
        return shm.frames_to_parts(sock, frames)

    def keepalive_parts(self, sock) -> list:
        return shm.frames_to_parts(sock, [("keepalive",)])

    def release(self, link, entry: _Entry, sent: bool) -> None:
        """A sent slot stays held until the subscriber acknowledges it;
        a dropped one goes back to the ring.  Inline payloads are spent
        either way."""
        if entry.frame[0] == "inline":
            entry.held.done()
        elif not sent:
            ring, slot, seq, _size = entry.held
            ring.release(slot, seq, link)


class _OutboundLink:
    """Publisher-side connection to one subscriber, on any wire.

    Memory bound: at most ``queue_size`` droppable entries wait in the
    queue (overflow drops the oldest and releases what it held), and the
    pump hands the socket at most one byte watermark beyond what is
    still unflushed -- so a subscriber that stops reading pins
    ``queue_size`` entries plus one watermark, never the whole backlog.
    """

    def __init__(self, publisher, sock, subscriber_id: str, wire) -> None:
        self.publisher = publisher
        self.sock = sock
        self.subscriber_id = subscriber_id
        self.wire = wire
        #: Both ends negotiated ``tzc=1``: messages travel as a control
        #: frame plus a bulk frame of arena-sliced iovecs.
        self.tzc = isinstance(wire, _TzcWire)
        self._queue: deque[_Entry] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self.dropped = 0
        self.sent_count = 0
        self.sent_bytes = 0
        self._ka_timer = None
        self._pump_scheduled = False
        # EOF detection, acks, sends and keepalives all ride the shared
        # loop: this link owns zero threads.  A TCPROS subscriber never
        # speaks after the handshake, so the only read event that
        # matters there is EOF/reset -- a vanished subscriber is
        # detected without waiting for the next send to fail.
        self._loop = reactor_mod.global_reactor()
        self._last_activity = time.monotonic()
        self._rlink = reactor_mod.StreamLink(
            sock,
            wire.decoder(),
            on_events=lambda events: wire.on_events(self, events),
            on_error=lambda exc: self._shutdown_from_error(),
            reactor=self._loop,
            label=f"pub:{publisher.topic}->{subscriber_id}",
        )
        self._rlink.start()
        self._keepalive_tick()  # nothing is idle yet: arms the timer

    def enqueue(self, outgoing: _Outgoing) -> None:
        """Queue this link's share of one publish (publisher thread)."""
        entry = self.wire.entry(self, outgoing)
        with self._lock:
            if self._closed:
                self.wire.release(self, entry, sent=False)
                return
            queue_size = self.publisher.queue_size
            if queue_size and len(self._queue) >= queue_size:
                self.wire.release(self, self._queue.popleft(), sent=False)
                self._note_dropped()
            self._queue.append(entry)
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        with self._lock:
            if self._pump_scheduled:
                return
            self._pump_scheduled = True
        self._loop.call_soon(self._pump)

    def _depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- Link protocol (the reactor schedules ``_rlink``) ----------------
    @property
    def link_state(self) -> str:
        return "dead" if self._closed else "healthy"

    def fileno(self) -> int:
        try:
            return self.sock.fileno()
        except (OSError, ValueError, AttributeError):
            return -1

    def stats(self) -> dict:
        return {
            **self.wire.stats(),
            "subscriber": self.subscriber_id,
            "sent": self.sent_count,
            "bytes": self.sent_bytes,
            "dropped": self.dropped,
            "queue_depth": self._depth(),
            "link_state": self.link_state,
        }

    # -- send path -------------------------------------------------------
    def _pump(self) -> None:
        """Drain the queue onto the reactor link's write buffer (loop
        thread).  Everything already queued, up to the frame and byte
        watermarks, goes out as one vectored write; a lone publish
        flushes immediately, so latency is never traded for throughput.
        While more than one byte watermark is still unflushed the rest
        waits in the queue -- where ``queue_size`` governs it --
        and ``_batch_flushed`` re-kicks the pump.  Release fires from the
        flush callback so SFM payloads stay alive until their bytes
        leave the process."""
        with self._lock:
            self._pump_scheduled = False
        backlog = self._rlink.write_backlog
        while self._queue and backlog() <= tcpros.BATCH_MAX_BYTES:
            batch: list[_Entry] = []
            with self._lock:
                nbytes = 0
                while (
                    self._queue
                    and len(batch) < tcpros.BATCH_MAX_FRAMES
                    and nbytes <= tcpros.BATCH_MAX_BYTES
                ):
                    entry = self._queue.popleft()
                    batch.append(entry)
                    nbytes += entry.weight
            start_ns = (
                time.monotonic_ns()
                if any(entry.trace_id for entry in batch)
                else 0
            )
            self._last_activity = time.monotonic()
            # Should the chaos gate swallow every frame the write is
            # empty and the entries are still spent, in flush order.
            self._rlink.write(
                self.wire.parts(self.sock, batch),
                on_flushed=lambda batch=batch, start_ns=start_ns:
                    self._batch_flushed(batch, start_ns),
            )

    def _batch_flushed(self, batch: list, start_ns: int) -> None:
        end_ns = time.monotonic_ns() if start_ns else 0
        closed = self._closed
        for entry in batch:
            if not closed:
                if entry.trace_id:
                    tracer.record(
                        "send", entry.trace_id, start_ns, end_ns,
                        topic=self.publisher.topic,
                        transport=entry.label, bytes=entry.size,
                    )
                self.sent_count += 1
                self.sent_bytes += entry.size
            self.wire.release(self, entry, sent=True)
        # Entries the in-flight gate left queued go out now.  Scheduled,
        # not called: this runs inside the stream's write callback.
        if self._queue:
            self._schedule_pump()

    def _keepalive_tick(self) -> None:
        keepalive = getattr(self.publisher.node, "link_keepalive", 2.0)
        if self._closed or not keepalive:
            return
        idle_for = time.monotonic() - self._last_activity
        if idle_for >= keepalive and not self._depth() \
                and not self._rlink._pending_write():
            self._rlink.write(self.wire.keepalive_parts(self.sock))
            self._last_activity = time.monotonic()
        self._ka_timer = self._loop.call_later(
            keepalive, self._keepalive_tick
        )

    def _note_dropped(self) -> None:
        """One delivery lost to this subscriber's slowness: its queue
        overflowed, or the ring forcibly reclaimed a slot it had not yet
        acknowledged."""
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
        for entry in pending:
            self.wire.release(self, entry, sent=False)
        # Slots already announced are held until acknowledged; nobody
        # will acknowledge them now.
        self.publisher._shm_drop_reader(self)
        if self._ka_timer is not None:
            self._ka_timer.cancel()
        self._rlink.close()


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
        subscriber,
        publisher_uri: str,
        allow_shm: Optional[bool] = None,
        downgraded: bool = False,
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
        #: None: decide from node/env.  False: the reconnect path already
        #: burned its SHM attempts for this publisher.
        self._allow_shm = allow_shm
        #: The publisher confirmed ``trace=1``: frames carry the
        #: observability prefix.
        self.traced = False
        #: The publisher confirmed ``tzc=1``: messages arrive as a
        #: control + bulk frame pair (partial serialization).  Reported
        #: as transport "TCPROS" -- the retry ladder reasons about
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
                    tcpros.quiet_close(self.sock)
                    self.sock = None
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
        decode = self.subscriber.codec.decode
        for _kind, payload, trace_id, pub_ns in events:
            if self._closed:
                return
            self._deliver(
                payload, len(payload), trace_id, pub_ns, "TCPROS", decode
            )

    def _handle_tzc_events(self, events: list) -> None:
        decode_adopted = self.subscriber.codec.decode_adopted
        for _kind, buffer, order, trace_id, pub_ns in events:
            if self._closed:
                return
            self._deliver(
                buffer, len(buffer), trace_id, pub_ns, "TZC",
                lambda buffer, order=order: decode_adopted(buffer, order),
            )

    def _handle_shm_events(self, events: list) -> None:
        subscriber = self.subscriber
        for frame in events:
            if self._closed:
                return
            kind = frame[0]
            if kind == "slot":
                _kind, slot, seq, size, trace_id, pub_ns = frame
                reader = self._shm_reader
                if reader is None or reader.slot_seq(slot) != seq:
                    # The publisher reclaimed the slot before we got
                    # here (we were too slow); it already counted the
                    # drop on its side.
                    self.stale_drops += 1
                    subscriber.stale_drops += 1
                    continue
                # One zero-copy delivery: adopt the slot in place, run
                # the callback, detach if the user kept the message,
                # acknowledge.
                self._deliver(
                    reader.payload_view(slot, size), size, trace_id,
                    pub_ns, "SHMROS", subscriber.codec.decode_external,
                    lambda record, slot=slot, seq=seq:
                        self._slot_done(slot, seq, record),
                )
            elif kind == "inline":
                _kind, payload, trace_id, pub_ns = frame
                self._deliver(
                    payload, len(payload), trace_id, pub_ns,
                    "SHMROS-inline", subscriber.codec.decode,
                )
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

    def _deliver(
        self, source, size: int, trace_id: int, pub_ns: int, label: str,
        decode, after=None,
    ) -> None:
        """Every message of every framing arrives here: the recv span,
        the byte count, the raw copy or the (span-wrapped) decode, and
        the dispatch.  ``after(record)`` runs once the callback has
        returned and this routine's own references to the message and
        its ``source`` bytes are gone -- the hook a borrowed source (a
        ring slot) needs to be handed back."""
        subscriber = self.subscriber
        if trace_id:
            tracer.record(
                "recv", trace_id, pub_ns, time.monotonic_ns(),
                topic=subscriber.topic, transport=label, bytes=size,
            )
        subscriber.received_bytes += size
        if subscriber.raw:
            # The bytes object is the callback's to keep, whatever
            # happens to the source afterwards.
            msg = bytes(source)
        elif trace_id:
            start_ns = time.monotonic_ns()
            msg = decode(source)
            tracer.record(
                "decode", trace_id, start_ns, time.monotonic_ns(),
                topic=subscriber.topic,
            )
        else:
            msg = decode(source)
        try:
            subscriber._dispatch(msg, trace_id, pub_ns)
        finally:
            if after is not None:
                record = getattr(msg, "_record", None)
                del msg, source
                after(record)

    def _slot_done(self, slot: int, seq: int, record) -> None:
        """Hand a ring slot back.  SFM messages borrow the slot memory
        itself: a record still alive here means the callback kept a
        reference, so it is detached (copied out) first and the
        publisher can reclaim the memory."""
        if (
            record is not None
            and record.external
            and record.state is not MessageState.DESTRUCTED
        ):
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

