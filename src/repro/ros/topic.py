"""Publisher and Subscriber: the topic layer.

The user-facing API mirrors roscpp/rospy:

- ``pub = nh.advertise(topic, MsgClass)`` then ``pub.publish(msg)``;
- ``nh.subscribe(topic, MsgClass, callback)`` and the callback receives
  the message object.

Internally the publisher keeps one outbound link (socket + bounded queue,
scheduled by the shared reactor) per connected subscriber; the subscriber
keeps one inbound link per discovered publisher (:mod:`repro.ros.links`).
No link owns a thread.
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
from collections import Counter, deque
from typing import Callable, Optional

from repro.obs import instrument as obs_instrument
from repro.obs import trace as obs_trace
from repro.obs.metrics import global_registry as obs_registry
from repro.obs.trace import tracer
from repro.ros import reactor as reactor_mod
from repro.ros.codecs import codec_for_class, type_info_for_class
from repro.ros.exceptions import TopicTypeMismatch
from repro.ros.links import (
    _InboundLink,
    _OutboundLink,
    _Outgoing,
    _ShmWire,
    _TcprosWire,
    _TzcWire,
)
from repro.ros.retry import DEFAULT_LINK_RETRY, RetryState
from repro.ros.transport import shm, tcpros, tzc
from repro.ros.transport.intraprocess import local_bus


def _wait_for_connections(handle, event, count: int, timeout: float) -> bool:
    """Block until ``handle`` has ``count`` connections; ``event`` is set
    whenever one is added."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if handle.get_num_connections() >= count:
            return True
        event.clear()
        event.wait(timeout=0.05)
    return handle.get_num_connections() >= count


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
        # Slab-backed SFM records carry delta bookkeeping (dirty floor /
        # clean owner): the ring write can then skip re-copying the
        # byte-stable prefix of a republished grown message.
        record = (
            getattr(msg, "_record", None)
            if self.codec.format_name == "sfm"
            else None
        )
        # One reference per link; what a link does with its share -- frame
        # the payload, split it, or announce the ring slot the payload
        # was copied into once for the whole shared-memory fan-out -- is
        # its wire's business.
        outgoing = _Outgoing(
            payload, len(links), release, trace_id, pub_ns,
            self._shm_write(payload, links, record),
        )
        for link in links:
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
            wire = _ShmWire(ring)
        elif grant_tzc:
            wire = _TzcWire(traced, self.codec.msg_class._layout)
        else:
            wire = _TcprosWire(traced)
        link = _OutboundLink(self, sock, header.get("callerid", "?"), wire)
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

    def _new_ring(self, slot_count: int, slot_bytes: int) -> shm.ShmRingWriter:
        return shm.ShmRingWriter(
            slot_count=slot_count,
            slot_bytes=slot_bytes,
            seq_source=self._shm_seq,
            on_reclaim=lambda link: link._note_dropped(),
        )

    def _rings(self) -> list:
        """Lock held.  The current ring and every superseded one."""
        current = [self._shm_ring] if self._shm_ring is not None else []
        return current + self._shm_retired

    def _ensure_shm_ring(self) -> Optional[shm.ShmRingWriter]:
        if not self._shm_enabled:
            return None
        with self._shm_lock:
            if self._shm_ring is None:
                try:
                    self._shm_ring = self._new_ring(
                        self._shm_slots, self._shm_slot_bytes
                    )
                except (OSError, shm.ShmTransportError):
                    # No shared memory on this host: disable for good so
                    # every future subscriber negotiates plain TCPROS.
                    self._shm_enabled = False
                    return None
            return self._shm_ring

    def _shm_write(self, payload, links, record=None) -> Optional[tuple]:
        """Copy ``payload`` once into a ring slot shared by every link in
        ``links`` whose subscriber reads a ring; returns ``(ring, slot,
        seq, size)`` or None when there is no such link or the payload
        must travel inline instead.

        ``record`` (a slab-backed SFM record, when the publisher knows
        it) unlocks the sticky-slot delta path: a republish of the same
        record reuses its previous slot and copies only the skeleton plus
        the bytes written since the last publish.  The delta is sound
        because the record's size is monotonic under growth, in-class
        slab growth never moves bytes, and a promotion copies the prefix
        byte-identically -- so ``[skeleton_size, dirty_floor)`` is
        byte-stable since ``mark_clean`` unless an untracked write
        capability escaped (``record.delta_unsafe``)."""
        readers = [link for link in links if link.wire.ring is not None]
        if not readers:
            return None
        with self._shm_lock:
            ring = self._shm_ring
            if ring is None:
                return None
            if len(payload) > ring.slot_bytes:
                try:
                    grown = self._new_ring(
                        ring.slot_count,
                        shm.next_slot_bytes(ring.slot_bytes, len(payload)),
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
            rings = self._rings()
        for ring in rings:
            if ring.release(slot, seq, link):
                break
        self._gc_retired_rings()

    def _shm_drop_reader(self, link) -> None:
        with self._shm_lock:
            rings = self._rings()
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
        return _wait_for_connections(self, self._link_event, count, timeout)

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
            rings = self._rings()
            self._shm_ring = None
            self._shm_retired = []
        for ring in rings:
            ring.close()
        self.node._unadvertise(self)

    def __enter__(self) -> "Publisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unadvertise()


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
        #: object itself, so they contribute no bytes here.
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
        self._timers: dict[str, reactor_mod.Timer] = {}
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
        # The reactor's timer heap is the one timer source; the redial
        # itself takes the subscriber lock, so it runs on the worker pool.
        loop = reactor_mod.global_reactor()
        self._timers[uri] = loop.call_later(
            policy.delay(state.attempts),
            lambda: loop.submit(lambda: self._retry_connect(uri)),
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
        return _wait_for_connections(
            self, self._connect_event, count, timeout
        )

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
            transports = dict(
                Counter(link.transport for link in self._connected)
            )
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
