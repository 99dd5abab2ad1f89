"""Instrument definitions and scrape-time collectors.

Two tiers, matching the hot-path contract of :mod:`repro.obs.metrics`:

- **Hot-path instruments** (the latency histogram, the intra-process
  delivery counter) are observed per message from cached label children --
  one flag check + one lock + one add.
- **Everything else** is *collector-populated*: publishers, subscribers
  and bridge servers register themselves in weak sets
  (:func:`track_publisher` & co.) and already maintain plain integer
  attributes for their own introspection (``published_count``,
  ``wire_bytes``, ...).  At scrape time the collector walks the live
  objects, calls their public ``stats()`` / ``stats_snapshot()`` /
  ``snapshot()`` APIs and rewrites the families.  The hot paths never see
  the registry at all for these.

Families are cleared and repopulated on each scrape, so cells belonging
to dead objects vanish from the exposition instead of flat-lining.
"""

from __future__ import annotations

import threading
import weakref

from repro.obs.metrics import global_registry

# ----------------------------------------------------------------------
# Hot-path instruments (updated per message by the topic layer)
# ----------------------------------------------------------------------
pubsub_latency = global_registry.histogram(
    "miniros_pubsub_latency_seconds",
    "Publish-to-callback latency per topic (needs the traced wire prefix).",
    labels=("topic",),
)

intraprocess_deliveries = global_registry.counter(
    "miniros_intraprocess_deliveries_total",
    "Messages handed over by reference on the intra-process bus.",
)


def latency_child(topic: str):
    """The cached per-topic latency cell (resolve once per subscriber,
    observe per message)."""
    return pubsub_latency.labels(topic=topic)


# ----------------------------------------------------------------------
# Collector-populated families
# ----------------------------------------------------------------------
published_messages = global_registry.counter(
    "miniros_published_messages_total",
    "Messages published per topic.", labels=("topic",),
)
published_bytes = global_registry.counter(
    "miniros_published_bytes_total",
    "Encoded payload bytes published per topic.", labels=("topic",),
)
publish_drops = global_registry.counter(
    "miniros_publish_drops_total",
    "Deliveries dropped by publisher queue overflow or slot reclaim.",
    labels=("topic",),
)
publisher_links = global_registry.gauge(
    "miniros_publisher_links",
    "Connected subscriber links per advertised topic.", labels=("topic",),
)
publisher_queue_depth = global_registry.gauge(
    "miniros_publisher_queue_depth",
    "Queued outbound deliveries across a topic's links.", labels=("topic",),
)
received_messages = global_registry.counter(
    "miniros_received_messages_total",
    "Messages delivered to subscriber callbacks per topic.",
    labels=("topic",),
)
subscriber_links = global_registry.gauge(
    "miniros_subscriber_links",
    "Connected publisher links per subscribed topic.", labels=("topic",),
)
subscriber_stale_drops = global_registry.counter(
    "miniros_subscriber_stale_drops_total",
    "SHMROS slot notifications skipped because the slot was reclaimed.",
    labels=("topic",),
)
received_bytes = global_registry.counter(
    "miniros_received_bytes_total",
    "Payload bytes delivered to subscribers per topic (socket transports).",
    labels=("topic",),
)
subscriber_transport = global_registry.gauge(
    "miniros_subscriber_transport_links",
    "Connected subscriber links per (topic, transport).",
    labels=("topic", "transport"),
)
link_state = global_registry.gauge(
    "miniros_link_state",
    "Worst link health per (topic, role): 0 healthy, 1 degraded, "
    "2 reconnecting, 3 dead.",
    labels=("topic", "role"),
)
link_retries = global_registry.counter(
    "miniros_link_retries_total",
    "Reconnect attempts made by subscriber links per topic.",
    labels=("topic",),
)

#: Numeric encoding of ``link_state`` for the gauge (aggregated by max:
#: one sick subscription marks the whole topic).
LINK_STATE_CODES = {"healthy": 0, "degraded": 1, "reconnecting": 2, "dead": 3}

# ----------------------------------------------------------------------
# Graph plane (repro.graphplane): shards, replication, routing daemon
# ----------------------------------------------------------------------
graphplane_log_records = global_registry.counter(
    "miniros_graphplane_log_records_total",
    "Registration-log records appended per shard leader.",
    labels=("shard",),
)
graphplane_replication_lag = global_registry.gauge(
    "miniros_graphplane_replication_lag",
    "Log records the shard's follower has not yet applied.",
    labels=("shard",),
)
graphplane_failovers = global_registry.counter(
    "miniros_graphplane_failovers_total",
    "Replica promotions (a shard leader was declared dead).",
    labels=("shard",),
)
graphplane_proxy_failovers = global_registry.counter(
    "miniros_graphplane_proxy_failovers_total",
    "Client-side candidate switches inside a failover master proxy.",
)
routed_mux_links = global_registry.gauge(
    "miniros_routed_mux_links",
    "Live multiplexed host-pair connections per RouteD (both roles).",
    labels=("routed",),
)
routed_channels = global_registry.gauge(
    "miniros_routed_channels",
    "Open tunneled topic-link channels per RouteD (both roles).",
    labels=("routed",),
)
routed_frames = global_registry.counter(
    "miniros_routed_frames_total",
    "Mux frames forwarded per RouteD.", labels=("routed",),
)
routed_bytes = global_registry.counter(
    "miniros_routed_bytes_total",
    "Tunneled payload bytes forwarded per RouteD.", labels=("routed",),
)

sfm_live_records = global_registry.gauge(
    "miniros_sfm_live_records",
    "Live serialization-free message records in the global manager.",
)
sfm_live_bytes = global_registry.gauge(
    "miniros_sfm_live_bytes", "Bytes used by live SFM messages.",
)
sfm_pool_buffers = global_registry.gauge(
    "miniros_sfm_pool_buffers", "Recycled buffers shelved in the pool.",
)
sfm_pool_bytes = global_registry.gauge(
    "miniros_sfm_pool_bytes", "Bytes held by the recycling pool.",
)
sfm_events = global_registry.counter(
    "miniros_sfm_events_total",
    "Lifetime SFM manager events (allocated, adopted, expansions, "
    "pool_hits, ...).",
    labels=("event",),
)

bridge_clients = global_registry.gauge(
    "miniros_bridge_clients", "Connected bridge gateway clients.",
)
bridge_published = global_registry.counter(
    "miniros_bridge_published_total",
    "Messages published into the graph via the bridge, per topic.",
    labels=("topic",),
)
bridge_sub_sent = global_registry.counter(
    "miniros_bridge_subscription_sent_total",
    "Bridge deliveries written to external clients.",
    labels=("topic", "codec"),
)
bridge_sub_wire_bytes = global_registry.counter(
    "miniros_bridge_subscription_wire_bytes_total",
    "Bytes written to external clients per (topic, codec).",
    labels=("topic", "codec"),
)
bridge_sub_dropped = global_registry.counter(
    "miniros_bridge_subscription_dropped_total",
    "Bridge deliveries dropped by per-subscription queue bounds.",
    labels=("topic", "codec"),
)
bridge_transport_clients = global_registry.gauge(
    "miniros_bridge_transport_clients",
    "Connected bridge clients per transport (tcp, ws, sse).",
    labels=("transport",),
)
bridge_queue_depth = global_registry.gauge(
    "miniros_bridge_queue_depth",
    "Deliveries queued toward external clients, summed per transport.",
    labels=("transport",),
)
bridge_evictions = global_registry.counter(
    "miniros_bridge_evictions_total",
    "Sessions evicted by the slow-client policy.",
)
bridge_ws_auth_failures = global_registry.counter(
    "miniros_bridge_ws_auth_failures_total",
    "WebSocket/SSE requests rejected by token auth.",
)
bridge_ws_rate_limited = global_registry.counter(
    "miniros_bridge_ws_rate_limited_total",
    "Ops refused by the front-door token buckets, per op class.",
    labels=("op_class",),
)
bridge_ws_handshakes = global_registry.counter(
    "miniros_bridge_ws_handshakes_total",
    "Completed WebSocket upgrades and SSE stream starts.",
)

# ----------------------------------------------------------------------
# Live-object tracking
# ----------------------------------------------------------------------
_tracked_lock = threading.Lock()
_publishers: "weakref.WeakSet" = weakref.WeakSet()
_subscribers: "weakref.WeakSet" = weakref.WeakSet()
_bridges: "weakref.WeakSet" = weakref.WeakSet()


def track_publisher(publisher) -> None:
    with _tracked_lock:
        _publishers.add(publisher)


def track_subscriber(subscriber) -> None:
    with _tracked_lock:
        _subscribers.add(subscriber)


def track_bridge(bridge) -> None:
    with _tracked_lock:
        _bridges.add(bridge)


def _tracked(pool: "weakref.WeakSet") -> list:
    with _tracked_lock:
        return list(pool)


# ----------------------------------------------------------------------
# The collector
# ----------------------------------------------------------------------
def _add(totals: dict, key, amount) -> None:
    totals[key] = totals.get(key, 0) + amount


def _collect_pubsub() -> None:
    for family in (published_messages, published_bytes, publish_drops,
                   publisher_links, publisher_queue_depth,
                   received_messages, received_bytes, subscriber_links,
                   subscriber_stale_drops, subscriber_transport,
                   link_state, link_retries):
        family.clear()
    msgs: dict = {}
    nbytes: dict = {}
    drops: dict = {}
    links: dict = {}
    depth: dict = {}
    pub_state: dict = {}
    for publisher in _tracked(_publishers):
        stats = publisher.stats()
        topic = stats["topic"]
        _add(msgs, topic, stats["messages"])
        _add(nbytes, topic, stats["bytes"])
        _add(drops, topic, stats["drops"])
        _add(links, topic, stats["connections"])
        _add(depth, topic, stats["queue_depth"])
        code = LINK_STATE_CODES.get(stats.get("link_state", "healthy"), 0)
        pub_state[topic] = max(pub_state.get(topic, 0), code)
    for topic, value in msgs.items():
        published_messages.labels(topic=topic).set_total(value)
        published_bytes.labels(topic=topic).set_total(nbytes[topic])
        publish_drops.labels(topic=topic).set_total(drops[topic])
        publisher_links.labels(topic=topic).set(links[topic])
        publisher_queue_depth.labels(topic=topic).set(depth[topic])
        link_state.labels(topic=topic, role="publisher").set(pub_state[topic])
    received: dict = {}
    recv_bytes: dict = {}
    sub_links: dict = {}
    stale: dict = {}
    sub_state: dict = {}
    retries: dict = {}
    transports: dict = {}
    for subscriber in _tracked(_subscribers):
        stats = subscriber.stats()
        topic = stats["topic"]
        _add(received, topic, stats["messages"])
        _add(recv_bytes, topic, stats.get("bytes", 0))
        _add(sub_links, topic, stats["connections"])
        _add(stale, topic, stats["stale_drops"])
        _add(retries, topic, stats.get("retries", 0))
        for transport, count in stats.get("transports", {}).items():
            if transport:
                _add(transports, (topic, transport), count)
        code = LINK_STATE_CODES.get(stats.get("link_state", "healthy"), 0)
        sub_state[topic] = max(sub_state.get(topic, 0), code)
    for topic, value in received.items():
        received_messages.labels(topic=topic).set_total(value)
        received_bytes.labels(topic=topic).set_total(recv_bytes[topic])
        subscriber_links.labels(topic=topic).set(sub_links[topic])
        subscriber_stale_drops.labels(topic=topic).set_total(stale[topic])
        link_state.labels(topic=topic, role="subscriber").set(sub_state[topic])
        link_retries.labels(topic=topic).set_total(retries[topic])
    for (topic, transport), count in transports.items():
        subscriber_transport.labels(topic=topic, transport=transport).set(count)


def _collect_sfm() -> None:
    from repro.sfm.manager import global_message_manager

    snap = global_message_manager.snapshot()
    sfm_live_records.set(snap["live_records"])
    sfm_live_bytes.set(snap["live_bytes"])
    sfm_pool_buffers.set(snap["pool_buffers"])
    sfm_pool_bytes.set(snap["pool_bytes"])
    sfm_events.clear()
    for event, value in snap["counters"].items():
        sfm_events.labels(event=event).set_total(value)


def _collect_bridges() -> None:
    for family in (bridge_published, bridge_sub_sent,
                   bridge_sub_wire_bytes, bridge_sub_dropped,
                   bridge_transport_clients, bridge_queue_depth,
                   bridge_ws_rate_limited):
        family.clear()
    clients = 0
    evictions = 0
    auth_failures = 0
    handshakes = 0
    by_transport: dict = {}
    depth: dict = {}
    limited: dict = {}
    published: dict = {}
    sent: dict = {}
    wire: dict = {}
    dropped: dict = {}
    for bridge in _tracked(_bridges):
        snap = bridge.stats_snapshot()
        clients += snap["clients"]
        evictions += snap.get("evictions", 0)
        for transport, count in snap.get("clients_by_transport", {}).items():
            _add(by_transport, transport, count)
        for sess in snap.get("sessions", ()):
            _add(depth, sess["transport"], sess["queue_depth"])
        ws = snap.get("ws")
        if ws:
            auth_failures += ws["auth_failures"]
            handshakes += ws["handshakes"]
            for op_class, count in ws["rate_limited"].items():
                _add(limited, op_class, count)
        for adv in snap["advertisements"]:
            _add(published, adv["topic"], adv["published"])
        for sub in snap["subscriptions"]:
            key = (sub["topic"], sub["codec"])
            _add(sent, key, sub["sent"])
            _add(wire, key, sub["wire_bytes"])
            _add(dropped, key, sub["dropped"])
    bridge_clients.set(clients)
    bridge_evictions.set_total(evictions)
    bridge_ws_auth_failures.set_total(auth_failures)
    bridge_ws_handshakes.set_total(handshakes)
    for transport, count in by_transport.items():
        bridge_transport_clients.labels(transport=transport).set(count)
        bridge_queue_depth.labels(transport=transport).set(
            depth.get(transport, 0)
        )
    for op_class, count in limited.items():
        bridge_ws_rate_limited.labels(op_class=op_class).set_total(count)
    for topic, value in published.items():
        bridge_published.labels(topic=topic).set_total(value)
    for (topic, codec), value in sent.items():
        bridge_sub_sent.labels(topic=topic, codec=codec).set_total(value)
        bridge_sub_wire_bytes.labels(
            topic=topic, codec=codec
        ).set_total(wire[(topic, codec)])
        bridge_sub_dropped.labels(
            topic=topic, codec=codec
        ).set_total(dropped[(topic, codec)])


def collect_all() -> None:
    """One scrape's worth of collection (registered on the global
    registry; each part is isolated so one failure cannot hide the
    others)."""
    for part in (_collect_pubsub, _collect_sfm, _collect_bridges):
        try:
            part()
        except Exception:
            pass


global_registry.register_collector(collect_all)
