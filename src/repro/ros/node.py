"""NodeHandle: one participant in the ROS graph.

A node owns

- an XML-RPC *slave* server implementing ``requestTopic`` (topic
  negotiation) and ``publisherUpdate`` (master push notifications),
- a TCPROS-style data server accepting subscriber connections for its
  advertised topics,
- its publishers and subscribers.

The public surface matches the paper's Fig. 3 program pattern::

    nh = NodeHandle("talker", master_uri)
    pub = nh.advertise("/image", Image)
    pub.publish(img)

    nh2 = NodeHandle("listener", master_uri)
    nh2.subscribe("/image", Image, callback)
"""

from __future__ import annotations

import os
import threading
import xmlrpc.server
from typing import Callable

from repro.ros import names
from repro.ros.exceptions import NodeShutdownError
from repro.ros.master import SUCCESS, ERROR, MasterProxy
from repro.ros.retry import (
    DEFAULT_LINK_RETRY,
    DEFAULT_MASTER_RETRY,
    RetryPolicy,
)
from repro.ros.topic import Publisher, Subscriber
from repro.ros.transport.tcpros import TcpRosServer, reject_connection


class _SlaveHandlers:
    """XML-RPC methods other graph participants call on this node."""

    def __init__(self, node: "NodeHandle") -> None:
        self._node = node

    def requestTopic(self, caller_id, topic, protocols):
        node = self._node
        publisher = node._publishers.get(topic)
        if publisher is None:
            return ERROR, f"{node.name} does not publish {topic}", []
        # Honour the subscriber's preference order: SHMROS when both ends
        # share a machine and the publisher can set up a ring, TCPROS
        # otherwise.  Either way the data connection lands on the same
        # TCPROS server; SHMROS merely changes what flows over it.
        for protocol in protocols:
            if not protocol:
                continue
            if protocol[0] == "SHMROS" and len(protocol) >= 2:
                ring = publisher._offer_shm(protocol[1])
                if ring is not None:
                    return (
                        SUCCESS,
                        "ready",
                        [
                            "SHMROS",
                            node._data_server.host,
                            node._data_server.port,
                            ring.name,
                        ],
                    )
            elif protocol[0] == "TCPROS":
                return (
                    SUCCESS,
                    "ready",
                    ["TCPROS", node._data_server.host, node._data_server.port],
                )
        return ERROR, "no supported protocol", []

    def publisherUpdate(self, caller_id, topic, publishers):
        self._node._publisher_update(topic, publishers)
        return SUCCESS, "publisher list updated", 0

    def getPid(self, caller_id):
        return SUCCESS, "pid", os.getpid()

    def shutdown(self, caller_id, reason=""):
        threading.Thread(target=self._node.shutdown, daemon=True).start()
        return SUCCESS, "shutting down", 0


class NodeHandle:
    """A running node registered with a master."""

    def __init__(
        self,
        name: str,
        master_uri: str,
        namespace: str = "/",
        shmros: bool = True,
        master_probe_interval: float = 0.5,
        master_retry: RetryPolicy = DEFAULT_MASTER_RETRY,
        link_retry: RetryPolicy = DEFAULT_LINK_RETRY,
        link_keepalive: float = 2.0,
        link_idle_timeout: float = 15.0,
    ) -> None:
        self.name = names.resolve(name, namespace)
        self.namespace = namespace
        self.master_uri = master_uri
        #: Allow the SHMROS shared-memory transport for this node's
        #: publishers and subscribers (negotiation still falls back to
        #: TCPROS per connection; REPRO_SHMROS=0 disables globally).
        self.shmros = shmros
        #: Self-healing knobs.  ``master_probe_interval`` is the watchdog
        #: period (0 disables the watchdog); ``link_retry`` governs
        #: per-publisher reconnects; ``link_keepalive`` is how long a
        #: publisher lets a link sit idle before sending an in-band
        #: keepalive, and ``link_idle_timeout`` how long a subscriber
        #: tolerates total silence before declaring the link half-open.
        self.master_probe_interval = master_probe_interval
        self.master_retry = master_retry
        self.link_retry = link_retry
        self.link_keepalive = link_keepalive
        self.link_idle_timeout = link_idle_timeout
        if "," in master_uri or "|" in master_uri:
            # A graph-plane spec (shards and/or failover candidates)
            # rather than a single master URI.  Late import: plain
            # single-master nodes never load the graph plane.
            from repro.graphplane.proxy import make_master_proxy

            self.master = make_master_proxy(master_uri)
        else:
            self.master = MasterProxy(master_uri)
        self._publishers: dict[str, Publisher] = {}
        self._subscribers: dict[str, list[Subscriber]] = {}
        self._services: dict[str, "ServiceServer"] = {}
        self._lock = threading.RLock()
        self._shutdown = False
        #: Master-link health as seen by the watchdog: ``healthy`` while
        #: probes succeed, ``reconnecting`` from the first failed probe
        #: until the master answers again.
        self.master_state = "healthy"
        self.master_retries = 0
        self._master_epoch: str | None = None
        self._watch_stop = threading.Event()

        self._data_server = TcpRosServer(self._dispatch_data)
        self._slave_server = xmlrpc.server.SimpleXMLRPCServer(
            ("127.0.0.1", 0), logRequests=False, allow_none=True
        )
        self._slave_server.register_instance(_SlaveHandlers(self))
        self._slave_thread = threading.Thread(
            target=self._slave_server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name=f"slave:{self.name}",
        )
        self._slave_thread.start()
        host, port = self._slave_server.server_address
        self.uri = f"http://{host}:{port}/"

        self._watch_thread: threading.Thread | None = None
        if master_probe_interval and master_probe_interval > 0:
            # Prime the epoch baseline now: a master bounce before the
            # first probe tick must still read as a *change*, or early
            # registrations would never be replayed.
            try:
                self._master_epoch = self.master.get_epoch(self.name)
            except Exception:
                pass
            self._watch_thread = threading.Thread(
                target=self._master_watchdog,
                daemon=True,
                name=f"master-watchdog:{self.name}",
            )
            self._watch_thread.start()

    # ------------------------------------------------------------------
    # Topic API
    # ------------------------------------------------------------------
    def advertise(
        self,
        topic: str,
        msg_class: type,
        queue_size: int = 100,
        intraprocess: bool = False,
        latch: bool = False,
        shm_slots: int = None,
        shm_slot_bytes: int = None,
    ) -> Publisher:
        """Declare a topic and return a publisher handle (Fig. 3).

        ``shm_slots`` / ``shm_slot_bytes`` size the SHMROS ring for this
        topic (defaults in :mod:`repro.ros.transport.shm`).
        """
        self._check_alive()
        topic = names.resolve(topic, self.namespace, self.name)
        with self._lock:
            if topic in self._publishers:
                raise ValueError(f"{self.name} already publishes {topic}")
            publisher = Publisher(
                self,
                topic,
                msg_class,
                queue_size,
                intraprocess,
                latch,
                shm_slots=shm_slots,
                shm_slot_bytes=shm_slot_bytes,
            )
            self._publishers[topic] = publisher
        self.master.register_publisher(
            self.name, topic, publisher.type_name, self.uri
        )
        return publisher

    def subscribe(
        self,
        topic: str,
        msg_class: type,
        callback: Callable,
        intraprocess: bool = False,
        raw: bool = False,
    ) -> Subscriber:
        """Register ``callback`` for ``topic`` (Fig. 3).

        With ``raw=True`` the callback receives the undecoded payload
        bytes of each message instead of a message object (used by the
        bridge gateway to fan out without deserializing).
        """
        self._check_alive()
        topic = names.resolve(topic, self.namespace, self.name)
        with self._lock:
            subscriber = Subscriber(
                self, topic, msg_class, callback, intraprocess, raw=raw
            )
            self._subscribers.setdefault(topic, []).append(subscriber)
        publishers = self.master.register_subscriber(
            self.name, topic, subscriber.type_name, self.uri
        )
        subscriber.update_publishers(publishers)
        return subscriber

    # ------------------------------------------------------------------
    # Services and parameters
    # ------------------------------------------------------------------
    def advertise_service(self, name: str, srv_type, handler) -> "ServiceServer":
        """Provide a service; ``handler(request) -> response``."""
        from repro.ros.service import ServiceServer

        self._check_alive()
        name = names.resolve(name, self.namespace, self.name)
        with self._lock:
            if name in self._services:
                raise ValueError(f"{self.name} already provides {name}")
            server = ServiceServer(self, name, srv_type, handler)
            self._services[name] = server
        self.master.register_service(self.name, name, server.uri, self.uri)
        return server

    def service_proxy(self, name: str, srv_type, timeout: float = 10.0):
        """A callable client handle for a service."""
        from repro.ros.service import ServiceProxy

        self._check_alive()
        name = names.resolve(name, self.namespace, self.name)
        return ServiceProxy(self, name, srv_type, timeout)

    def wait_for_service(self, name: str, timeout: float = 10.0) -> bool:
        """Block until the master knows a provider for ``name``."""
        import time as _time

        name = names.resolve(name, self.namespace, self.name)
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            try:
                self.master.lookup_service(self.name, name)
                return True
            except Exception:
                _time.sleep(0.05)
        return False

    def set_param(self, key: str, value) -> None:
        self.master.set_param(self.name, key, value)

    def get_param(self, key: str, default=None):
        try:
            return self.master.get_param(self.name, key)
        except Exception:
            if default is not None:
                return default
            raise

    def has_param(self, key: str) -> bool:
        return bool(self.master.has_param(self.name, key))

    def delete_param(self, key: str) -> None:
        self.master.delete_param(self.name, key)

    def _unadvertise_service(self, server) -> None:
        with self._lock:
            self._services.pop(server.name, None)
        try:
            self.master.unregister_service(self.name, server.name, server.uri)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _dispatch_data(self, sock, header: dict[str, str]) -> None:
        if "service" in header:
            service_name = header["service"]
            with self._lock:
                server = self._services.get(service_name)
            if server is None:
                reject_connection(
                    sock, f"{self.name} does not provide {service_name}"
                )
                return
            server._accept(sock, header)
            return
        topic = header.get("topic", "")
        with self._lock:
            publisher = self._publishers.get(topic)
        if publisher is None:
            reject_connection(sock, f"{self.name} does not publish {topic}")
            return
        publisher._accept(sock, header)

    def _publisher_update(self, topic: str, publishers: list[str]) -> None:
        with self._lock:
            subscribers = list(self._subscribers.get(topic, ()))
        for subscriber in subscribers:
            subscriber.update_publishers(publishers)

    def _unadvertise(self, publisher: Publisher) -> None:
        with self._lock:
            self._publishers.pop(publisher.topic, None)
        try:
            self.master.unregister_publisher(self.name, publisher.topic, self.uri)
        except Exception:
            pass

    def _unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            subs = self._subscribers.get(subscriber.topic, [])
            if subscriber in subs:
                subs.remove(subscriber)
            remaining = bool(subs)
        if not remaining:
            try:
                self.master.unregister_subscriber(
                    self.name, subscriber.topic, self.uri
                )
            except Exception:
                pass

    def _check_alive(self) -> None:
        if self._shutdown:
            raise NodeShutdownError(f"node {self.name} is shut down")

    # ------------------------------------------------------------------
    # Master watchdog (self-healing)
    # ------------------------------------------------------------------
    def _master_watchdog(self) -> None:
        """Probe the master's epoch on a timer.  A failed probe enters a
        backoff reconnect loop; a *changed* epoch (master restarted and
        lost its registry) replays every registration this node holds."""
        while not self._watch_stop.wait(self.master_probe_interval):
            self._probe_master()

    def _probe_master(self) -> None:
        try:
            epoch = self.master.get_epoch(self.name)
        except Exception:
            self._master_reconnect_loop()
            return
        self._note_master_epoch(epoch)

    def _note_master_epoch(self, epoch: str) -> None:
        previous = self._master_epoch
        self._master_epoch = epoch
        if previous is not None and epoch != previous:
            self._reregister()
        self.master_state = "healthy"

    def _master_reconnect_loop(self) -> None:
        """Jittered exponential backoff until the master answers again.
        The master policy never gives up: a node without a master can do
        nothing better than keep trying."""
        self.master_state = "reconnecting"
        policy = self.master_retry
        attempt = 0
        import time as _time

        started = _time.monotonic()
        while not self._shutdown:
            attempt += 1
            if policy.gives_up(attempt, started):
                self.master_state = "dead"
                return
            if self._watch_stop.wait(policy.delay(attempt)):
                return
            self.master_retries += 1
            try:
                epoch = self.master.get_epoch(self.name)
            except Exception:
                continue
            self._note_master_epoch(epoch)
            return

    def _reregister(self) -> None:
        """Replay every registration from node-local state (the master
        restarted with an empty registry).  Subscribers additionally
        refresh their publisher lists -- that is what reconnects the data
        plane after an amnesiac restart."""
        with self._lock:
            publishers = list(self._publishers.values())
            subscribers = [
                sub for subs in self._subscribers.values() for sub in subs
            ]
            services = list(self._services.values())
        for publisher in publishers:
            try:
                self.master.register_publisher(
                    self.name, publisher.topic, publisher.type_name, self.uri
                )
            except Exception:
                return
        for service in services:
            try:
                self.master.register_service(
                    self.name, service.name, service.uri, self.uri
                )
            except Exception:
                return
        for subscriber in subscribers:
            try:
                publishers_now = self.master.register_subscriber(
                    self.name, subscriber.topic, subscriber.type_name, self.uri
                )
            except Exception:
                return
            subscriber.update_publishers(publishers_now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def topic_stats(self) -> dict:
        """Per-topic counters for every publisher and subscriber this
        node owns (the document behind ``/statistics`` and the metrics
        collectors)."""
        with self._lock:
            publishers = list(self._publishers.values())
            subscribers = [
                sub for subs in self._subscribers.values() for sub in subs
            ]
        return {
            "node": self.name,
            "master": {
                "uri": self.master_uri,
                "state": self.master_state,
                "epoch": self._master_epoch,
                "retries": self.master_retries,
            },
            "publishers": [pub.stats() for pub in publishers],
            "subscribers": [sub.stats() for sub in subscribers],
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            publishers = list(self._publishers.values())
            subscribers = [
                sub for subs in self._subscribers.values() for sub in subs
            ]
            services = list(self._services.values())
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=2.0)
        for subscriber in subscribers:
            subscriber.unsubscribe()
        for publisher in publishers:
            publisher.unadvertise()
        for server in services:
            server.shutdown()
        self._data_server.close()
        self._slave_server.shutdown()
        self._slave_server.server_close()
        self._slave_thread.join(timeout=2.0)

    def __enter__(self) -> "NodeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
