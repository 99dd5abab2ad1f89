"""The ROS master: XML-RPC name service mediating topic discovery.

As in ROS1, nodes register publishers/subscribers with the master over
XML-RPC; the master answers registrations with the current peer list and
pushes ``publisherUpdate`` callbacks to subscribers when the publisher set
of a topic changes.  Data never flows through the master -- peers connect
directly over the TCPROS-style transport.

API methods return ROS's ``(code, statusMessage, value)`` triples with
``code`` 1 on success.
"""

from __future__ import annotations

import threading
import uuid
import xmlrpc.client
import xmlrpc.server
from dataclasses import dataclass, field as dataclass_field

from repro.ros.exceptions import MasterError

SUCCESS = 1
FAILURE = 0
ERROR = -1


@dataclass
class _TopicEntry:
    type_name: str = ""
    publishers: dict = dataclass_field(default_factory=dict)   # caller_id -> api
    subscribers: dict = dataclass_field(default_factory=dict)  # caller_id -> api


class MasterRegistry:
    """The master's pure bookkeeping (no transport).

    Exposed separately so tests can drive it without sockets and so the
    XML-RPC server is a thin shell.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._topics: dict[str, _TopicEntry] = {}
        self._nodes: dict[str, str] = {}  # caller_id -> slave api uri
        self._services: dict[str, tuple[str, str]] = {}  # name -> (caller, uri)
        self._parameters: dict[str, object] = {}
        #: Identity of this registry instance.  A node's master watchdog
        #: compares epochs across probes: a changed epoch means the
        #: master lost its state (restart) and every registration must be
        #: replayed from node-local memory.
        self.epoch = uuid.uuid4().hex

    # -- registration --------------------------------------------------
    def register_publisher(
        self, caller_id: str, topic: str, type_name: str, caller_api: str
    ) -> tuple[list[str], list[str]]:
        """Returns (subscriber_apis, subscriber_apis_to_notify).

        A re-registration that changes nothing (same caller, same api --
        the watchdog replaying against a master that already holds it)
        notifies nobody: the publisher set is unchanged, so pushing
        ``publisherUpdate`` would only churn every subscriber's link
        bookkeeping for no information.
        """
        with self._lock:
            entry = self._topics.setdefault(topic, _TopicEntry(type_name))
            if not entry.type_name:
                entry.type_name = type_name
            changed = entry.publishers.get(caller_id) != caller_api
            entry.publishers[caller_id] = caller_api
            self._nodes[caller_id] = caller_api
            subscribers = list(entry.subscribers.values())
            return subscribers, (subscribers if changed else [])

    def unregister_publisher(self, caller_id: str, topic: str) -> int:
        with self._lock:
            entry = self._topics.get(topic)
            if entry and entry.publishers.pop(caller_id, None) is not None:
                return 1
            return 0

    def register_subscriber(
        self, caller_id: str, topic: str, type_name: str, caller_api: str
    ) -> list[str]:
        """Returns the current publisher API list for the topic."""
        with self._lock:
            entry = self._topics.setdefault(topic, _TopicEntry(type_name))
            if not entry.type_name:
                entry.type_name = type_name
            entry.subscribers[caller_id] = caller_api
            self._nodes[caller_id] = caller_api
            return list(entry.publishers.values())

    def unregister_subscriber(self, caller_id: str, topic: str) -> int:
        with self._lock:
            entry = self._topics.get(topic)
            if entry and entry.subscribers.pop(caller_id, None) is not None:
                return 1
            return 0

    # -- services --------------------------------------------------------
    def register_service(self, caller_id: str, service: str,
                         service_uri: str, caller_api: str) -> None:
        with self._lock:
            self._services[service] = (caller_id, service_uri)
            self._nodes[caller_id] = caller_api

    def unregister_service(self, caller_id: str, service: str) -> int:
        with self._lock:
            entry = self._services.get(service)
            if entry and entry[0] == caller_id:
                del self._services[service]
                return 1
            return 0

    def lookup_service(self, service: str) -> str:
        with self._lock:
            entry = self._services.get(service)
            if entry is None:
                raise MasterError(f"no provider for service {service!r}")
            return entry[1]

    # -- parameter server --------------------------------------------------
    def set_param(self, key: str, value) -> None:
        with self._lock:
            self._parameters[key] = value

    def get_param(self, key: str):
        with self._lock:
            if key not in self._parameters:
                raise MasterError(f"parameter {key!r} is not set")
            return self._parameters[key]

    def has_param(self, key: str) -> bool:
        with self._lock:
            return key in self._parameters

    def delete_param(self, key: str) -> int:
        with self._lock:
            return 1 if self._parameters.pop(key, None) is not None else 0

    def param_names(self) -> list[str]:
        with self._lock:
            return sorted(self._parameters)

    # -- queries --------------------------------------------------------
    def publishers_of(self, topic: str) -> list[str]:
        with self._lock:
            entry = self._topics.get(topic)
            return list(entry.publishers.values()) if entry else []

    def lookup_node(self, node_name: str) -> str:
        with self._lock:
            api = self._nodes.get(node_name)
            if api is None:
                raise MasterError(f"unknown node {node_name!r}")
            return api

    def topic_types(self) -> list[list[str]]:
        with self._lock:
            return [
                [topic, entry.type_name]
                for topic, entry in sorted(self._topics.items())
                if entry.type_name
            ]

    # -- replication snapshots ---------------------------------------------
    def dump(self) -> dict:
        """A plain-data snapshot of the whole registry (the bootstrap a
        shard replica loads before tailing the registration log)."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "topics": {
                    topic: {
                        "type": entry.type_name,
                        "publishers": dict(entry.publishers),
                        "subscribers": dict(entry.subscribers),
                    }
                    for topic, entry in self._topics.items()
                },
                "nodes": dict(self._nodes),
                "services": {
                    name: list(entry)
                    for name, entry in self._services.items()
                },
                "parameters": dict(self._parameters),
            }

    def load(self, doc: dict) -> None:
        """Replace this registry's state (and epoch) with a snapshot
        produced by :meth:`dump` -- the replica adopts the leader's
        identity, so a later promotion is invisible to epoch watchdogs."""
        with self._lock:
            self._topics = {
                topic: _TopicEntry(
                    entry["type"],
                    dict(entry["publishers"]),
                    dict(entry["subscribers"]),
                )
                for topic, entry in doc.get("topics", {}).items()
            }
            self._nodes = dict(doc.get("nodes", {}))
            self._services = {
                name: tuple(entry)
                for name, entry in doc.get("services", {}).items()
            }
            self._parameters = dict(doc.get("parameters", {}))
            self.epoch = doc["epoch"]

    def system_state(self):
        with self._lock:
            pubs = [
                [topic, sorted(entry.publishers)]
                for topic, entry in sorted(self._topics.items())
                if entry.publishers
            ]
            subs = [
                [topic, sorted(entry.subscribers)]
                for topic, entry in sorted(self._topics.items())
                if entry.subscribers
            ]
            return [pubs, subs, []]


class _MasterRPCHandlers:
    """XML-RPC surface; mirrors the ROS master API shape."""

    def __init__(self, registry: MasterRegistry) -> None:
        self._registry = registry

    def registerPublisher(self, caller_id, topic, type_name, caller_api):
        subscribers, to_notify = self._registry.register_publisher(
            caller_id, topic, type_name, caller_api
        )
        # Notify subscribers asynchronously so a dead subscriber cannot
        # stall a registration.
        publishers = self._registry.publishers_of(topic)
        for api in to_notify:
            threading.Thread(
                target=_notify_publisher_update,
                args=(api, topic, publishers),
                daemon=True,
            ).start()
        return SUCCESS, f"registered {caller_id} as publisher of {topic}", subscribers

    def unregisterPublisher(self, caller_id, topic, caller_api):
        count = self._registry.unregister_publisher(caller_id, topic)
        return SUCCESS, "unregistered", count

    def registerSubscriber(self, caller_id, topic, type_name, caller_api):
        publishers = self._registry.register_subscriber(
            caller_id, topic, type_name, caller_api
        )
        return SUCCESS, f"registered {caller_id} as subscriber of {topic}", publishers

    def unregisterSubscriber(self, caller_id, topic, caller_api):
        count = self._registry.unregister_subscriber(caller_id, topic)
        return SUCCESS, "unregistered", count

    def lookupNode(self, caller_id, node_name):
        try:
            return SUCCESS, "node found", self._registry.lookup_node(node_name)
        except MasterError as exc:
            return ERROR, str(exc), ""

    def getTopicTypes(self, caller_id):
        return SUCCESS, "topic types", self._registry.topic_types()

    def getSystemState(self, caller_id):
        return SUCCESS, "system state", self._registry.system_state()

    def getPid(self, caller_id):
        import os

        return SUCCESS, "pid", os.getpid()

    def getEpoch(self, caller_id):
        """Registry instance identity (not part of the ROS1 master API):
        the probe target of every node's master watchdog."""
        return SUCCESS, "epoch", self._registry.epoch

    # -- services ----------------------------------------------------------
    def registerService(self, caller_id, service, service_uri, caller_api):
        self._registry.register_service(caller_id, service, service_uri,
                                        caller_api)
        return SUCCESS, f"registered service {service}", 0

    def unregisterService(self, caller_id, service, service_uri):
        count = self._registry.unregister_service(caller_id, service)
        return SUCCESS, "unregistered", count

    def lookupService(self, caller_id, service):
        try:
            return SUCCESS, "service found", self._registry.lookup_service(service)
        except MasterError as exc:
            return ERROR, str(exc), ""

    # -- parameter server ----------------------------------------------------
    def setParam(self, caller_id, key, value):
        self._registry.set_param(key, value)
        return SUCCESS, f"parameter {key} set", 0

    def getParam(self, caller_id, key):
        try:
            return SUCCESS, f"parameter {key}", self._registry.get_param(key)
        except MasterError as exc:
            return ERROR, str(exc), 0

    def hasParam(self, caller_id, key):
        return SUCCESS, key, self._registry.has_param(key)

    def deleteParam(self, caller_id, key):
        return SUCCESS, key, self._registry.delete_param(key)

    def getParamNames(self, caller_id):
        return SUCCESS, "parameter names", self._registry.param_names()


def _notify_publisher_update(api: str, topic: str, publishers: list[str]) -> None:
    try:
        proxy = xmlrpc.client.ServerProxy(api, allow_none=True)
        proxy.publisherUpdate("/master", topic, publishers)
    except Exception:
        # A vanished subscriber is not the master's problem.
        pass


class Master:
    """A running master: XML-RPC server wrapping a :class:`MasterRegistry`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = MasterRegistry()
        self._server = xmlrpc.server.SimpleXMLRPCServer(
            (host, port), logRequests=False, allow_none=True
        )
        self._server.register_instance(_MasterRPCHandlers(self.registry))
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="ros-master",
        )
        self._thread.start()
        host, port = self._server.server_address
        self.uri = f"http://{host}:{port}/"

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "Master":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class MasterProxy:
    """Client-side handle on a master, unwrapping status triples."""

    def __init__(self, uri: str) -> None:
        self.uri = uri
        self._proxy = xmlrpc.client.ServerProxy(uri, allow_none=True)
        self._lock = threading.Lock()

    def _call(self, method: str, *args):
        with self._lock:
            code, status, value = getattr(self._proxy, method)(*args)
        if code != SUCCESS:
            raise MasterError(f"{method}: {status}")
        return value

    def register_publisher(self, caller_id, topic, type_name, caller_api):
        return self._call(
            "registerPublisher", caller_id, topic, type_name, caller_api
        )

    def unregister_publisher(self, caller_id, topic, caller_api):
        return self._call("unregisterPublisher", caller_id, topic, caller_api)

    def register_subscriber(self, caller_id, topic, type_name, caller_api):
        return self._call(
            "registerSubscriber", caller_id, topic, type_name, caller_api
        )

    def unregister_subscriber(self, caller_id, topic, caller_api):
        return self._call("unregisterSubscriber", caller_id, topic, caller_api)

    def lookup_node(self, caller_id, node_name):
        return self._call("lookupNode", caller_id, node_name)

    def get_epoch(self, caller_id):
        return self._call("getEpoch", caller_id)

    def get_topic_types(self, caller_id):
        return self._call("getTopicTypes", caller_id)

    def get_system_state(self, caller_id):
        return self._call("getSystemState", caller_id)

    def register_service(self, caller_id, service, service_uri, caller_api):
        return self._call(
            "registerService", caller_id, service, service_uri, caller_api
        )

    def unregister_service(self, caller_id, service, service_uri):
        return self._call("unregisterService", caller_id, service, service_uri)

    def lookup_service(self, caller_id, service):
        return self._call("lookupService", caller_id, service)

    def set_param(self, caller_id, key, value):
        return self._call("setParam", caller_id, key, value)

    def get_param(self, caller_id, key):
        return self._call("getParam", caller_id, key)

    def has_param(self, caller_id, key):
        return self._call("hasParam", caller_id, key)

    def delete_param(self, caller_id, key):
        return self._call("deleteParam", caller_id, key)

    def get_param_names(self, caller_id):
        return self._call("getParamNames", caller_id)
