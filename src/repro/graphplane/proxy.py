"""Client-side routing for the graph plane.

Three proxies, one contract: each exposes exactly the
:class:`repro.ros.master.MasterProxy` method surface, so node code (and
the PR-4 watchdog) cannot tell whether it is talking to one master, a
replicated pair, or a sharded fleet.

* :class:`FailoverMasterProxy` -- one shard, several candidate URIs.
  On a connection error or a ``standby`` refusal it advances to the next
  candidate and keeps cycling (with a short sleep) until the retry
  window closes, which covers the gap between a leader dying and its
  replica promoting: a registration issued mid-failover lands on the
  promoted replica instead of surfacing an error to the node.
* :class:`ShardedMasterProxy` -- routes each call to the shard owning
  the name (:func:`repro.graphplane.shardmap.shard_for`) and merges the
  fleet-wide reads (``getSystemState`` et al) across shards.
* :func:`make_master_proxy` -- picks the cheapest proxy a spec needs;
  a plain URI still gets the plain :class:`MasterProxy`.
"""

from __future__ import annotations

import socket
import threading
import time
import xmlrpc.client

from repro.graphplane import shardmap
from repro.obs import instrument as obs_instrument
from repro.ros.master import FAILURE, SUCCESS, MasterError, MasterProxy
from repro.ros.retry import DEFAULT_FAILOVER_RETRY, RetryPolicy

#: Errors that mean "this candidate, right now" rather than "this call"
#: -- worth trying the next candidate.  A Fault is a server-side bug and
#: deliberately not here; retrying would only mask it.
_RETRYABLE = (OSError, socket.timeout, xmlrpc.client.ProtocolError)


class _Standby(Exception):
    """The candidate answered, but as an unpromoted replica."""


class FailoverMasterProxy:
    """A MasterProxy over an ordered list of candidate URIs.

    Candidates are tried in order; the first that answers (and is not in
    standby) wins and stays preferred until it fails.  All candidates of
    one shard hold the same epoch after a failover (the replica adopts
    the leader's), so flipping between them is invisible to epoch
    watchdogs.
    """

    def __init__(
        self,
        candidate_uris: list[str],
        timeout: float = 1.0,
        retry: RetryPolicy = DEFAULT_FAILOVER_RETRY,
    ) -> None:
        if not candidate_uris:
            raise ValueError("FailoverMasterProxy needs at least one URI")
        self.candidate_uris = list(candidate_uris)
        self.uri = shardmap.format_spec([self.candidate_uris])
        self._timeout = timeout
        self._retry = retry
        self._lock = threading.Lock()
        self._active = 0

    def _proxy_for(self, index: int) -> xmlrpc.client.ServerProxy:
        from repro.graphplane.shard import timeout_proxy

        return timeout_proxy(self.candidate_uris[index], self._timeout)

    def _call_candidate(self, index: int, method: str, args):
        code, status, value = getattr(self._proxy_for(index), method)(*args)
        if code == FAILURE and status == "standby":
            raise _Standby(self.candidate_uris[index])
        if code != SUCCESS:
            raise MasterError(f"{method}: {status}")
        return value

    def _call(self, method: str, *args):
        started = time.monotonic()
        with self._lock:
            start = self._active
        last_exc: Exception | None = None
        sweep = 0
        while True:
            for offset in range(len(self.candidate_uris)):
                index = (start + offset) % len(self.candidate_uris)
                try:
                    value = self._call_candidate(index, method, args)
                except MasterError:
                    raise
                except _RETRYABLE + (_Standby,) as exc:
                    last_exc = exc
                    if sweep > 0 or offset > 0:
                        obs_instrument.graphplane_proxy_failovers.inc()
                    continue
                with self._lock:
                    self._active = index
                return value
            sweep += 1
            if self._retry.gives_up(sweep, started):
                raise MasterError(
                    f"{method}: no candidate master reachable "
                    f"({self.uri}): {last_exc!r}"
                )
            # All candidates down or in standby: a promotion is likely
            # in flight -- back off a beat and sweep again.
            time.sleep(self._retry.delay(sweep))

    # The full MasterProxy surface, routed through _call -----------------
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

class ShardedMasterProxy:
    """Routes master calls to the shard that owns the name.

    Name-scoped calls (register/unregister/lookup, params keyed by
    name) go to ``shard_for(name)``'s proxy.  Fleet-wide reads merge
    every shard's answer.  ``get_epoch`` joins the per-shard epochs into
    one string: any single shard losing its registry changes the
    combined epoch, so the PR-4 watchdog replays -- and the satellite-1
    idempotency work makes that replay harmless on the shards that kept
    their state.
    """

    def __init__(
        self,
        shards: list[list[str]],
        timeout: float = 1.0,
        retry: RetryPolicy = DEFAULT_FAILOVER_RETRY,
    ) -> None:
        if not shards:
            raise ValueError("ShardedMasterProxy needs at least one shard")
        self.shards = [
            FailoverMasterProxy(candidates, timeout=timeout, retry=retry)
            for candidates in shards
        ]
        self.uri = shardmap.format_spec(shards)

    def shard_of(self, name: str) -> FailoverMasterProxy:
        return self.shards[shardmap.shard_for(name, len(self.shards))]

    # -- name-routed calls -----------------------------------------------
    def register_publisher(self, caller_id, topic, type_name, caller_api):
        return self.shard_of(topic).register_publisher(
            caller_id, topic, type_name, caller_api
        )

    def unregister_publisher(self, caller_id, topic, caller_api):
        return self.shard_of(topic).unregister_publisher(
            caller_id, topic, caller_api
        )

    def register_subscriber(self, caller_id, topic, type_name, caller_api):
        return self.shard_of(topic).register_subscriber(
            caller_id, topic, type_name, caller_api
        )

    def unregister_subscriber(self, caller_id, topic, caller_api):
        return self.shard_of(topic).unregister_subscriber(
            caller_id, topic, caller_api
        )

    def register_service(self, caller_id, service, service_uri, caller_api):
        return self.shard_of(service).register_service(
            caller_id, service, service_uri, caller_api
        )

    def unregister_service(self, caller_id, service, service_uri):
        return self.shard_of(service).unregister_service(
            caller_id, service, service_uri
        )

    def lookup_service(self, caller_id, service):
        return self.shard_of(service).lookup_service(caller_id, service)

    def set_param(self, caller_id, key, value):
        return self.shard_of(key).set_param(caller_id, key, value)

    def get_param(self, caller_id, key):
        return self.shard_of(key).get_param(caller_id, key)

    def has_param(self, caller_id, key):
        return self.shard_of(key).has_param(caller_id, key)

    def delete_param(self, caller_id, key):
        return self.shard_of(key).delete_param(caller_id, key)

    # -- fleet-wide reads ------------------------------------------------
    def lookup_node(self, caller_id, node_name):
        # A node registers on every shard its names hash to; any shard
        # that has seen it can answer.  Nodes are not the partition key,
        # so ask the owning-shard guess first, then the rest.
        ordered = [self.shard_of(node_name)] + [
            shard for shard in self.shards
            if shard is not self.shard_of(node_name)
        ]
        last_exc: Exception | None = None
        for shard in ordered:
            try:
                return shard.lookup_node(caller_id, node_name)
            except MasterError as exc:
                last_exc = exc
        raise last_exc if last_exc else MasterError(
            f"lookupNode: unknown node {node_name}"
        )

    def get_epoch(self, caller_id):
        return ":".join(
            shard.get_epoch(caller_id) for shard in self.shards
        )

    def get_topic_types(self, caller_id):
        merged: dict[str, str] = {}
        for shard in self.shards:
            for topic, type_name in shard.get_topic_types(caller_id):
                merged[topic] = type_name
        return [[topic, merged[topic]] for topic in sorted(merged)]

    def get_system_state(self, caller_id):
        publishers: dict[str, list[str]] = {}
        subscribers: dict[str, list[str]] = {}
        services: dict[str, list[str]] = {}
        for shard in self.shards:
            pubs, subs, srvs = shard.get_system_state(caller_id)
            for topic, nodes in pubs:
                publishers.setdefault(topic, []).extend(nodes)
            for topic, nodes in subs:
                subscribers.setdefault(topic, []).extend(nodes)
            for service, nodes in srvs:
                services.setdefault(service, []).extend(nodes)
        return [
            [[name, sorted(set(nodes))]
             for name, nodes in sorted(publishers.items())],
            [[name, sorted(set(nodes))]
             for name, nodes in sorted(subscribers.items())],
            [[name, sorted(set(nodes))]
             for name, nodes in sorted(services.items())],
        ]

    def get_param_names(self, caller_id):
        names: set[str] = set()
        for shard in self.shards:
            names.update(shard.get_param_names(caller_id))
        return sorted(names)


def make_master_proxy(spec: str):
    """The proxy a node should use for a master spec string.

    Plain URI -> MasterProxy (zero new overhead on the common path);
    ``|`` only -> FailoverMasterProxy; any ``,`` -> ShardedMasterProxy.
    """
    if shardmap.is_plain_uri(spec):
        return MasterProxy(spec)
    shards = shardmap.parse_spec(spec)
    if len(shards) == 1:
        return FailoverMasterProxy(shards[0])
    return ShardedMasterProxy(shards)
