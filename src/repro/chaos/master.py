"""ChaosMaster: a ROS master that can be paused, resumed and restarted.

The point of keeping the *port* stable across a bounce is that nodes
hold a master URI, not a handle: after ``pause()`` their watchdogs see
connection-refused, back off, and redial the same URI until ``resume()``
brings the listener back.  ``resume(fresh_registry=True)`` swaps in an
empty :class:`~repro.ros.master.MasterRegistry` -- a new epoch -- which
is the amnesiac-restart scenario: every node must notice the epoch
change and replay its registrations or the graph stays silently dark.
"""

from __future__ import annotations

import threading
import xmlrpc.server

from repro.ros.master import MasterRegistry, _MasterRPCHandlers


class ChaosMaster:
    """A bounceable master with a stable URI."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self.registry = MasterRegistry()
        self._server = None
        self._thread = None
        self._lock = threading.Lock()
        self._start()
        self.uri = f"http://{self._host}:{self._port}/"

    def _start(self) -> None:
        # SimpleXMLRPCServer sets allow_reuse_address, so rebinding the
        # port we just closed works without a TIME_WAIT dance.
        server = xmlrpc.server.SimpleXMLRPCServer(
            (self._host, self._port), logRequests=False, allow_none=True
        )
        server.register_instance(_MasterRPCHandlers(self.registry))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="chaos-master",
        )
        thread.start()
        self._host, self._port = server.server_address
        self._server, self._thread = server, thread

    # ------------------------------------------------------------------
    # Scenario actions
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> str:
        return self.registry.epoch

    def pause(self) -> None:
        """Stop answering (connection refused) but keep the registry --
        the master is *down*, not *reset*."""
        with self._lock:
            server, thread = self._server, self._thread
            self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2.0)

    def resume(self, fresh_registry: bool = False) -> None:
        """Come back on the same port.  ``fresh_registry=True`` models a
        crash-restart that lost all state (new epoch, empty registry);
        the default models a network partition healing."""
        with self._lock:
            if self._server is not None:
                return
            if fresh_registry:
                self.registry = MasterRegistry()
            self._start()

    def restart(self) -> None:
        """Convenience: a full state-losing bounce."""
        self.pause()
        self.resume(fresh_registry=True)

    def shutdown(self) -> None:
        self.pause()

    def __enter__(self) -> "ChaosMaster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ChaosGraphPlane:
    """A bounceable *sharded* graph plane: ChaosMaster semantics, but
    each fault targets one shard.

    Wraps :class:`repro.graphplane.launch.GraphPlane` and exposes the
    same verbs as :class:`ChaosMaster` with a ``shard`` argument --
    ``pause(0)`` downs only shard 0's leader, ``restart(0)`` bounces it
    back amnesiac.  Replicas keep their probe/promote behaviour, so
    pausing a leader long enough is the "kill the leader mid-traffic"
    scenario.  All timing knobs are plain numbers and every decision is
    deterministic given the scenario's seed, so a failure replays
    exactly.
    """

    def __init__(
        self,
        shards: int = 2,
        replicas: bool = True,
        host: str = "127.0.0.1",
        probe_interval: float = 0.05,
        probe_failures: int = 3,
    ) -> None:
        from repro.graphplane.launch import GraphPlane

        self.plane = GraphPlane(
            shards=shards,
            replicas=replicas,
            host=host,
            probe_interval=probe_interval,
            probe_failures=probe_failures,
        )
        self.spec = self.plane.spec

    # -- lookup ----------------------------------------------------------
    def shard_for(self, name: str) -> int:
        """Which shard a fault must target to affect ``name``."""
        return self.plane.shard_for(name)

    def leader(self, shard: int):
        return self.plane.leaders[shard]

    def replica(self, shard: int):
        return self.plane.replicas[shard]

    # -- per-shard scenario actions --------------------------------------
    def pause(self, shard: int) -> None:
        """Down one shard's leader (connection refused), state kept."""
        self.plane.leaders[shard].pause()

    def restart(self, shard: int) -> None:
        """Amnesiac bounce of one shard's leader (new epoch)."""
        self.plane.leaders[shard].restart()

    def kill_leader(self, shard: int) -> None:
        """Permanently down a leader: the shard's replica must promote.
        (Alias of :meth:`pause` -- the difference is the scenario's
        intent never to resume.)"""
        self.pause(shard)

    def shutdown(self) -> None:
        self.plane.shutdown()

    def __enter__(self) -> "ChaosGraphPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
