"""FaultPlan: a deterministic, seedable fault-injection scenario.

A plan is a list of *rules*, each scoped to a seam (``tcpros``,
``bridge``, ``shm``), an optional role/topic, a direction (``send`` /
``recv``) and a size floor, with counter-based triggering: skip the
first ``after`` matching events, then apply to at most ``count`` of
them.  Counters (not wall clocks) make scenarios replayable; where a
rule needs randomness (byte flips, probabilistic drops) it draws from a
private RNG seeded ``f"{plan_seed}:{rule_index}"`` so two runs with the
same seed corrupt the same bytes.

Installation is global but reversible: ``install()`` plants the socket
hook in :mod:`repro.ros.transport.tcpros` (which the bridge shares) and
the doorbell hook in :mod:`repro.ros.transport.shm`; ``uninstall()`` --
or leaving the ``with`` block -- removes both.  The transports never
import this package.

Beyond passive rules, a plan is also the scenario driver's hand on the
graph: ``sever()`` imperatively kills currently-open tracked
connections, which is how tests cut every data link at a precise point
instead of waiting for a counter to come due.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.sockets import ChaosSocket, suspend_link
from repro.ros.transport import shm, tcpros


@dataclass
class Rule:
    """One fault with its scope, trigger window and private RNG."""

    kind: str                     # drop | delay | corrupt | truncate | kill
    seam: Optional[str] = None    # tcpros | bridge | shm | None = any
    role: Optional[str] = None    # subscriber | publisher | server
    topic: Optional[str] = None
    op: str = "send"              # send | recv
    after: int = 0                # skip the first N matching events
    count: Optional[int] = None   # then fire at most N times (None = all)
    min_size: int = 0             # only events moving >= this many bytes
    probability: float = 1.0      # drawn from the rule RNG (deterministic)
    seconds: float = 0.0          # for delay
    flips: int = 3                # for corrupt
    rng: random.Random = field(default_factory=random.Random)
    seen: int = 0
    fired: int = 0

    def consider(self, seam: str, context: dict, op: str, size: int):
        """The action this rule injects for one I/O event, or None."""
        if self.seam is not None and seam != self.seam:
            return None
        if self.role is not None and context.get("role") != self.role:
            return None
        if self.topic is not None and context.get("topic") != self.topic:
            return None
        if op != self.op:
            return None
        if size < self.min_size:
            return None
        self.seen += 1
        if self.seen <= self.after:
            return None
        if self.count is not None and self.fired >= self.count:
            return None
        if self.probability < 1.0 and self.rng.random() >= self.probability:
            return None
        self.fired += 1
        if self.kind == "delay":
            return ("delay", self.seconds)
        if self.kind == "corrupt":
            return ("corrupt", self.rng, self.flips)
        return (self.kind,)


class FaultPlan:
    """A seeded scenario: build rules with the DSL methods, ``install()``
    (or use as a context manager), run the workload, inspect
    ``events``."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: list[Rule] = []
        self._lock = threading.Lock()
        self._sockets: list[ChaosSocket] = []
        self._installed = False
        #: ``(kind, seam, op, size)`` per injected fault, for assertions.
        self.events: list[tuple] = []

    # ------------------------------------------------------------------
    # Scenario DSL
    # ------------------------------------------------------------------
    def _add(self, kind: str, **kwargs) -> "FaultPlan":
        rule = Rule(
            kind=kind,
            rng=random.Random(f"{self.seed}:{len(self._rules)}"),
            **kwargs,
        )
        with self._lock:
            self._rules.append(rule)
        return self

    def drop(self, **kwargs) -> "FaultPlan":
        """Swallow matching sends (one send = one frame = one message)."""
        return self._add("drop", **kwargs)

    def delay(self, seconds: float, **kwargs) -> "FaultPlan":
        """Sleep before matching operations."""
        return self._add("delay", seconds=seconds, **kwargs)

    def corrupt(self, flips: int = 3, **kwargs) -> "FaultPlan":
        """Flip ``flips`` seeded-random bytes of matching payloads."""
        return self._add("corrupt", flips=flips, **kwargs)

    def truncate(self, **kwargs) -> "FaultPlan":
        """Send half of a matching payload, then kill the connection."""
        return self._add("truncate", **kwargs)

    def kill(self, **kwargs) -> "FaultPlan":
        """Close the connection when a matching operation comes due."""
        return self._add("kill", **kwargs)

    def stall_doorbell(self, **kwargs) -> "FaultPlan":
        """Wedge SHMROS: suppress doorbell frames (slot notifications,
        inline payloads *and* keepalives), so the ring looks alive on the
        publisher side while the subscriber hears nothing."""
        kwargs.setdefault("op", "send")
        return self._add("drop", seam="shm", **kwargs)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultPlan":
        tcpros.install_socket_hook(self._wrap)
        shm.install_doorbell_hook(self._doorbell)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self._installed = False
            tcpros.install_socket_hook(None)
            shm.install_doorbell_hook(None)

    def __enter__(self) -> "FaultPlan":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Hook plumbing (called by the transports)
    # ------------------------------------------------------------------
    def _wrap(self, sock, seam: str, context: dict):
        return ChaosSocket(sock, self, seam, context)

    def _decide(self, seam: str, context: dict, op: str, size: int):
        with self._lock:
            for rule in self._rules:
                action = rule.consider(seam, context, op, size)
                if action is not None:
                    self.events.append((action[0], seam, op, size))
                    return action
        return None

    def _doorbell(self, kind: int, sock, size: int) -> bool:
        action = self._decide("shm", {}, "send", size)
        if action is None:
            return True
        name = action[0]
        if name == "delay":
            # On the loop the frame is queued at once but its link is
            # suspended, so it leaves ``seconds`` late and no other link
            # waits; off the loop there is nobody else to stall.
            if not suspend_link(sock, action[1]):
                time.sleep(action[1])
            return True
        if name in ("kill", "truncate"):
            try:
                sock.close()
            except OSError:
                pass
            return False
        # drop / corrupt: doorbell frames are fixed-format control words;
        # anything but forwarding them intact is modelled as suppression.
        return False

    def _track(self, sock: ChaosSocket) -> None:
        with self._lock:
            self._sockets.append(sock)

    def _untrack(self, sock: ChaosSocket) -> None:
        with self._lock:
            if sock in self._sockets:
                self._sockets.remove(sock)

    # ------------------------------------------------------------------
    # Imperative scenario actions
    # ------------------------------------------------------------------
    def sever(
        self,
        seam: Optional[str] = None,
        role: Optional[str] = None,
        topic: Optional[str] = None,
    ) -> int:
        """Abruptly close every tracked connection matching the filters
        (both ends see a reset, neither got a goodbye).  Returns how many
        connections were cut."""
        with self._lock:
            victims = [
                sock for sock in self._sockets
                if (seam is None or sock.seam == seam)
                and (role is None or sock.context.get("role") == role)
                and (topic is None or sock.context.get("topic") == topic)
            ]
        import socket as _socket

        for sock in victims:
            # shutdown() before close(): a thread blocked in recv on this
            # fd only wakes immediately on shutdown -- plain close leaves
            # it hanging until its idle timeout, which would make sever
            # timing depend on unrelated knobs.
            try:
                sock._sock.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock._sock.close()
            except OSError:
                pass
        with self._lock:
            self.events.append(("sever", seam or "*", "both", len(victims)))
        return len(victims)

    def open_connections(self) -> int:
        with self._lock:
            return len(self._sockets)
