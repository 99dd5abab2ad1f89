"""Retry/backoff policy shared by the self-healing layers.

One policy object answers three questions for a reconnect loop:

- *how long to wait* before attempt ``n`` (exponential backoff with
  bounded, optionally seeded jitter -- deterministic under a seeded RNG
  so chaos scenarios replay exactly);
- *whether to keep trying* (a ``max_retries`` cap and a wall-clock
  ``deadline`` measured from the first failure);
- *when to downgrade* the transport (after ``shm_failures`` consecutive
  shared-memory failures the next attempt negotiates plain TCPROS).

Used by the subscriber's per-link reconnect, the node's master watchdog
(with ``max_retries=None``: a node never gives up on its master) and the
chaos soak harness.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``max_retries=None`` retries forever; ``deadline=None`` removes the
    wall-clock bound.  ``jitter`` is the +/- fraction applied to each
    delay; pass a seeded ``rng`` for reproducible schedules.
    """

    base_delay: float = 0.05
    max_delay: float = 2.0
    factor: float = 2.0
    jitter: float = 0.2
    max_retries: Optional[int] = 8
    deadline: Optional[float] = 30.0
    #: Consecutive SHMROS failures before the next attempt negotiates
    #: plain TCPROS (the SHM -> TCPROS downgrade of the failover ladder).
    shm_failures: int = 1
    rng: Optional[random.Random] = None

    def delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt`` (1-based)."""
        if attempt < 1:
            attempt = 1
        raw = min(self.max_delay,
                  self.base_delay * (self.factor ** (attempt - 1)))
        if self.jitter:
            rng = self.rng if self.rng is not None else random
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)

    def gives_up(self, attempt: int, started: float,
                 now: Optional[float] = None) -> bool:
        """Whether attempt ``attempt`` (1-based) should not run at all."""
        if self.max_retries is not None and attempt > self.max_retries:
            return True
        if self.deadline is not None:
            if (now if now is not None else time.monotonic()) \
                    - started > self.deadline:
                return True
        return False

    def seeded(self, seed) -> "RetryPolicy":
        """A copy of this policy with a private seeded RNG (deterministic
        jitter for chaos scenarios)."""
        return RetryPolicy(
            base_delay=self.base_delay, max_delay=self.max_delay,
            factor=self.factor, jitter=self.jitter,
            max_retries=self.max_retries, deadline=self.deadline,
            shm_failures=self.shm_failures, rng=random.Random(seed),
        )


#: Defaults used when a node/subscriber is not given an explicit policy.
DEFAULT_LINK_RETRY = RetryPolicy()
DEFAULT_MASTER_RETRY = RetryPolicy(max_retries=None, deadline=None,
                                   base_delay=0.1, max_delay=2.0)
#: Candidate-sweep backoff for graph-plane failover proxies: short and
#: shallow, because the window it must ride out (replica promotion) is a
#: few probe intervals, and every sweep already tried every candidate.
DEFAULT_FAILOVER_RETRY = RetryPolicy(base_delay=0.025, max_delay=0.2,
                                     factor=1.5, jitter=0.25,
                                     max_retries=None, deadline=2.0)


@dataclass
class RetryState:
    """Mutable bookkeeping for one reconnect target (one publisher URI)."""

    attempts: int = 0
    started: float = field(default_factory=time.monotonic)
    #: Consecutive failures whose transport was (or was negotiating)
    #: shared memory -- drives the SHM -> TCPROS downgrade.
    shm_failures: int = 0
    exhausted: bool = False

    def allow_shm(self, policy: RetryPolicy) -> bool:
        return self.shm_failures < policy.shm_failures


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01,
               desc: str = "condition"):
    """Poll ``predicate`` until truthy; the condition-based wait used by
    every chaos test (no bare sleeps).  Returns the truthy value, raises
    ``TimeoutError`` with ``desc`` otherwise."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out after {timeout}s waiting for {desc}")
        time.sleep(interval)
