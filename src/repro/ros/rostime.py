"""ROS time primitives.

ROS serializes ``time`` and ``duration`` as two 32-bit words
(seconds, nanoseconds).  :class:`Time` and :class:`Duration` are
2-iterables so they interoperate with the serializers' ``(secs, nsecs)``
tuples, while offering the usual arithmetic and conversion helpers.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

_NSECS_PER_SEC = 1_000_000_000


def _normalize(secs: int, nsecs: int) -> tuple[int, int]:
    extra, nsecs = divmod(nsecs, _NSECS_PER_SEC)
    return secs + extra, nsecs


@dataclass(frozen=True, order=True)
class Duration:
    """A signed span of time with nanosecond resolution."""

    secs: int = 0
    nsecs: int = 0

    def __post_init__(self):
        secs, nsecs = _normalize(self.secs, self.nsecs)
        object.__setattr__(self, "secs", secs)
        object.__setattr__(self, "nsecs", nsecs)

    @classmethod
    def from_sec(cls, seconds: float) -> "Duration":
        """Build a Duration from fractional seconds."""
        secs = int(seconds)
        nsecs = int(round((seconds - secs) * _NSECS_PER_SEC))
        return cls(secs, nsecs)

    def to_sec(self) -> float:
        """This span as fractional seconds."""
        return self.secs + self.nsecs / _NSECS_PER_SEC

    def __iter__(self):
        return iter((self.secs, self.nsecs))

    def __add__(self, other: "Duration") -> "Duration":
        return Duration(self.secs + other.secs, self.nsecs + other.nsecs)

    def __sub__(self, other: "Duration") -> "Duration":
        return Duration(self.secs - other.secs, self.nsecs - other.nsecs)

    def __neg__(self) -> "Duration":
        return Duration(-self.secs, -self.nsecs)

    def __bool__(self) -> bool:
        return bool(self.secs or self.nsecs)


@dataclass(frozen=True, order=True)
class Time:
    """A point in time (non-negative), wall-clock based."""

    secs: int = 0
    nsecs: int = 0

    def __post_init__(self):
        secs, nsecs = _normalize(self.secs, self.nsecs)
        if secs < 0:
            raise ValueError("Time cannot be negative")
        object.__setattr__(self, "secs", secs)
        object.__setattr__(self, "nsecs", nsecs)

    @classmethod
    def now(cls) -> "Time":
        """The current wall-clock time."""
        nanos = _time.time_ns()
        return cls(nanos // _NSECS_PER_SEC, nanos % _NSECS_PER_SEC)

    @classmethod
    def from_sec(cls, seconds: float) -> "Time":
        """Build a Time from fractional seconds since the epoch."""
        secs = int(seconds)
        nsecs = int(round((seconds - secs) * _NSECS_PER_SEC))
        return cls(secs, nsecs)

    def to_sec(self) -> float:
        """This instant as fractional seconds since the epoch."""
        return self.secs + self.nsecs / _NSECS_PER_SEC

    def __iter__(self):
        return iter((self.secs, self.nsecs))

    def __add__(self, other: Duration) -> "Time":
        return Time(self.secs + other.secs, self.nsecs + other.nsecs)

    def __sub__(self, other):
        if isinstance(other, Time):
            return Duration(self.secs - other.secs, self.nsecs - other.nsecs)
        if isinstance(other, Duration):
            return Time(self.secs - other.secs, self.nsecs - other.nsecs)
        return NotImplemented
