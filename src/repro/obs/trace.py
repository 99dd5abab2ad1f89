"""Per-message tracing with Chrome ``trace_event`` export.

A *trace id* is minted by the publisher when tracing is active (see
:meth:`Tracer.start`), piggybacked on the wire -- TCPROS connections that
negotiated ``trace=1`` in the connection header carry a 16-byte
``<trace_id, publish_monotonic_ns>`` prefix inside each frame; SHMROS
doorbell frames carry the same two fields natively -- and every stage
stamps a *span* against it: ``publish`` (encode + enqueue on the
publisher), ``send`` (the socket/ring write), ``recv`` (publish to
frame-arrival, i.e. queueing + transport), ``decode`` and ``callback``
on the subscriber.

Timestamps are ``time.monotonic_ns()``: on Linux ``CLOCK_MONOTONIC`` is
machine-wide, so spans from two processes on one machine land on one
consistent timeline (the intra-machine case the paper measures).  Cross-
machine traces need per-host offset correction, which this module does
not attempt.

``export()`` emits the Chrome ``trace_event`` JSON object format --
load it at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Optional

from repro.obs import metrics


class Span:
    """One recorded stage of one traced message."""

    __slots__ = ("name", "trace_id", "start_ns", "end_ns", "thread", "args")

    def __init__(self, name: str, trace_id: int, start_ns: int,
                 end_ns: int, thread: int, args: dict) -> None:
        self.name = name
        self.trace_id = trace_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.thread = thread
        self.args = args

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.trace_id:#x}, "
            f"dur={self.duration_ns / 1000:.1f}us, args={self.args})"
        )


class Tracer:
    """A bounded in-memory span recorder with sampled id minting.

    Hot-path contract: with tracing stopped, :meth:`new_trace_id` is one
    attribute check returning 0, and every instrumentation site guards
    its clock reads and :meth:`record` calls behind ``if trace_id:`` --
    an untraced message pays nothing beyond that check.  Subscribers
    record spans for any nonzero id they see on the wire, so the
    sampling decision is made once, at the publisher.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self._events: deque[Span] = deque(maxlen=capacity)
        self._active = False
        self._sample_every = 1
        #: High bits namespace ids per process so two traced processes on
        #: one machine never mint the same id.
        self._id_base = (os.getpid() & 0xFFFF) << 48
        self._ids = itertools.count(1)
        self._calls = itertools.count()

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def start(self, sample_every: int = 1, clear: bool = True) -> None:
        """Open a trace window: every ``sample_every``-th published
        message gets a trace id (1 = trace everything)."""
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if clear:
            self._events.clear()
        self._sample_every = sample_every
        self._active = True

    def stop(self) -> None:
        """Close the window (already recorded spans are kept; in-flight
        traced messages may still land -- drain before exporting)."""
        self._active = False

    def clear(self) -> None:
        self._events.clear()

    # ------------------------------------------------------------------
    # Recording (instrumentation sites)
    # ------------------------------------------------------------------
    def new_trace_id(self) -> int:
        """A fresh id when the window is open and this message is
        sampled, else 0 (the wire value for "untraced")."""
        if not self._active:
            return 0
        if self._sample_every > 1 and next(self._calls) % self._sample_every:
            return 0
        return self._id_base | next(self._ids)

    def record(self, name: str, trace_id: int, start_ns: int, end_ns: int,
               **args) -> None:
        """Store one span (no-op for id 0; deque append is atomic under
        the GIL, so no lock on this path)."""
        if not trace_id:
            return
        self._events.append(
            Span(name, trace_id, start_ns, end_ns,
                 threading.get_ident(), args)
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def spans(self, trace_id: Optional[int] = None) -> list[Span]:
        events = list(self._events)
        if trace_id is None:
            return events
        return [span for span in events if span.trace_id == trace_id]

    def trace_ids(self) -> list[int]:
        """Distinct ids seen, in first-appearance order."""
        seen: dict[int, None] = {}
        for span in list(self._events):
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def export(self) -> dict:
        """The Chrome ``trace_event`` JSON object format: complete
        ("ph":"X") events in microseconds on the shared monotonic
        timeline."""
        pid = os.getpid()
        events = []
        for span in list(self._events):
            events.append({
                "name": span.name,
                "cat": "miniros",
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": max(span.duration_ns, 0) / 1000.0,
                "pid": pid,
                "tid": span.thread & 0xFFFFFFFF,
                "args": {"trace_id": f"{span.trace_id:#x}", **span.args},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs.trace"},
        }

    def export_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.export(), indent=indent)


#: The process-wide tracer the middleware instruments against.
tracer = Tracer()


def wire_enabled() -> bool:
    """Whether new connections should negotiate the traced wire prefix.

    Tied to the metrics kill switch (the prefix also carries the publish
    timestamp that feeds the latency histogram) plus its own override:
    ``REPRO_OBS_WIRE=0`` keeps frames byte-identical to the untraced
    format while leaving counters on.
    """
    from repro import config

    return metrics.global_registry.enabled and config.obs_wire()
