"""The benchmark's own spans: recorded around calls into the program,
kept in memory, written out as Chrome ``trace_event`` JSON at the end.

A span is ``(name, start_ns, end_ns, parent, message)``: ``parent`` is
the index of the span that caused it (``None`` for a root) and
``message`` the sequence number every span of one message shares.
Clock: ``time.monotonic_ns`` -- the same timeline ``repro.obs.trace``
stamps, so both sets of spans load into one trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    message: int


class Recorder:
    """An append-only span list; ``add`` returns the new span's index so
    children can name it as their parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int], message: int) -> int:
        self.spans.append(Span(name, start_ns, end_ns, parent, message))
        return len(self.spans) - 1


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start_ns, parent.start_ns)
            end = min(span.end_ns, parent.end_ns)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(index, ())):
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
        result.append(span.end_ns - span.start_ns - covered)
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, list[int]]:
    """Self times grouped by span name (one sample per span)."""
    grouped: dict[str, list[int]] = {}
    for span, own in zip(spans, self_times(spans)):
        grouped.setdefault(span.name, []).append(own)
    return grouped


def chrome_trace(spans: list[Span], pid: int, extra_events=()) -> dict:
    """Chrome ``trace_event`` object format (complete "X" events, µs).
    Each message gets its own row (``tid``) so a message's spans stack.
    ``extra_events`` are appended as-is (the program's own tracer
    export)."""
    events = [
        {
            "name": span.name,
            "cat": "spine",
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": max(span.end_ns - span.start_ns, 0) / 1000.0,
            "pid": pid,
            "tid": span.message,
            "args": {"message": span.message, "parent": span.parent},
        }
        for span in spans
    ]
    events.extend(extra_events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "spine"},
    }
