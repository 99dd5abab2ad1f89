"""A thread-safe metrics registry with a Prometheus text renderer.

Three instrument kinds -- :class:`Counter`, :class:`Gauge` and
:class:`Histogram` (fixed buckets) -- grouped into *families* keyed by
label values, the Prometheus data model.  The hot-path contract:

- an increment/observe is one ``enabled`` flag check, one lock
  acquisition and one integer add -- no allocation, no string work;
- with the registry disabled every instrument method returns
  immediately after the flag check, so the instrumented and
  uninstrumented paths differ by a single attribute load;
- anything more expensive (walking live publishers, snapshotting the
  SFM manager) belongs in a *collector* -- a callable the registry runs
  at render (scrape) time, never per message.

Label children are resolved once and cached by the call site
(``family.labels(topic=...)`` at init, ``child.inc()`` per message), so
the per-message path never touches a dict.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Callable, Iterable, Optional, Sequence

#: Default histogram bounds (seconds): tuned for pub/sub latencies from
#: tens of microseconds (intra-machine SHMROS) to whole seconds (a
#: saturated bridge client).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt(value) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _labels_suffix(labelnames: Sequence[str], labelvalues: Sequence[str],
                   extra: Optional[tuple[str, str]] = None) -> str:
    pairs = [
        f'{name}="{_escape(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Child:
    """One (labelvalues -> value) cell of a family."""

    __slots__ = ("_family", "_labelvalues", "_lock", "_value")

    def __init__(self, family: "_Family", labelvalues: tuple[str, ...]):
        self._family = family
        self._labelvalues = labelvalues
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self):
        return self._value


class _CounterChild(_Child):
    def inc(self, amount: int = 1) -> None:
        if not self._family.registry.enabled:
            return
        with self._lock:
            self._value += amount

    def set_total(self, value) -> None:
        """Overwrite the running total -- for scrape-time collectors that
        mirror an externally maintained monotonic counter (a publisher's
        ``published_count``), never for hot-path call sites."""
        with self._lock:
            self._value = value


class _GaugeChild(_Child):
    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        if not self._family.registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("_counts", "_sum")

    def __init__(self, family: "_Family", labelvalues: tuple[str, ...]):
        super().__init__(family, labelvalues)
        self._counts = [0] * (len(family.buckets) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if not self._family.registry.enabled:
            return
        index = bisect.bisect_left(self._family.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._value += 1  # observation count

    @property
    def count(self) -> int:
        return self._value

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) observation counts, +Inf last."""
        with self._lock:
            return list(self._counts)


class _Family:
    """All children of one metric name (one per label-value tuple)."""

    kind = "untyped"
    child_class = _Child

    def __init__(self, registry: "Registry", name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.registry = registry
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()

    def labels(self, **labelvalues):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self.child_class(self, key)
                self._children[key] = child
            return child

    def _default_child(self):
        """The single child of an unlabelled family (created lazily so
        the family itself can be used as the instrument)."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled; use .labels()")
        return self.labels()

    def clear(self) -> None:
        """Drop every child (collectors repopulate on each scrape, so
        cells for dead objects disappear from the exposition)."""
        with self._lock:
            self._children.clear()

    def children(self) -> dict[tuple[str, ...], _Child]:
        with self._lock:
            return dict(self._children)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key in sorted(self.children()):
            lines.extend(self._render_child(key, self._children[key]))
        return lines

    def _render_child(self, key, child) -> list[str]:
        suffix = _labels_suffix(self.labelnames, key)
        return [f"{self.name}{suffix} {_fmt(child.value)}"]


class Counter(_Family):
    kind = "counter"
    child_class = _CounterChild

    def inc(self, amount: int = 1) -> None:
        self._default_child().inc(amount)

    def set_total(self, value) -> None:
        self._default_child().set_total(value)

    @property
    def value(self):
        return self._default_child().value


class Gauge(_Family):
    kind = "gauge"
    child_class = _GaugeChild

    def set(self, value) -> None:
        self._default_child().set(value)

    def inc(self, amount=1) -> None:
        self._default_child().inc(amount)

    def dec(self, amount=1) -> None:
        self._default_child().dec(amount)

    @property
    def value(self):
        return self._default_child().value


class Histogram(_Family):
    kind = "histogram"
    child_class = _HistogramChild

    def __init__(self, registry, name, help_text, labelnames=(),
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(registry, name, help_text, labelnames)
        bounds = tuple(sorted(buckets or DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def _render_child(self, key, child) -> list[str]:
        counts = child.bucket_counts()
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            suffix = _labels_suffix(
                self.labelnames, key, ("le", f"{bound:.10g}")
            )
            lines.append(f"{self.name}_bucket{suffix} {cumulative}")
        cumulative += counts[-1]
        inf_suffix = _labels_suffix(self.labelnames, key, ("le", "+Inf"))
        lines.append(f"{self.name}_bucket{inf_suffix} {cumulative}")
        plain = _labels_suffix(self.labelnames, key)
        lines.append(f"{self.name}_sum{plain} {_fmt(child.sum)}")
        lines.append(f"{self.name}_count{plain} {child.count}")
        return lines


class Registry:
    """A namespace of metric families plus scrape-time collectors."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Family constructors (idempotent: re-registering the same name and
    # kind returns the existing family, so module reloads are safe)
    # ------------------------------------------------------------------
    def _family(self, cls, name, help_text, labels, **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or \
                        existing.labelnames != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different kind or label set"
                    )
                return existing
            family = cls(self, name, help_text, labels, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._family(Histogram, name, help_text, labels,
                            buckets=buckets)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a zero-arg callable run before each render; it reads
        live objects and sets family values (the cheap-hot-path/expensive-
        scrape split)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def collect(self) -> None:
        """Run every collector (a failing collector is skipped, never
        fatal to the scrape)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition of every family (collectors
        run first)."""
        self.collect()
        lines: list[str] = []
        for family in sorted(self.families(), key=lambda f: f.name):
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


from repro import config as _config

#: The process-wide registry the middleware instruments against.
global_registry = Registry(enabled=_config.obs())
