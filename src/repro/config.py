"""One window onto every ``REPRO_*`` environment switch.

Five switches, no more: transport choices (``REPRO_SHMROS``,
``REPRO_TZC``), observability (``REPRO_OBS``, ``REPRO_OBS_WIRE``) and
``REPRO_SOAK``.  The I/O model
and the SFM accessor/allocator strategies are not among them -- every
connection runs on the reactor (:mod:`repro.ros.reactor`), send-side
frame coalescing is a constant of the link pump, compiled accessors
follow the host's byte order and growth-mode records always take a
slab.  No subsystem reads ``os.environ`` itself; they call the typed,
*read-once* accessors here:

- every switch is declared once in :data:`SWITCHES` with its default,
  type and a one-line description;
- the first access snapshots the environment value and every later
  access returns the same answer (so a switch cannot silently flip
  mid-run and leave half the process on each side of it);
- ``python -m repro.ros.tools config`` dumps the whole table, resolved
  against the current environment, for operators and CI logs.

Tests that need to flip a switch after import call :func:`reset`
(between processes the environment alone is enough -- the common
pattern is a subprocess with a patched env, which needs nothing here).
"""

from __future__ import annotations

import os
import threading
from typing import Optional

__all__ = [
    "SWITCHES", "flag", "reset", "describe",
    "tzc", "shmros", "obs", "obs_wire", "soak",
]


class Switch:
    """One declared environment switch (boolean flavoured)."""

    __slots__ = ("name", "default", "description", "truthy")

    def __init__(self, name: str, default: bool, description: str,
                 truthy: bool = False) -> None:
        self.name = name
        self.default = default
        self.description = description
        #: ``truthy=False`` (the common kill-switch spelling): enabled
        #: unless the variable is exactly ``"0"``.  ``truthy=True`` (the
        #: opt-in spelling): enabled only when exactly ``"1"``.
        self.truthy = truthy

    def read(self, environ=os.environ) -> bool:
        raw = environ.get(self.name)
        if raw is None or raw == "":
            return self.default
        if self.truthy:
            return raw == "1"
        return raw != "0"


#: Every recognised switch, in display order.
SWITCHES: dict[str, Switch] = {
    switch.name: switch
    for switch in (
        Switch("REPRO_TZC", True,
               "TZC partial serialization on remote SFM links"),
        Switch("REPRO_SHMROS", True,
               "shared-memory transport (slot rings + doorbell)"),
        Switch("REPRO_OBS", True,
               "metrics registry (counters, gauges, histograms)"),
        Switch("REPRO_OBS_WIRE", True,
               "16-byte trace prefix on negotiated connections"),
        Switch("REPRO_SOAK", False,
               "long-running soak variants of tests and benches",
               truthy=True),
    )
}

_cache: dict[str, bool] = {}
_lock = threading.Lock()


def flag(name: str) -> bool:
    """The resolved value of one switch, snapshotted on first read."""
    value = _cache.get(name)
    if value is None:
        with _lock:
            value = _cache.get(name)
            if value is None:
                value = _cache[name] = SWITCHES[name].read()
    return value


def reset(name: Optional[str] = None) -> None:
    """Drop the read-once snapshot (tests only): the next access re-reads
    the environment.  With ``name=None`` every switch is dropped."""
    with _lock:
        if name is None:
            _cache.clear()
        else:
            _cache.pop(name, None)


def describe() -> list[dict]:
    """The full switch table resolved against the current process state
    (backing ``tools config``).  ``value`` is the read-once snapshot
    when one exists, else the environment as it would be read now."""
    rows = []
    for switch in SWITCHES.values():
        raw = os.environ.get(switch.name)
        cached = _cache.get(switch.name)
        rows.append({
            "name": switch.name,
            "value": cached if cached is not None else switch.read(),
            "default": switch.default,
            "env": raw if raw is not None else "",
            "pinned": cached is not None,
            "description": switch.description,
        })
    return rows


# ----------------------------------------------------------------------
# Typed accessors (what the subsystems call)
# ----------------------------------------------------------------------
def tzc() -> bool:
    return flag("REPRO_TZC")


def shmros() -> bool:
    return flag("REPRO_SHMROS")


def obs() -> bool:
    return flag("REPRO_OBS")


def obs_wire() -> bool:
    return flag("REPRO_OBS_WIRE")


def soak() -> bool:
    return flag("REPRO_SOAK")
