"""Shared fixtures: the registered library, private managers, workloads."""

from __future__ import annotations

import random

import pytest

import repro.msg.library  # noqa: F401  (registers the standard library)
from repro.msg.registry import TypeRegistry, default_registry
from repro.sfm.manager import MessageManager


@pytest.fixture(autouse=True)
def _fresh_config():
    """Read-once config cache, re-armed per test: ``monkeypatch.setenv``
    of a ``REPRO_*`` switch takes effect because the first accessor call
    inside the test re-reads the environment."""
    from repro import config

    config.reset()
    yield
    config.reset()


@pytest.fixture
def registry() -> TypeRegistry:
    """The process-wide registry with the standard library loaded."""
    return default_registry


@pytest.fixture
def manager() -> MessageManager:
    """A private message manager so lifecycle assertions are exact."""
    return MessageManager()


@pytest.fixture
def fresh_registry() -> TypeRegistry:
    """An empty registry for registration-behaviour tests."""
    return TypeRegistry()


def feed_splits(make_decoder, wire: bytes, seed: int = 0, rounds: int = 6):
    """Run ``wire`` through a fresh incremental decoder whole,
    byte-at-a-time and at ``rounds`` seeded random partitions, assert
    every partition had the identical outcome -- the same events, or the
    same events up to the same single error -- and return it as
    ``(events, error)`` with ``error`` ``None`` or ``(type, message)``.
    """
    rng = random.Random(seed)
    partitions = [[len(wire)], [1] * len(wire)]
    for _ in range(rounds):
        cuts = sorted(
            rng.randrange(len(wire) + 1)
            for _ in range(rng.randrange(1, 9))
        )
        edges = [0] + cuts + [len(wire)]
        partitions.append([b - a for a, b in zip(edges, edges[1:])])
    outcomes = []
    for sizes in partitions:
        decoder = make_decoder()
        events: list = []
        error = None
        pos = 0
        for size in sizes:
            try:
                events += decoder.feed(wire[pos : pos + size])
            except Exception as exc:
                error = (type(exc), str(exc))
                break
            pos += size
        outcomes.append((events, error))
    for sizes, outcome in zip(partitions[1:], outcomes[1:]):
        assert outcome == outcomes[0], (
            f"decoder outcome depends on the split ({len(sizes)} chunks, "
            f"seed {seed})"
        )
    return outcomes[0]
