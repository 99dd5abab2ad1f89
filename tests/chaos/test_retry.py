"""Retry policy math, scheduling helpers, and the master watchdog's
epoch-driven re-registration (the control-plane half of self-healing).
"""

from __future__ import annotations

import pytest

from repro.msg.library import String
from repro.ros.master import MasterProxy
from repro.ros.retry import (
    DEFAULT_MASTER_RETRY,
    RetryPolicy,
    RetryState,
    wait_until,
)


class TestRetryPolicy:
    def test_delay_grows_exponentially_to_the_cap(self):
        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.5,
                             jitter=0.0)
        assert [policy.delay(n) for n in range(1, 6)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_delay_clamps_attempt_below_one(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        assert policy.delay(0) == policy.delay(1) == 0.1

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.2)
        for _ in range(50):
            assert 0.8 <= policy.delay(1) <= 1.2

    def test_seeded_schedules_replay_exactly(self):
        policy = RetryPolicy(base_delay=0.05, jitter=0.3)
        first = [policy.seeded(42).delay(n) for n in range(1, 8)]
        second = [policy.seeded(42).delay(n) for n in range(1, 8)]
        other = [policy.seeded(43).delay(n) for n in range(1, 8)]
        assert first == second
        assert first != other

    def test_gives_up_on_max_retries(self):
        policy = RetryPolicy(max_retries=2, deadline=None)
        assert not policy.gives_up(2, started=0.0, now=0.0)
        assert policy.gives_up(3, started=0.0, now=0.0)

    def test_gives_up_past_the_deadline(self):
        policy = RetryPolicy(max_retries=None, deadline=30.0)
        assert not policy.gives_up(100, started=0.0, now=29.0)
        assert policy.gives_up(1, started=0.0, now=31.0)

    def test_master_policy_never_gives_up(self):
        assert not DEFAULT_MASTER_RETRY.gives_up(10_000, started=0.0,
                                                 now=1e9)

    def test_state_downgrades_shm_after_the_threshold(self):
        policy = RetryPolicy(shm_failures=2)
        state = RetryState()
        assert state.allow_shm(policy)
        state.shm_failures = 1
        assert state.allow_shm(policy)
        state.shm_failures = 2
        assert not state.allow_shm(policy)


class TestWaiters:
    def test_wait_until_returns_the_truthy_value(self):
        values = iter([0, 0, "ready"])
        assert wait_until(lambda: next(values), timeout=1.0) == "ready"

    def test_wait_until_timeout_names_the_condition(self):
        with pytest.raises(TimeoutError, match="the missing thing"):
            wait_until(lambda: False, timeout=0.05, interval=0.01,
                       desc="the missing thing")


class TestMasterWatchdog:
    def test_node_survives_a_pause_without_state_loss(self, chaos_master,
                                                      node_factory):
        node = node_factory("steady")
        node.advertise("/steady", String)
        wait_until(lambda: chaos_master.registry.publishers_of("/steady"),
                   desc="registration")
        chaos_master.pause()
        wait_until(lambda: node.master_state in ("reconnecting", "dead"),
                   desc="watchdog noticing the outage")
        chaos_master.resume()  # same registry, same epoch
        wait_until(lambda: node.master_state == "healthy",
                   desc="watchdog recovering")
        assert chaos_master.registry.publishers_of("/steady")

    def test_epoch_change_triggers_full_reregistration(self, chaos_master,
                                                       node_factory):
        node = node_factory("replayer")
        node.advertise("/replayed", String)
        node.subscribe("/watched", String, lambda _msg: None)
        wait_until(lambda: chaos_master.registry.publishers_of("/replayed"),
                   desc="initial registration")
        old_epoch = chaos_master.epoch
        chaos_master.restart()  # amnesiac bounce: empty registry, new epoch
        assert chaos_master.epoch != old_epoch
        wait_until(lambda: chaos_master.registry.publishers_of("/replayed"),
                   desc="publisher replay")
        wait_until(
            lambda: "/watched" in dict(chaos_master.registry.topic_types()),
            desc="subscriber replay",
        )
        assert node.topic_stats()["master"]["epoch"] == chaos_master.epoch

    def test_get_epoch_rpc_round_trips(self, chaos_master):
        proxy = MasterProxy(chaos_master.uri)
        assert proxy.get_epoch("/tester") == chaos_master.epoch
