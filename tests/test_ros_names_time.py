"""Unit tests for graph names, Time/Duration and Rate."""

import time

import pytest

from repro.ros import names
from repro.ros.exceptions import NameError_
from repro.ros.rate import Rate
from repro.ros.rostime import Duration, Time


class TestNames:
    @pytest.mark.parametrize(
        "name,namespace,node,expected",
        [
            ("/abs/topic", "/", "", "/abs/topic"),
            ("image", "/camera", "", "/camera/image"),
            ("image", "/", "", "/image"),
            ("~debug", "/", "/viewer", "/viewer/debug"),
            ("a/b", "/ns", "", "/ns/a/b"),
        ],
    )
    def test_resolution(self, name, namespace, node, expected):
        assert names.resolve(name, namespace, node) == expected

    def test_private_without_node_rejected(self):
        with pytest.raises(NameError_):
            names.resolve("~x")

    @pytest.mark.parametrize("bad", ["", "9abc", "a b", "a//b", "a$b"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(NameError_):
            names.validate_name(bad)

    def test_namespace_of(self):
        assert names.namespace_of("/a/b/c") == "/a/b"
        assert names.namespace_of("/a") == "/"


class TestTime:
    def test_normalization(self):
        t = Time(1, 1_500_000_000)
        assert (t.secs, t.nsecs) == (2, 500_000_000)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Time(-1, 0)

    def test_now_monotonic_enough(self):
        a = Time.now()
        b = Time.now()
        assert b >= a

    def test_arithmetic(self):
        t = Time(10, 0)
        d = Duration(1, 500_000_000)
        assert t + d == Time(11, 500_000_000)
        assert (t + d) - t == d
        assert t - d == Time(8, 500_000_000)
        assert d + d == Duration(3, 0)
        assert d - Duration(2, 0) == Duration(0, -500_000_000)

    def test_iterable_as_wire_tuple(self):
        secs, nsecs = Time(3, 4)
        assert (secs, nsecs) == (3, 4)
        assert tuple(Duration(3, 4)) == (3, 4)

    def test_from_to_sec(self):
        assert Time.from_sec(1.25).to_sec() == pytest.approx(1.25)
        assert Duration.from_sec(-0.5).to_sec() == pytest.approx(-0.5)

    def test_duration_negation(self):
        assert -Duration(1, 0) == Duration(-1, 0)

    def test_duration_bool(self):
        assert not Duration()
        assert Duration(0, 1)


class TestRate:
    def test_sleep_maintains_period(self):
        rate = Rate(100.0)
        start = time.monotonic()
        for _ in range(5):
            rate.sleep()
        elapsed = time.monotonic() - start
        assert elapsed >= 0.04

    def test_missed_deadline_reanchors(self):
        rate = Rate(1000.0)
        time.sleep(0.01)
        assert rate.sleep() is False
        assert rate.sleep() is True

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Rate(0)

    def test_backwards_clock_jump_reanchors(self):
        """A clock that jumps backwards (sim-time restart, looping bag
        replay) must cost at most one period -- not a stall for the whole
        phantom interval, and never a busy-spin."""
        now = [1000.0]
        slept: list[float] = []

        def clock() -> float:
            return now[0]

        def sleeper(seconds: float) -> None:
            slept.append(seconds)
            now[0] += seconds

        rate = Rate(10.0, clock=clock, sleeper=sleeper)
        assert rate.sleep() is True  # normal cycle on the old timeline
        now[0] = 100.0  # the clock falls 900 s into the past
        assert rate.sleep() is True
        # One period of sleep, not the 900 s the stale deadline implies.
        assert slept[-1] == pytest.approx(rate.period)
        # The schedule is re-anchored: the next cycle is normal again.
        assert rate.sleep() is True
        assert slept[-1] <= rate.period + 1e-9

    def test_reset_adopts_the_current_timeline(self):
        now = [50.0]
        rate = Rate(10.0, clock=lambda: now[0],
                    sleeper=lambda s: now.__setitem__(0, now[0] + s))
        now[0] = 5.0  # backwards jump before reset
        rate.reset()
        assert rate._next_deadline == pytest.approx(5.0 + rate.period)
        assert rate.sleep() is True
