"""A chaos ``delay`` holds back one link, not the reactor.

Every link's I/O runs on the one shared loop, so a delay served by
sleeping there would freeze all of them.  The plan instead suspends the
matching link for the delay and lets the loop go on: link A's sends
leave 200 ms late while link B, on the same loop, delivers at its usual
latency.
"""

from __future__ import annotations

import threading
import time

from repro.msg.library import String
from repro.ros.retry import wait_until

DELAY = 0.2
FAST_MESSAGES = 50
FAST_BOUND = 0.05


def test_delay_on_one_link_leaves_the_other_links_latency_flat(
        node_factory, plan_factory):
    plan = plan_factory(seed=3)
    pub_node = node_factory("delay_pub")
    sub_node = node_factory("delay_sub")

    slow_got: list[str] = []
    latencies: list[float] = []
    slow_pub = pub_node.advertise("/slow", String)
    fast_pub = pub_node.advertise("/fast", String)
    sub_node.subscribe("/slow", String,
                       lambda msg: slow_got.append(msg.data))
    sub_node.subscribe(
        "/fast", String,
        lambda msg: latencies.append(
            (time.monotonic_ns() - int(msg.data)) / 1e9
        ),
    )
    assert slow_pub.wait_for_subscribers(1, timeout=10)
    assert fast_pub.wait_for_subscribers(1, timeout=10)

    plan.delay(DELAY, seam="tcpros", role="publisher", topic="/slow",
               op="send")

    stop = threading.Event()

    def pump_slow() -> None:
        index = 0
        while not stop.wait(0.01):
            msg = String()
            msg.data = str(index)
            slow_pub.publish(msg)
            index += 1

    thread = threading.Thread(target=pump_slow, daemon=True)
    thread.start()
    try:
        wait_until(
            lambda: ("delay", "tcpros", "send") in
            {event[:3] for event in plan.events},
            desc="the delay rule to fire on link A",
        )
        for _ in range(FAST_MESSAGES):
            msg = String()
            msg.data = str(time.monotonic_ns())
            fast_pub.publish(msg)
            time.sleep(0.005)
        wait_until(lambda: len(latencies) >= FAST_MESSAGES,
                   desc="link B deliveries")
        # Deferred, not dropped: link A's messages still arrive, late.
        wait_until(lambda: slow_got, timeout=5.0,
                   desc="a delayed delivery on link A")
    finally:
        stop.set()
        thread.join(5)
    assert max(latencies) < FAST_BOUND, (
        f"link B max latency {max(latencies) * 1e3:.1f} ms while link A "
        f"was held {DELAY * 1e3:.0f} ms per send"
    )
