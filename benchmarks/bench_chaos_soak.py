"""Chaos soak: repeated fault/recovery cycles with recovery-time stats.

One 100 Hz stream runs for the whole soak while faults land on it in a
seeded rotation -- link severs (data-plane only) and amnesiac master
bounces (control plane loses everything) -- and each round measures the
time from the fault landing (or the master returning) until delivery
resumes.  The summary is the paper-style tail view of self-healing:
recovery p50/p99 plus total message loss across the soak.

Run standalone via ``snapshot.py --experiment chaos`` (writes
``BENCH_chaos.json``), or under pytest with ``REPRO_SOAK=1`` (the soak
is nightly material, not a tier-1 gate).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import chaos, config
from repro.msg.library import String
from repro.ros.node import NodeHandle
from repro.ros.retry import wait_until
from repro.bench.stats import summarize

#: Self-healing knobs tuned for soak cadence (fast probes, tight idle).
KNOBS = dict(
    shmros=False,
    master_probe_interval=0.05,
    link_keepalive=0.2,
    link_idle_timeout=1.0,
)
PERIOD = 0.01  # 100 Hz
OUTAGE = 0.2   # master darkness per bounce round
RESUME_BURST = 5  # messages that must land to call a round recovered


def run_soak(rounds: int = 10, seed: int = 1) -> dict:
    """Drive ``rounds`` fault/recovery cycles; returns the JSON payload
    for ``BENCH_chaos.json``."""
    master = chaos.ChaosMaster()
    plan = chaos.FaultPlan(seed=seed).install()
    pub_node = NodeHandle("soak_pub", master.uri, **KNOBS)
    sub_node = NodeHandle("soak_sub", master.uri, **KNOBS)

    got: list[str] = []
    publisher = pub_node.advertise("/soak", String)
    subscriber = sub_node.subscribe("/soak", String,
                                    lambda msg: got.append(msg.data))
    wait_until(lambda: subscriber.get_num_connections() > 0,
               desc="initial link")

    sent = [0]
    stop = threading.Event()

    def pump() -> None:
        while not stop.wait(PERIOD):
            msg = String()
            msg.data = str(sent[0])
            try:
                publisher.publish(msg)
                sent[0] += 1
            except Exception:
                pass

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()

    sever_recoveries: list[float] = []
    bounce_recoveries: list[float] = []
    try:
        wait_until(lambda: len(got) >= 10, desc="steady state")
        for round_index in range(rounds):
            mark = len(got)
            if round_index % 3 == 2:
                # Amnesiac master bounce with every data link severed;
                # the clock starts when the master comes back.
                master.pause()
                plan.sever(seam="tcpros")
                time.sleep(OUTAGE)
                master.resume(fresh_registry=True)
                started = time.monotonic()
                bucket = bounce_recoveries
            else:
                # Data-plane-only fault: every link cut mid-stream.
                started = time.monotonic()
                plan.sever(seam="tcpros")
                bucket = sever_recoveries
            wait_until(lambda: len(got) >= mark + RESUME_BURST,
                       timeout=15.0, desc=f"round {round_index} recovery")
            bucket.append(time.monotonic() - started)
    finally:
        stop.set()
        thread.join(timeout=2.0)
        history = subscriber.state_history()
        loss = sent[0] - len(got)
        pub_node.shutdown()
        sub_node.shutdown()
        plan.uninstall()
        master.shutdown()

    all_recoveries = sever_recoveries + bounce_recoveries
    stats = summarize("chaos_recovery", all_recoveries)
    payload = {
        "seed": seed,
        "rounds": rounds,
        "sent": sent[0],
        "received": len(got),
        "lost": loss,
        "recovery_ms": {
            "p50": stats.p50_ms,
            "p99": stats.p99_ms,
            "mean": stats.mean_ms,
            "max": stats.max_ms,
        },
        "sever_recovery_ms": [s * 1000.0 for s in sever_recoveries],
        "bounce_recovery_ms": [s * 1000.0 for s in bounce_recoveries],
        "final_state_history": history,
    }
    return payload


@pytest.mark.skipif(not config.soak(),
                    reason="soak is nightly-only (set REPRO_SOAK=1)")
def test_chaos_soak_recovers_every_round():
    payload = run_soak(rounds=10, seed=1)
    # Every round recovered (wait_until would have raised otherwise);
    # the tail must stay test-scale and the stream mostly intact.
    assert payload["recovery_ms"]["p99"] < 5000.0
    assert payload["lost"] < payload["rounds"] * 100
    assert payload["final_state_history"][-1] == "healthy"


if __name__ == "__main__":
    import json

    print(json.dumps(run_soak(), indent=2))
