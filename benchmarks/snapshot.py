#!/usr/bin/env python
"""Quick committed snapshots of the headline experiments.

``--experiment fig13`` (default) runs the intra-machine latency
experiment across both transports (loopback TCPROS and the SHMROS
shared-memory ring) at reduced iteration counts and writes
``BENCH_fig13.json`` at the repository root, so CI and reviewers see the
transport comparison without a full paper-scale run.

``--experiment bridge`` runs ``bench_bridge_fanout.py`` (gateway fan-out,
full-message vs. selective-field subscriptions) and writes
``BENCH_bridge.json``.

``--experiment obs`` runs ``bench_obs_overhead.py`` (1 MB SHMROS trips
with the repro.obs instrumentation enabled vs disabled) and writes
``BENCH_obs.json``; the recorded ``overhead_pct`` must stay under
``budget_pct`` (5%).

``--experiment chaos`` runs ``bench_chaos_soak.py`` (repeated link
severs and amnesiac master bounces under a 100 Hz stream) and writes
``BENCH_chaos.json`` with recovery-time p50/p99 and total loss.

``--experiment rawspeed`` runs ``bench_rawspeed.py`` (compiled accessor
vs descriptor field access, coalesced vs frame-at-a-time doorbell,
end-to-end SHMROS delivery at 64 B and 1 MiB) and writes
``BENCH_rawspeed.json``.

``--experiment fleet`` runs ``bench_fleet.py`` (N robots x M dashboard
clients through the WebSocket front door: saturation sweep up to 256
concurrent ws subscribers plus the slow-client eviction witness) and
writes ``BENCH_fleet.json``.

``--experiment reactor`` runs ``bench_reactor.py`` (bridge fan-out at
768 raw-socket subscribers plus the 1000-subscription sustain witness)
and writes ``BENCH_reactor.json``; CI gates the recorded ``meets_floor``
verdict (the fan-out within its thread bound and a clean sustain) and
the per-connection delivery rate.

``--experiment graphplane`` runs ``bench_graphplane.py`` (shard-leader
kill/promote rounds with recovery stats and zero-loss accounting, plus
the RouteD mux latency-ratio and connection-count check) and writes
``BENCH_graphplane.json``.

Usage::

    PYTHONPATH=src python benchmarks/snapshot.py [--iterations N] [--out PATH]
    PYTHONPATH=src python benchmarks/snapshot.py --experiment bridge
    PYTHONPATH=src python benchmarks/snapshot.py --experiment obs
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.bench.harness import IntraMachineExperiment
from repro.bench.stats import improvement_percent
from repro.bench.workloads import IMAGE_WORKLOADS


def run_snapshot(iterations: int) -> dict:
    experiment = IntraMachineExperiment(
        iterations=iterations,
        warmup=5,
        rate_hz=None,
        sync=True,  # stop-and-wait: no queueing noise on small machines
        stamp_at_publish=True,  # measure the transport trip, not construction
        workloads=IMAGE_WORKLOADS,
        transports=("tcpros", "shmros"),
    )
    results = experiment.run()
    payload: dict = {
        "experiment": "fig13_intra_machine",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "iterations": iterations,
        "workloads": {},
    }
    for workload in IMAGE_WORKLOADS:
        per_profile = results[workload.label]
        entry: dict = {"payload_bytes": workload.data_bytes, "profiles": {}}
        for key, stats in per_profile.items():
            entry["profiles"][key] = {
                "count": stats.count,
                "mean_ms": round(stats.mean_ms, 4),
                "std_ms": round(stats.std_ms, 4),
                "p50_ms": round(stats.p50_ms, 4),
                "p99_ms": round(stats.p99_ms, 4),
            }
        # The two headline ratios: what SFM saves over serialization, and
        # what shared memory saves over loopback sockets.
        entry["rossf_vs_ros_tcpros_pct"] = round(
            improvement_percent(
                per_profile["ROS@tcpros"], per_profile["ROS-SF@tcpros"]
            ),
            2,
        )
        # Median-based: on a small shared machine rare multi-ms scheduler
        # stalls land in arbitrary cells and would dominate a mean ratio.
        entry["shmros_speedup_vs_tcpros"] = round(
            per_profile["ROS-SF@tcpros"].p50_ms
            / per_profile["ROS-SF@shmros"].p50_ms,
            3,
        )
        entry["speedup_basis"] = "p50"
        payload["workloads"][workload.label] = entry
    # The unsized zero-copy satellites ride in the same snapshot: the
    # grown-vector delta republish and the TZC remote split.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_unsized_tzc

    payload["unsized"] = bench_unsized_tzc.run_unsized(iterations)
    payload["tzc_remote"] = bench_unsized_tzc.run_tzc_remote(iterations)
    return payload


def run_bridge_snapshot(messages: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_bridge_fanout

    payload: dict = {
        "experiment": "bridge_fanout",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "messages": messages,
    }
    payload.update(bench_bridge_fanout.run_fanout(messages))
    return payload


def run_obs_snapshot(iterations: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_obs_overhead

    payload: dict = {
        "experiment": "obs_overhead",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "iterations": iterations,
    }
    payload.update(bench_obs_overhead.run_overhead(iterations))
    return payload


def run_rawspeed_snapshot(field_number: int, doorbell_frames: int,
                          small_count: int, large_count: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_rawspeed

    payload: dict = {
        "experiment": "rawspeed",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
    }
    payload.update(bench_rawspeed.run_rawspeed(
        field_number=field_number, doorbell_frames=doorbell_frames,
        small_count=small_count, large_count=large_count,
    ))
    return payload


def run_fleet_snapshot(sweep, robots: int, duration: float,
                       slow: bool = True) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_fleet

    payload: dict = {
        "experiment": "fleet",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "robots": robots,
        "duration_s": duration,
    }
    payload.update(bench_fleet.run_fleet_bench(
        sweep=sweep, robots=robots, duration=duration, slow=slow,
    ))
    return payload


def run_reactor_snapshot(clients: int, messages: int,
                         sustain_clients: int,
                         sustain_messages: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_reactor

    payload: dict = {
        "experiment": "reactor",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
    }
    payload.update(bench_reactor.run_reactor_bench(
        clients=clients, messages=messages,
        sustain_clients=sustain_clients,
        sustain_messages=sustain_messages,
    ))
    return payload


def run_chaos_snapshot(rounds: int, seed: int = 1) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_chaos_soak

    payload: dict = {
        "experiment": "chaos_soak",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
    }
    payload.update(bench_chaos_soak.run_soak(rounds=rounds, seed=seed))
    return payload


def run_graphplane_snapshot(rounds: int, messages: int,
                            seed: int = 1) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_graphplane

    payload: dict = {
        "experiment": "graphplane",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
    }
    payload.update(bench_graphplane.run_graphplane_bench(
        rounds=rounds, messages=messages, seed=seed,
    ))
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment",
                        choices=("fig13", "bridge", "obs", "chaos",
                                 "rawspeed", "fleet", "graphplane",
                                 "reactor"),
                        default="fig13")
    parser.add_argument("--iterations", type=int, default=40,
                        help="fig13/obs iterations")
    parser.add_argument("--messages", type=int, default=8,
                        help="bridge messages per fan-out cell")
    parser.add_argument("--rounds", type=int, default=10,
                        help="chaos soak fault/recovery rounds")
    parser.add_argument("--robots", type=int, default=2,
                        help="fleet robot count")
    parser.add_argument("--sweep", default="8,64,256",
                        help="fleet dashboard counts, comma separated")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="fleet measurement window per cell, seconds")
    parser.add_argument("--no-slow", action="store_true",
                        help="fleet: skip the slow-client witness")
    parser.add_argument("--clients", type=int, default=768,
                        help="reactor fan-out client count (256+)")
    parser.add_argument("--sustain-clients", type=int, default=1000,
                        help="reactor sustain subscription count")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if args.experiment == "fleet":
        out = args.out or root / "BENCH_fleet.json"
        sweep = tuple(
            int(part) for part in args.sweep.split(",") if part
        )
        payload = run_fleet_snapshot(
            sweep=sweep, robots=args.robots, duration=args.duration,
            slow=not args.no_slow,
        )
        out.write_text(json.dumps(payload, indent=2) + "\n")
        for dashboards, cell in payload["sweep"].items():
            latency = cell["latency_ms"]
            print(
                f"fleet {payload['robots']}x{dashboards}: "
                f"{cell['delivered_per_s']:,.0f} msg/s delivered "
                f"(ratio {cell['delivery_ratio']:.3f}), "
                f"p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms, "
                f"{cell['evictions']} eviction(s)"
            )
        slow = payload.get("slow_client")
        if slow:
            print(
                f"slow-client witness: {slow['evictions']} eviction(s), "
                f"healthy p99 {slow['contended_p99_ms']:.2f} ms vs "
                f"baseline {slow['baseline_p99_ms']:.2f} ms "
                f"({slow['p99_ratio']:.2f}x; gated on p50 "
                f"{slow['p50_ratio']:.2f}x)"
            )
        print(f"wrote {out}")
        return 0
    if args.experiment == "rawspeed":
        out = args.out or root / "BENCH_rawspeed.json"
        payload = run_rawspeed_snapshot(
            field_number=args.iterations * 5000,
            doorbell_frames=args.iterations * 1600,
            small_count=args.iterations * 100,
            large_count=args.iterations * 5,
        )
        out.write_text(json.dumps(payload, indent=2) + "\n")
        access = payload["field_access"]
        doorbell = payload["doorbell"]
        print(
            f"compiled accessors: get {access['speedup_get']:.2f}x, "
            f"set {access['speedup_set']:.2f}x, "
            f"cycle {access['speedup_cycle']:.2f}x over descriptors"
        )
        print(
            f"doorbell batching: {doorbell['speedup']:.2f}x frames/s "
            f"({doorbell['batched_frames_per_s']:,} vs "
            f"{doorbell['unbatched_frames_per_s']:,})"
        )
        small = payload["publish"]["string_64b"]
        large = payload["publish"]["image_1mb"]
        print(
            f"SHMROS end to end: {small['messages_per_s']:,.0f} msg/s at "
            f"{small['payload_bytes']} B, {large['megabytes_per_s']:.0f} "
            f"MB/s at 1 MiB"
        )
        print(f"wrote {out}")
        return 0
    if args.experiment == "graphplane":
        out = args.out or root / "BENCH_graphplane.json"
        payload = run_graphplane_snapshot(args.rounds, args.messages * 50)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        failover = payload["failover"]
        routed = payload["routed"]
        print(
            f"shard failover over {failover['rounds']} rounds: recovery "
            f"p50={failover['recovery_ms']['p50']:.0f} ms "
            f"p99={failover['recovery_ms']['p99']:.0f} ms, "
            f"re-register p50={failover['reregister_ms']['p50']:.0f} ms, "
            f"{failover['registrations_lost']} registration(s) lost, "
            f"epoch preserved: {failover['epoch_preserved']}"
        )
        print(
            f"routed mux: {routed['connections_per_pair']} connection(s) "
            f"for {routed['channels']} topic link(s), p50 "
            f"{routed['routed_ms']['p50']:.3f} ms vs direct "
            f"{routed['direct_ms']['p50']:.3f} ms "
            f"({routed['routed_vs_direct_p50_ratio']:.2f}x)"
        )
        print(f"wrote {out}")
        return 0
    if args.experiment == "reactor":
        out = args.out or root / "BENCH_reactor.json"
        payload = run_reactor_snapshot(
            clients=args.clients, messages=args.messages * 12,
            sustain_clients=args.sustain_clients, sustain_messages=5,
        )
        out.write_text(json.dumps(payload, indent=2) + "\n")
        fanout = payload["fanout"]
        print(
            f"reactor fan-out at {fanout['clients']} clients: "
            f"{fanout['msgs_per_conn_per_s']:.0f} msg/conn/s on "
            f"{fanout['threads_during']} threads "
            f"(bound {payload['thread_bound']})"
        )
        sustain = payload["sustain"]
        print(
            f"sustain: {sustain['clients']} subscriptions, "
            f"{sustain['delivered']}/{sustain['expected']} delivered, "
            f"{sustain['dropped']} dropped, {sustain['evictions']} "
            f"evicted, thread growth {sustain['thread_growth']} -> "
            f"sustained={sustain['sustained']}"
        )
        print(f"meets_floor: {payload['meets_floor']}")
        print(f"wrote {out}")
        return 0
    if args.experiment == "chaos":
        out = args.out or root / "BENCH_chaos.json"
        payload = run_chaos_snapshot(args.rounds)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        recovery = payload["recovery_ms"]
        print(
            f"chaos soak over {payload['rounds']} rounds: recovery "
            f"p50={recovery['p50']:.0f} ms p99={recovery['p99']:.0f} ms, "
            f"{payload['lost']} messages lost"
        )
        print(f"wrote {out}")
        return 0
    if args.experiment == "obs":
        out = args.out or root / "BENCH_obs.json"
        payload = run_obs_snapshot(args.iterations)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"obs overhead on 1MB SHMROS (p50): "
            f"{payload['overhead_pct']:+.2f}% "
            f"(budget {payload['budget_pct']:.0f}%)"
        )
        print(f"wrote {out}")
        return 0
    if args.experiment == "bridge":
        out = args.out or root / "BENCH_bridge.json"
        payload = run_bridge_snapshot(args.messages)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"selective vs full-JSON wire ratio (16 clients, "
            f"{payload['payload_bytes']} B payload): "
            f"{payload['selective_vs_full_json_wire_ratio']:.0f}x smaller"
        )
        print(f"wrote {out}")
        return 0
    out = args.out or root / "BENCH_fig13.json"
    payload = run_snapshot(args.iterations)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for label, entry in payload["workloads"].items():
        print(
            f"{label:<24} SHMROS speedup over TCPROS (ROS-SF): "
            f"{entry['shmros_speedup_vs_tcpros']:.2f}x"
        )
    unsized = payload["unsized"]
    if "skipped" in unsized:
        print(f"shmros-unsized: skipped ({unsized['skipped']})")
    else:
        print(
            f"shmros-unsized: delta republish {unsized['speedup']:.2f}x "
            f"over full copy at {unsized['payload_bytes']} B"
        )
    remote = payload["tzc_remote"]
    print(
        f"tzc-remote: {remote['speedup']:.2f}x over classic TCPROS "
        f"at {remote['payload_bytes']} B"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
