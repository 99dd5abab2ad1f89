#!/usr/bin/env python
"""Guard the committed benchmark headlines against regressions.

Discovers every ``BENCH_*.json`` present in the current directory,
pairs each with the committed baseline of the same name at the
repository root, and fails when a headline metric regresses by more
than the tolerance (default 5%).  The headline set deliberately sticks
to *ratio* metrics (speedups, delivery ratios, overhead budgets)
rather than absolute latencies: ratios compare a measurement against a
same-run control, so they survive the machine-to-machine and
run-to-run variance that makes raw milliseconds meaningless in CI.

Usage::

    PYTHONPATH=src python benchmarks/snapshot.py --experiment rawspeed \
        --out /tmp/bench/BENCH_rawspeed.json
    python benchmarks/check_regression.py --current-dir /tmp/bench

Snapshots without a baseline (and baselines without a fresh snapshot)
are reported and skipped, so the checker only ever judges what both
sides actually measured.  A ``BENCH_*.json`` with no registered
extractor is an error: every committed experiment must be gated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Directions: ``higher`` means the metric must not *drop* more than
#: the tolerance; ``lower`` the inverse.  Extractors return
#: ``{metric: (value, direction)}`` so one experiment can mix both.


def _fig13_headlines(doc: dict) -> dict:
    metrics = {
        f"workloads.{label}.shmros_speedup_vs_tcpros":
            (entry["shmros_speedup_vs_tcpros"], "higher")
        for label, entry in doc.get("workloads", {}).items()
    }
    # Unsized zero-copy satellites (absent in pre-slab baselines, and
    # "unsized" is skipped where shared memory is unavailable).  The raw
    # speedups swing several-fold with machine load, so the gate judges
    # the recorded acceptance-floor verdict -- >= 2x for the delta
    # republish, >= 1.5x for TZC -- not the ratio itself (the
    # routed.overhead_within_budget pattern).
    unsized = doc.get("unsized") or {}
    if "meets_floor" in unsized:
        metrics["unsized.meets_floor"] = (unsized["meets_floor"], "higher")
    tzc_remote = doc.get("tzc_remote") or {}
    if "meets_floor" in tzc_remote:
        metrics["tzc_remote.meets_floor"] = (
            tzc_remote["meets_floor"], "higher"
        )
    return metrics


def _bridge_headlines(doc: dict) -> dict:
    return {
        "selective_vs_full_json_wire_ratio":
            (doc["selective_vs_full_json_wire_ratio"], "higher"),
    }


def _chaos_headlines(doc: dict) -> dict:
    return {"recovery_ms.p50": (doc["recovery_ms"]["p50"], "lower")}


def _rawspeed_headlines(doc: dict) -> dict:
    access = doc["field_access"]
    return {
        "field_access.speedup_get": (access["speedup_get"], "higher"),
        "field_access.speedup_set": (access["speedup_set"], "higher"),
        "field_access.speedup_cycle": (access["speedup_cycle"], "higher"),
        "doorbell.speedup": (doc["doorbell"]["speedup"], "higher"),
        "publish.string_64b.messages_per_s":
            (doc["publish"]["string_64b"]["messages_per_s"], "higher"),
        "publish.image_1mb.megabytes_per_s":
            (doc["publish"]["image_1mb"]["megabytes_per_s"], "higher"),
    }


def _fleet_headlines(doc: dict) -> dict:
    metrics = {
        f"sweep.{dashboards}.delivery_ratio":
            (cell["delivery_ratio"], "higher")
        for dashboards, cell in doc.get("sweep", {}).items()
    }
    slow = doc.get("slow_client")
    if slow:
        # Healthy-client latency degradation caused by stalled clients;
        # eviction keeps it bounded, so growth here is a regression.
        # Median-based (see bench_fleet.run_slow_client): a gated p99
        # at millisecond latencies would flake on scheduler stalls.
        metrics["slow_client.p50_ratio"] = (slow["p50_ratio"], "lower")
        # The policy itself must keep firing: both stalled clients
        # evicted, every run.
        metrics["slow_client.evictions"] = (slow["evictions"], "higher")
    return metrics


def _graphplane_headlines(doc: dict) -> dict:
    failover = doc["failover"]
    routed = doc["routed"]
    return {
        # Absolute, like the chaos gate it must stay comparable to.
        "failover.recovery_ms.p50":
            (failover["recovery_ms"]["p50"], "lower"),
        # Zero-loss is part of the contract: any loss at all regresses
        # past any tolerance against a baseline of 0... which the ratio
        # math skips (division by zero), so gate its inverse: the
        # number of rounds with zero loss must not drop.
        "failover.clean_rounds":
            (failover["rounds"] - min(failover["rounds"],
                                      failover["registrations_lost"]),
             "higher"),
        # Mux overhead self-gates against its recorded budget (like the
        # obs overhead): the raw routed/direct p50 ratio is a few tens
        # of microseconds of thread-hop cost and swings 1.0x-1.5x run
        # to run, so gate the budget verdict, not the ratio.
        "routed.overhead_within_budget":
            (routed["overhead_within_budget"], "higher"),
        # M topic links between one host pair must stay on exactly one
        # connection; 2 against a baseline of 1 is +100%.
        "routed.connections_per_pair":
            (routed["connections_per_pair"], "lower"),
    }


def _reactor_headlines(doc: dict) -> dict:
    sustain = doc["sustain"]
    return {
        # The verdict: the 768-client fan-out ran on at most the
        # recorded thread bound AND the 1k sustain held.
        "meets_floor": (doc["meets_floor"], "higher"),
        # Per-connection delivery rate at 768 clients, absolute, against
        # the committed baseline.
        "fanout.msgs_per_conn_per_s":
            (doc["fanout"]["msgs_per_conn_per_s"], "higher"),
        # The 1k-subscription sustain: every delivery landed, nothing
        # shed, nothing evicted, thread growth within the fixed pool.
        "sustain.sustained": (sustain["sustained"], "higher"),
        # 999 against a baseline of 1000 is -0.1%: any eroded client
        # count fails past the tolerance only if someone shrinks the
        # bench, which is exactly the silent-cap change to catch.
        "sustain.clients": (sustain["clients"], "higher"),
    }


EXTRACTORS = {
    "fig13": _fig13_headlines,
    "bridge": _bridge_headlines,
    "chaos": _chaos_headlines,
    "graphplane": _graphplane_headlines,
    "rawspeed": _rawspeed_headlines,
    "fleet": _fleet_headlines,
    "reactor": _reactor_headlines,
    "obs": None,  # self-gating: see check_obs_budget
}


def check_experiment(name: str, baseline: dict, current: dict,
                     tolerance: float) -> list[str]:
    extractor = EXTRACTORS[name]
    failures: list[str] = []
    base_metrics = extractor(baseline)
    new_metrics = extractor(current)
    for metric, (base_value, direction) in sorted(base_metrics.items()):
        entry = new_metrics.get(metric)
        if entry is None or not base_value:
            continue
        new_value = entry[0]
        if direction == "higher":
            regression = (base_value - new_value) / base_value * 100.0
        else:
            regression = (new_value - base_value) / base_value * 100.0
        verdict = "FAIL" if regression > tolerance else "ok"
        print(
            f"  [{verdict}] {name}:{metric}: baseline {base_value:g}, "
            f"current {new_value:g} ({regression:+.1f}% regression)"
        )
        if regression > tolerance:
            failures.append(f"{name}:{metric}")
    return failures


def check_obs_budget(current: dict) -> list[str]:
    """The obs experiment carries its own acceptance: measured overhead
    must stay inside the recorded budget (the committed baseline's value
    hovers around zero, so a ratio against it would be noise)."""
    overhead = current["overhead_pct"]
    budget = current["budget_pct"]
    verdict = "FAIL" if overhead > budget else "ok"
    print(f"  [{verdict}] obs:overhead_pct: {overhead:+.2f}% "
          f"(budget {budget:.0f}%)")
    return ["obs:overhead_pct"] if overhead > budget else []


def _experiment_names(*dirs: Path) -> list[str]:
    names: set[str] = set()
    for directory in dirs:
        for path in directory.glob("BENCH_*.json"):
            names.add(path.stem[len("BENCH_"):])
    return sorted(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--current-dir", type=Path, required=True,
                        help="directory with freshly generated snapshots")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="max allowed regression, percent")
    args = parser.parse_args(argv)

    failures: list[str] = []
    checked = 0
    for name in _experiment_names(args.baseline_dir, args.current_dir):
        if name not in EXTRACTORS:
            print(f"BENCH_{name}.json has no registered headline "
                  f"extractor; add one to benchmarks/check_regression.py")
            failures.append(f"{name}:unregistered")
            continue
        baseline_path = args.baseline_dir / f"BENCH_{name}.json"
        current_path = args.current_dir / f"BENCH_{name}.json"
        if not baseline_path.exists() or not current_path.exists():
            print(f"skipping {name}: no "
                  f"{'baseline' if not baseline_path.exists() else 'current'}"
                  f" snapshot")
            continue
        print(f"checking {name}:")
        current = json.loads(current_path.read_text())
        checked += 1
        if name == "obs":
            failures += check_obs_budget(current)
        else:
            baseline = json.loads(baseline_path.read_text())
            failures += check_experiment(
                name, baseline, current, args.tolerance
            )
    if failures:
        print(f"{len(failures)} headline metric(s) regressed beyond "
              f"{args.tolerance:.0f}%: {', '.join(failures)}")
        return 1
    if not checked:
        print("nothing to check")
        return 1
    print(f"all headline metrics within {args.tolerance:.0f}% "
          f"across {checked} experiment(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
