#!/usr/bin/env python3
"""The spine's one command.

``python3 spine/run.py --workload NAME --seed N --seconds S --trace 0|1``
is one run of one workload in this process: pinned to one CPU, inputs
from the seed, every delivery checked.  It prints each metric by name
with its unit and, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload :data:`REPEATS` times, each
in a fresh subprocess, interleaved round-robin, and writes one result
file with provenance, host calibration and the median of the repeats;
``--traced`` adds one traced pass per workload.  It exits non-zero if a
delivery failed or a link negotiated another transport than the
workload names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

#: Runs of every workload in all-workloads mode; fixed, so that two
#: result files always hold medians of the same number of runs.
REPEATS = 3
#: Cold set-ups timed per run, each in a fresh process of its own;
#: ``setup_s`` is their median.
SETUP_PROBES = 5
#: A p99 with fewer samples beyond it than this is reported with a warning.
MIN_TAIL_SAMPLES = 30
#: Stop-and-wait messages of the pass that samples the queue depth.
DEPTH_MESSAGES = 200
#: Messages whose spans go into the Chrome trace file.
TRACE_FILE_MESSAGES = 200
DETAIL_PREFIX = "spine-detail "


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------
def setup_only(workload, inputs) -> int:
    """One cold set-up: this fresh process's first graph, timed, printed
    in seconds, torn down."""
    from spine import workloads as wl

    with wl.Rig(workload, inputs) as rig:
        print(repr(rig.setup_s))
    _stop_resource_tracker()
    return 0


def _cold_setup_s(workload, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload.name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload.name}: set-up probe failed")
    return float(done.stdout.splitlines()[-1])


def run_plain(workload, inputs, seed: int,
              seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: tracer stopped, one measured phase of
    ``seconds``, then the cold set-up probes."""
    from spine import workloads as wl
    from spine.stats import percentile

    with wl.Rig(workload, inputs) as rig:
        rig.rounds(count=workload.warmup)
        measured = rig.measure(
            deadline_ns=time.monotonic_ns() + int(seconds * 1e9)
        )
        latencies = rig.latencies_us(measured)
        failed = rig.failed()
        attempted = len(rig.starts) * len(rig.sinks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_samples = len(latencies) - int(0.99 * len(latencies)) - 1
    if tail_samples < MIN_TAIL_SAMPLES:
        print(f"spine: latency_p99_us has {tail_samples} samples beyond it, "
              f"fewer than {MIN_TAIL_SAMPLES}; run longer", file=sys.stderr)
    setups = [_cold_setup_s(workload, seed) for _ in range(SETUP_PROBES)]
    if measured.burst_rates:
        throughput = median(measured.burst_rates)
    else:
        throughput = measured.messages * 1e9 / measured.elapsed_ns
    metrics = {
        "latency_p50_us": percentile(latencies, 0.50),
        "latency_p99_us": percentile(latencies, 0.99),
        "throughput_msgs_per_s": throughput,
        "cpu_us_per_msg": measured.cpu_s * 1e6 / measured.messages,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setups),
    }
    detail = {
        "attempted": attempted,
        "failed": failed,
        "messages": measured.messages,
        "warmup": workload.warmup,
        "bursts": len(measured.burst_rates),
        "tail_samples": tail_samples,
        "setups_s": setups,
    }
    return metrics, detail


def run_traced(workload, inputs, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: a quarter-length untraced phase, the same with
    the program's tracer on, a short pass that samples the queue depth,
    then the layer pass on the same message."""
    from repro.obs.trace import tracer
    from repro.sfm import global_message_manager

    from spine import layers, spans
    from spine import workloads as wl
    from spine.stats import percentile

    quarter_ns = int(seconds * 1e9 / 4)
    size = max(workload.burst // 4, 1)

    def phase(rig, count=None):
        """The two phases differ only by ``tracer.start()``."""
        return rig.rounds(
            size, count=count, deadline_ns=time.monotonic_ns() + quarter_ns
        )

    with wl.Rig(workload, inputs) as rig:
        rig.rounds(count=workload.warmup)
        counters = global_message_manager.snapshot()["counters"]
        untraced = phase(rig)
        # One publish span per message and four per link; the tracer
        # drops the oldest spans beyond its capacity.
        per_message = 1 + 4 * len(rig.publisher.links())
        tracer.start()
        try:
            traced = phase(
                rig, count=1 if workload.burst
                else tracer.capacity // per_message,
            )
        finally:
            tracer.stop()
        program_spans = tracer.spans()
        tracer.clear()
        after = global_message_manager.snapshot()["counters"]
        depth = rig.rounds(
            size, count=1 if workload.burst else DEPTH_MESSAGES,
            sample_depth=True,
        )
        link_stats = [link.stats() for link in rig.publisher.links()]
        gateway = rig.gateway_stats()
        wire_bytes = rig.wire_bytes_per_delivery()
        failed = rig.failed()
        attempted = len(rig.starts) * len(rig.sinks)
        p50_untraced = percentile(rig.latencies_us(untraced), 0.5)
        p50_traced = percentile(rig.latencies_us(traced), 0.5)
        recorder = _record_spans(rig, traced)
    gc.collect()
    live_records_end = global_message_manager.snapshot()["live_records"]

    published = untraced.messages + traced.messages
    allocated = after["allocated"] - counters["allocated"]
    metrics = layers.measure(inputs)
    metrics.update({
        "sfm.allocated_per_msg": allocated / published,
        "sfm.expansions_per_msg":
            (after["expansions"] - counters["expansions"]) / published,
        "sfm.pool_hit_ratio":
            (after["pool_hits"] - counters["pool_hits"]) / allocated
            if allocated else 0.0,
        "sfm.live_records_end": live_records_end,
        "topic.publish_call_us": percentile(
            [(end - start) / 1000.0 for start, end in zip(
                rig.publish_starts[traced.first:depth.first],
                rig.publish_ends[traced.first:depth.first])],
            0.5,
        ),
        "topic.sent": sum(stats["sent"] for stats in link_stats),
        "topic.dropped": sum(stats["dropped"] for stats in link_stats),
        "topic.queue_depth_max": depth.queue_depth_max,
        "bridge.wire_bytes_per_delivery": wire_bytes,
        "bridge.shed": gateway["shed"],
        "bridge.evictions": gateway["evictions"],
        "obs.trace_overhead_pct":
            100.0 * (p50_traced - p50_untraced) / p50_untraced,
    })
    for stage in ("publish", "send", "recv", "decode", "callback"):
        durations = [
            span.duration_ns / 1000.0
            for span in program_spans if span.name == stage
        ]
        metrics[f"topic.span_{stage}_us"] = (
            percentile(durations, 0.5) if durations else 0.0
        )
    on_path = sum(metrics[name] * weight for name, weight in workload.path)
    metrics["topic.unattributed_us"] = p50_untraced - on_path

    own = {
        name: percentile(times, 0.5) / 1000.0
        for name, times in spans.self_time_by_name(recorder.spans).items()
    }
    trace_file = _write_trace(workload, recorder, program_spans, traced.first)
    _print_budget(workload, metrics, p50_untraced, own)
    detail = {
        "attempted": attempted,
        "failed": failed,
        "messages": published,
        "latency_p50_us": p50_untraced,
        "latency_p50_traced_us": p50_traced,
        "span_self_p50_us": own,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, detail


def _record_spans(rig, traced):
    """The spine's own spans for the traced phase: one root per message
    (construction start to last callback) with the construct, publish
    call and callbacks as its children."""
    from spine import spans

    recorder = spans.Recorder()
    delivered = min(len(sink.stamps) for sink in rig.sinks)
    for seq in range(traced.first, min(traced.first + traced.messages,
                                       delivered)):
        last = max(sink.stamps[seq] for sink in rig.sinks)
        root = recorder.add("message", rig.starts[seq], last, None, seq)
        recorder.add("construct", rig.starts[seq],
                     rig.publish_starts[seq], root, seq)
        recorder.add("publish_call", rig.publish_starts[seq],
                     rig.publish_ends[seq], root, seq)
        for sink in rig.sinks:
            recorder.add("callback", sink.entered[seq], sink.stamps[seq],
                         root, seq)
    return recorder


def _write_trace(workload, recorder, program_spans, first: int) -> Path:
    """Chrome ``trace_event`` JSON for the first traced messages: the
    spine's spans and, on the same rows, the program's own."""
    from spine import spans

    # Trace ids are minted in publish order, one per traced message.
    by_id = {
        trace_id: first + index for index, trace_id in enumerate(
            sorted({span.trace_id for span in program_spans})
        )
    }
    limit = first + TRACE_FILE_MESSAGES
    pid = os.getpid()
    program_events = [
        {
            "name": "repro." + span.name, "cat": "repro", "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": max(span.duration_ns, 0) / 1000.0,
            "pid": pid, "tid": by_id[span.trace_id],
            "args": {key: str(value) for key, value in span.args.items()},
        }
        for span in program_spans if by_id[span.trace_id] < limit
    ]
    own = [span for span in recorder.spans if span.message < limit]
    out_dir = ROOT / "spine" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}.trace.json"
    path.write_text(json.dumps(spans.chrome_trace(own, pid, program_events)))
    return path


def _print_budget(workload, metrics: dict, latency_p50: float,
                  own: dict) -> None:
    print(f"budget {workload.name}: blocking-path layers (p50, us)")
    for name, weight in workload.path:
        print(f"  {name:<34}{metrics[name] * weight:>12.2f}")
    unattributed = metrics["topic.unattributed_us"]
    print(f"  {'topic.unattributed_us':<34}{unattributed:>12.2f}" + (
        "  NEGATIVE: the layers, timed alone, cost more than the live "
        "path; not a remainder" if unattributed < 0 else ""
    ))
    print(f"  {'= latency_p50_us':<34}{latency_p50:>12.2f}")
    print("spine spans, self time p50 (us): " + ", ".join(
        f"{name} {value:.1f}" for name, value in sorted(own.items())
    ))


def _stop_resource_tracker() -> None:
    """The program's shared-memory rings make the standard library start
    a resource-tracker process; it would outlive this one by a moment.
    Stop it and wait for it, so that no process this run started is
    left when it exits (``_stop`` is private to the standard library)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_single(args) -> int:
    from spine import host

    cpu = host.pin_to_one_cpu()
    from repro.bench.allocator import tune_for_large_messages

    from spine import layers
    from spine import workloads as wl

    tune_for_large_messages()
    workload = wl.BY_NAME.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(wl.BY_NAME)}", file=sys.stderr)
        return 2
    inputs = workload.make_inputs(args.seed)
    if args.setup_only:
        return setup_only(workload, inputs)
    before = host.calibrate()
    if args.trace:
        metrics, detail = run_traced(workload, inputs, args.seconds)
    else:
        metrics, detail = run_plain(workload, inputs, args.seed, args.seconds)
    after = host.calibrate()
    if args.trace:
        metrics.update(before)
        units = layers.UNITS
    else:
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    detail.update({
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "pinned_cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "host_before": before, "host_after": after,
    })
    for name in units:
        print(f"{workload.name} {name} {metrics[name]:.4f} {units[name]}")
    _stop_resource_tracker()
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


# ----------------------------------------------------------------------
# Every workload, repeated, one fresh subprocess each
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"spine: {workload} exited {done.returncode}; nothing reported"
        )
    lines = done.stdout.splitlines()
    detail = next(
        json.loads(line[len(DETAIL_PREFIX):])
        for line in lines if line.startswith(DETAIL_PREFIX)
    )
    budget = [line for line in lines if line.startswith(("budget", "  "))]
    return {"result": json.loads(lines[-1]), "detail": detail,
            "budget": budget}


def run_all(args) -> int:
    from spine import host
    from spine import workloads as wl
    from spine.stats import spread

    document: dict = {
        "provenance": host.provenance(args.seed, args.seconds),
        "repeats": REPEATS,
        "end_to_end": {}, "deliveries": {}, "per_layer": {}, "runs": [],
    }
    names = [workload.name for workload in wl.WORKLOADS]
    # The first run after the host sat idle has a disturbed stretch: its
    # p99 read 30-60 % high four times out of four, while no run that
    # followed another did.  Make one, keep it apart from the repeats.
    first = _child(names[0], args.seed, args.seconds, 0)
    document["discarded_first_run"] = first["detail"] | first["result"]
    failed = first["result"]["failed"]
    for repeat in range(REPEATS):
        for name in names:
            run = _child(name, args.seed, args.seconds, 0)
            print(f"repeat {repeat + 1}/{REPEATS} {name}: " + ", ".join(
                f"{metric} {entry['value']:.4g} {entry['unit']}"
                for metric, entry in run["result"]["metrics"].items()
            ), flush=True)
            cell = document["end_to_end"].setdefault(name, {})
            for metric, entry in run["result"]["metrics"].items():
                cell.setdefault(
                    metric, {"unit": entry["unit"], "values": []}
                )["values"].append(entry["value"])
            tally = document["deliveries"].setdefault(
                name, {"attempted": 0, "failed": 0}
            )
            tally["attempted"] += run["result"]["attempted"]
            tally["failed"] += run["result"]["failed"]
            failed += run["result"]["failed"]
            document["runs"].append(run["detail"])
    for cell in document["end_to_end"].values():
        for entry in cell.values():
            entry["median"] = median(entry["values"])
            entry["spread"] = spread(entry["values"])
    if args.traced:
        for name in names:
            run = _child(name, args.seed, args.seconds, 1)
            print("\n".join(run["budget"]), flush=True)
            document["per_layer"][name] = run["result"]["metrics"]
            failed += run["result"]["failed"]
            document["runs"].append(run["detail"])
    document["provenance"]["loadavg_end"] = list(os.getloadavg())

    print()
    for name, cell in document["end_to_end"].items():
        tally = document["deliveries"][name]
        print(f"{name}  failed_ratio "
              f"{tally['failed'] / tally['attempted']:.6f}")
        for metric, entry in cell.items():
            print(f"  {metric:<24}{entry['median']:>14.4f} {entry['unit']:<8}"
                  f"spread {entry['spread']:.3f}")
    for name, layer_metrics in document["per_layer"].items():
        print(f"{name} per layer")
        for metric, entry in layer_metrics.items():
            print(f"  {metric:<34}{entry['value']:>14.4f} {entry['unit']}")
    if failed:
        print(f"spine: {failed} failed deliveries; refusing to report",
              file=sys.stderr)
        return 1
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload here")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal, with --workload: time this fresh "
                             "process's first set-up, print it and exit")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced pass")
    parser.add_argument("--out", default=None, help="result file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark()["run_seconds"])
    if args.out is None:
        args.out = str(ROOT / "spine" / "out" / f"result-seed{args.seed}.json")
    if args.workload:
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
