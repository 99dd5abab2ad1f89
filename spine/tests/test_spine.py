"""Smoke and unit tests of the measurement spine.

Run with ``python -m pytest spine/tests -q`` from the repository root
(tier-1 ``testpaths`` does not include this directory).
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from spine import compare, inputs, layers, spans, stats  # noqa: E402
from spine import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "spine" / "run.py")]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", wl.WORKLOADS, ids=lambda w: w.name)
def test_workload_smoke(workload):
    """A tiny count of every workload: links come up on the named
    transport (the rig raises otherwise) and every delivery checks."""
    small = dataclasses.replace(workload, burst=min(workload.burst, 300))
    with wl.Rig(small, small.make_inputs(3)) as rig:
        measured = rig.measure(count=1 if small.burst else 20)
        latencies = rig.latencies_us(measured)
        assert rig.failed() == 0
        assert measured.messages == (small.burst or 20)
        assert len(latencies) == measured.messages
        assert min(latencies) > 0
        assert all(
            len(sink.stamps) == len(rig.starts) for sink in rig.sinks
        )


def test_corrupted_payload_counts_as_failed():
    workload = wl.BY_NAME["str64_shm_sf_ping"]
    good = workload.make_inputs(3)
    tail = inputs.string_tail(3, workload.length)
    middle = len(tail) // 2

    def build(seq: int):
        if seq < 5:
            return good.build(seq)
        msg = good.msg_class()
        # Right sequence digits, one wrong byte in the middle of the tail.
        msg.data = f"{seq:08x}{tail[:middle]}#{tail[middle + 1:]}"
        return msg

    bad = dataclasses.replace(good, build=build)
    with wl.Rig(workload, bad) as rig:
        rig.rounds(count=9)
        assert len(rig.starts) == 10  # the set-up delivery plus nine
        assert rig.failed() == 5


def test_seed_fixes_the_inputs():
    assert inputs.image_frame(1, 64, 48) == inputs.image_frame(1, 64, 48)
    assert inputs.image_frame(1, 64, 48) != inputs.image_frame(2, 64, 48)
    assert inputs.string_tail(1, 64) == inputs.string_tail(1, 64)
    assert inputs.string_tail(1, 64) != inputs.string_tail(2, 64)
    assert len(inputs.string_tail(1, 64)) == 56
    first = wl.BY_NAME["img200k_shm_sf_fan2"].make_inputs(7)
    again = wl.BY_NAME["img200k_shm_sf_fan2"].make_inputs(7)
    assert first.build(4).data.tobytes() == again.build(4).data.tobytes()


# ----------------------------------------------------------------------
# BENCHMARK.json and the command
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in wl.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == \
        [(layer.name, layer.unit, layer.better) for layer in layers.LAYERS]
    named = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload in wl.WORKLOADS:
        assert {name for name, _weight in workload.path} <= named
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in BENCHMARK["end_to_end"]
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_emits_exactly_the_named_metrics(trace, key):
    done = _run("--workload", "str64_shm_sf_ping", "--seed", "2",
                "--seconds", "0.4", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == expected
    for name in expected:  # and by name, with its unit, in the text
        assert f" {name} " in done.stdout
    if trace:
        budget = done.stdout[done.stdout.index("budget "):]
        assert "topic.unattributed_us" in budget
        assert "= latency_p50_us" in budget
        # The program's spans sit on the row of the message they belong to.
        trace = json.loads(
            (ROOT / "spine" / "out" / "str64_shm_sf_ping.trace.json")
            .read_text()
        )
        rows: dict = {}
        for event in trace["traceEvents"]:
            rows.setdefault(event["tid"], {})[event["name"]] = event
        assert len(rows) > 1
        for row in rows.values():
            message, publish = row["message"], row["repro.publish"]
            # (On one CPU the callback can end before publish returns.)
            assert message["ts"] <= publish["ts"] <= \
                message["ts"] + message["dur"]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def test_percentile_and_spread():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 51
    assert stats.percentile(values, 0.99) == 100
    assert stats.percentile([5.0], 0.99) == 5.0
    assert stats.percentile(range(3000), 0.99) == 2970  # 29 beyond it
    # A stall that hits one stretch of a run in fifty sets the run's p99.
    calm = [1.0] * 990 + [2.0] * 10
    assert stats.percentile(calm * 49 + [9.0] * 1000, 0.99) == 9.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    assert stats.spread([10.0]) == 0.0
    assert stats.spread([10.0, 10.0, 10.0]) == 0.0
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


def test_span_self_time_subtracts_children_once():
    recorder = spans.Recorder()
    root = recorder.add("message", 0, 100, None, 0)
    recorder.add("construct", 0, 30, root, 0)
    recorder.add("publish_call", 30, 50, root, 0)
    recorder.add("callback", 70, 90, root, 0)
    recorder.add("callback", 80, 120, root, 0)  # overlaps, runs past the root
    own = spans.self_times(recorder.spans)
    assert own[0] == 100 - 30 - 20 - 30  # 70..100 counted once
    assert own[1:] == [30, 20, 20, 40]
    assert spans.self_time_by_name(recorder.spans)["callback"] == [20, 40]
    trace = spans.chrome_trace(recorder.spans, pid=1)
    assert len(trace["traceEvents"]) == 5
    assert trace["traceEvents"][0]["dur"] == pytest.approx(0.1)


def test_compare_verdicts(tmp_path):
    cell = {"median": 100.0, "spread": 0.01}
    assert compare.verdict(cell, {"median": 105.0, "spread": 0.01},
                           "lower", 0.08) == "unchanged"
    assert compare.verdict(cell, {"median": 110.0, "spread": 0.01},
                           "lower", 0.08) == "regressed"
    assert compare.verdict(cell, {"median": 110.0, "spread": 0.01},
                           "higher", 0.08) == "improved"
    assert compare.verdict(cell, {"median": 90.0, "spread": 0.01},
                           "lower", 0.08) == "improved"
    assert compare.verdict(cell, {"median": 110.0, "spread": 0.09},
                           "lower", 0.08) == "unresolved"

    def document(latency: float) -> dict:
        return {
            "provenance": {"commit": "0" * 40, "dirty": False, "seed": 1,
                           "loadavg": [0.1], "generated": "now"},
            "end_to_end": {"str64_shm_sf_ping": {"latency_p50_us": {
                "unit": "us", "median": latency, "spread": 0.01}}},
        }

    for name, latency in (("a", 100.0), ("b", 101.0), ("c", 120.0)):
        (tmp_path / f"{name}.json").write_text(json.dumps(document(latency)))
    paths = {name: str(tmp_path / f"{name}.json") for name in "abc"}
    assert compare.main([paths["a"], paths["b"], "--same-code"]) == 0
    assert compare.main([paths["a"], paths["c"], "--same-code"]) == 1
    assert compare.main([paths["a"], paths["c"]]) == 0
