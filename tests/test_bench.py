"""Tests for the benchmark harness (statistics, workloads, experiments)."""

import math

import pytest

from repro.bench.stats import improvement_percent, summarize
from repro.bench.workloads import (
    IMAGE_WORKLOADS,
    SIX_MEGABYTE,
    construct_image,
)
from repro.msg import library as L
from repro.rossf import sfm_classes_for


class TestStats:
    def test_summarize_basic(self):
        stats = summarize("x", [0.001, 0.002, 0.003])
        assert stats.count == 3
        assert stats.mean_ms == pytest.approx(2.0)
        assert stats.min_ms == pytest.approx(1.0)
        assert stats.max_ms == pytest.approx(3.0)
        assert stats.std_ms == pytest.approx(
            math.sqrt(2 / 3) * 1.0, rel=1e-6
        )

    def test_warmup_dropped(self):
        stats = summarize("x", [100.0, 0.001, 0.001], warmup=1)
        assert stats.count == 2
        assert stats.mean_ms == pytest.approx(1.0)

    def test_empty_after_warmup_rejected(self):
        with pytest.raises(ValueError):
            summarize("x", [1.0], warmup=1)

    def test_improvement_percent(self):
        base = summarize("base", [0.010])
        fast = summarize("fast", [0.004])
        assert improvement_percent(base, fast) == pytest.approx(60.0)

    def test_row_renders(self):
        assert "mean=" in summarize("x", [0.001]).row()


class TestWorkloads:
    def test_paper_sizes(self):
        sizes = [w.data_bytes for w in IMAGE_WORKLOADS]
        assert sizes == [256 * 256 * 3, 800 * 600 * 3, 1920 * 1080 * 3]
        assert SIX_MEGABYTE.data_bytes == 6_220_800

    def test_frames_deterministic(self):
        assert SIX_MEGABYTE.make_frame(1) == SIX_MEGABYTE.make_frame(1)
        assert SIX_MEGABYTE.make_frame(1) != SIX_MEGABYTE.make_frame(2)

    def test_construct_image_parity(self):
        """The same construction code yields equal messages for both
        profiles (the transparency property the workloads rely on)."""
        sfm_image, = sfm_classes_for("sensor_msgs/Image")
        workload = IMAGE_WORKLOADS[0]
        frame = workload.make_frame()
        plain = construct_image(L.Image, frame, workload, 5, (1, 2))
        sfm = construct_image(sfm_image, frame, workload, 5, (1, 2))
        assert sfm == plain
        assert bytes(sfm.data.tobytes()) == frame

    def test_construct_copies_frame(self):
        workload = IMAGE_WORKLOADS[0]
        frame = bytearray(workload.make_frame())
        plain = construct_image(L.Image, bytes(frame), workload, 0, (0, 0))
        frame[0] ^= 0xFF
        assert plain.data[0] != frame[0] or frame[0] == plain.data[0] ^ 0xFF


class TestExperimentsQuick:
    """Tiny-scale runs proving every experiment executes end to end."""

    def test_middleware_comparison_subset(self):
        from repro.bench.harness import MiddlewareComparison
        from repro.bench.workloads import ImageWorkload

        experiment = MiddlewareComparison(
            iterations=2, warmup=1,
            workload=ImageWorkload("tiny", 64, 64),
        )
        results = experiment.run(only=["ROS", "ROS-SF", "RTI-FlatData"])
        assert set(results) == {"ROS", "ROS-SF", "RTI-FlatData"}
        assert all(stats.count == 2 for stats in results.values())

    def test_inter_machine_experiment(self):
        from repro.bench.harness import InterMachineExperiment
        from repro.bench.workloads import ImageWorkload

        experiment = InterMachineExperiment(
            iterations=3, warmup=1,
            workloads=(ImageWorkload("tiny", 64, 64),),
        )
        results = experiment.run()
        per_profile = results["tiny"]
        assert set(per_profile) == {"ROS", "ROS-SF"}
        # The modeled wire time is included: latency must exceed it.
        from repro.net.link import TEN_GIGABIT

        wire_ms = 2 * TEN_GIGABIT.transmit_time(64 * 64 * 3) * 1000
        assert per_profile["ROS"].mean_ms > wire_ms

    def test_intra_machine_experiment(self):
        from repro.bench.harness import IntraMachineExperiment
        from repro.bench.workloads import ImageWorkload

        experiment = IntraMachineExperiment(
            iterations=4, warmup=1, rate_hz=None,
            workloads=(ImageWorkload("tiny", 64, 64),),
        )
        results = experiment.run()
        assert set(results["tiny"]) == {"ROS", "ROS-SF"}

    def test_intra_machine_transport_axis(self):
        from repro.bench.harness import IntraMachineExperiment
        from repro.bench.workloads import ImageWorkload

        experiment = IntraMachineExperiment(
            iterations=3, warmup=1, rate_hz=None, sync=True,
            stamp_at_publish=True,
            workloads=(ImageWorkload("tiny", 64, 64),),
            transports=("tcpros", "shmros"),
        )
        results = experiment.run()
        assert set(results["tiny"]) == {
            "ROS@tcpros", "ROS-SF@tcpros", "ROS@shmros", "ROS-SF@shmros"
        }

    def test_tables_render(self):
        from repro.bench.harness import MiddlewareComparison
        from repro.bench.tables import render_middleware_bars
        from repro.bench.workloads import ImageWorkload

        experiment = MiddlewareComparison(
            iterations=1, warmup=1, workload=ImageWorkload("tiny", 32, 32)
        )
        text = render_middleware_bars("t", experiment.run(only=["ROS"]))
        assert "ROS" in text


    def test_paper_run_prints_every_figure_and_writes_json(
        self, tmp_path, monkeypatch, capsys
    ):
        """``python -m repro.bench.paper_run`` at a two-iteration scale:
        every figure and table in the paper's shape, plus the JSON."""
        import json

        from repro.bench import paper_run

        monkeypatch.setitem(paper_run.SCALES, "quick", (2, 1, 2, 200.0))
        path = tmp_path / "paper.json"
        assert paper_run.main(["--quick", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        for title in ("Fig. 13", "Fig. 14", "Fig. 16", "Fig. 18", "Table 1"):
            assert title in out
        doc = json.loads(path.read_text())
        assert doc["scale"] == "quick"
        for workload in doc["fig13_intra_machine"].values():
            assert {cell["count"] for cell in workload.values()} == {2}
        assert set(doc["fig18_orbslam"]) == {"ROS", "ROS-SF"}
        assert set(doc["fig18_orbslam"]["ROS"]) == {
            "pose", "pointcloud", "debug_image"}


class TestAllocatorTuning:
    def test_tuning_idempotent(self):
        from repro.bench.allocator import tune_for_large_messages

        first = tune_for_large_messages()
        assert tune_for_large_messages() == first
