"""Tests for the ROS-SF Converter's static analyzer."""

import pytest

from repro.converter.analyzer import (
    OTHER_METHODS,
    STRING_REASSIGNMENT,
    VECTOR_MULTI_RESIZE,
    analyze_source,
)


def kinds(report, cls="sensor_msgs/Image"):
    return sorted({v.kind for v in report.violations_for(cls)})


class TestCleanCode:
    def test_one_shot_construction_is_applicable(self):
        report = analyze_source(
            "def publish(pub):\n"
            "    img = Image()\n"
            "    img.encoding = 'rgb8'\n"
            "    img.height = 10\n"
            "    img.data.resize(300)\n"
            "    pub.publish(img)\n"
        )
        assert report.classes_used == {"sensor_msgs/Image"}
        assert report.is_applicable("sensor_msgs/Image")

    def test_resize_zero_then_resize_is_clean(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.data.resize(0)\n"
            "    img.data.resize(300)\n"
        )
        assert report.is_applicable("sensor_msgs/Image")

    def test_untracked_classes_ignored(self):
        report = analyze_source(
            "def f():\n"
            "    thing = Widget()\n"
            "    thing.encoding = 'a'\n"
            "    thing.encoding = 'b'\n"
        )
        assert not report.violations
        assert not report.classes_used


class TestStringReassignment:
    def test_double_assignment_flagged(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.encoding = 'rgb8'\n"
            "    img.encoding = 'bgr8'\n"
        )
        assert kinds(report) == [STRING_REASSIGNMENT]

    def test_nested_header_frame_id(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.header.frame_id = 'a'\n"
            "    img.header.frame_id = 'b'\n"
        )
        assert kinds(report) == [STRING_REASSIGNMENT]

    def test_annotated_variables_are_tracked(self):
        report = analyze_source(
            "def f(make):\n"
            "    img: Image = Image()\n"
            "    img.encoding = 'a'\n"
            "    img.encoding = 'b'\n"
            "    out: Image = make()\n"
            "    out.encoding = 'c'\n"
        )
        assert sorted(v.detail for v in report.violations) == [
            "assigned 2 times",
            "assigned on a message returned by a call (already "
            "constructed elsewhere)",
        ]

    def test_function_defined_inside_a_block_is_analyzed(self):
        report = analyze_source(
            "def f(flag):\n"
            "    if flag:\n"
            "        def helper():\n"
            "            img = Image()\n"
            "            img.encoding = 'a'\n"
            "            img.encoding = 'b'\n"
        )
        assert kinds(report) == [STRING_REASSIGNMENT]

    def test_fig19_conversion_pattern(self):
        """The paper's first failure case: assignment after toImageMsg."""
        report = analyze_source(
            "def callback(msg, transform, pub):\n"
            "    out_img = cv_bridge(msg.header, msg.encoding, img).toImageMsg()\n"
            "    out_img.header.frame_id = transform.child_frame_id\n"
            "    pub.publish(out_img)\n"
        )
        assert kinds(report) == [STRING_REASSIGNMENT]
        violation = report.violations[0]
        assert "constructed elsewhere" in violation.detail

    def test_single_assignment_not_flagged(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.encoding = 'rgb8'\n"
        )
        assert report.is_applicable("sensor_msgs/Image")


class TestVectorMultiResize:
    def test_double_resize_flagged(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.data.resize(10)\n"
            "    img.data.resize(20)\n"
        )
        assert kinds(report) == [VECTOR_MULTI_RESIZE]

    def test_fig20_output_parameter_pattern(self):
        """The paper's second failure case: resize on an output ref."""
        report = analyze_source(
            "def processDisparity(left, right, disparity: DisparityImage):\n"
            "    disparity.image.data.resize(disparity.image.step)\n"
        )
        assert kinds(report, "stereo_msgs/DisparityImage") == [
            VECTOR_MULTI_RESIZE
        ]

    def test_param_resize_to_zero_not_flagged(self):
        report = analyze_source(
            "def f(cloud: PointCloud):\n"
            "    cloud.points.resize(0)\n"
        )
        assert report.is_applicable("sensor_msgs/PointCloud")


class TestOtherMethods:
    def test_fig21_push_back_pattern(self):
        report = analyze_source(
            "def pack(dense_points, pub):\n"
            "    cloud = PointCloud()\n"
            "    cloud.points.resize(0)\n"
            "    for p in dense_points:\n"
            "        if p.ok:\n"
            "            cloud.points.append(p)\n"
            "    pub.publish(cloud)\n"
        )
        assert kinds(report, "sensor_msgs/PointCloud") == [OTHER_METHODS]

    @pytest.mark.parametrize("method", ["push_back", "insert", "extend",
                                        "pop", "clear"])
    def test_all_modifier_spellings(self, method):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            f"    img.data.{method}(1)\n"
        )
        assert kinds(report) == [OTHER_METHODS]

    def test_modifier_on_non_vector_not_flagged(self):
        # ``append`` on something that is not a message vector field.
        report = analyze_source(
            "def f(items):\n"
            "    img = Image()\n"
            "    items.append(img)\n"
        )
        assert report.is_applicable("sensor_msgs/Image")


class TestScoping:
    def test_variables_do_not_leak_across_functions(self):
        report = analyze_source(
            "def a():\n"
            "    img = Image()\n"
            "    img.encoding = 'x'\n"
            "def b():\n"
            "    img = Image()\n"
            "    img.encoding = 'y'\n"
        )
        assert report.is_applicable("sensor_msgs/Image")

    def test_module_level_code_analyzed(self):
        report = analyze_source(
            "img = Image()\n"
            "img.encoding = 'a'\n"
            "img.encoding = 'b'\n"
        )
        assert kinds(report) == [STRING_REASSIGNMENT]

    def test_methods_inside_classes_analyzed(self):
        report = analyze_source(
            "class Node:\n"
            "    def cb(self):\n"
            "        img = Image()\n"
            "        img.data.resize(2)\n"
            "        img.data.resize(3)\n"
        )
        assert kinds(report) == [VECTOR_MULTI_RESIZE]

    def test_multiple_classes_tracked_independently(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.encoding = 'a'\n"
            "    img.encoding = 'b'\n"
            "    scan = LaserScan()\n"
            "    scan.ranges.resize(10)\n"
        )
        assert not report.is_applicable("sensor_msgs/Image")
        assert report.is_applicable("sensor_msgs/LaserScan")
