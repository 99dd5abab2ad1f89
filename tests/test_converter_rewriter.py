"""Tests for import rewriting and modification guidance."""

from repro.converter.analyzer import analyze_source
from repro.converter.rewriter import conversion_guidance, rewrite_imports_to_sfm
from repro.sfm.message import SFMMessage


class TestImportRewrite:
    def test_single_class(self):
        out = rewrite_imports_to_sfm("from repro.msg.library import Image\n")
        assert 'sfm_classes_for("sensor_msgs/Image")' in out
        assert "Image," in out

    def test_multiple_classes(self):
        out = rewrite_imports_to_sfm(
            "from repro.msg.library import Image, LaserScan\n"
        )
        assert '"sensor_msgs/Image", "sensor_msgs/LaserScan"' in out

    def test_rest_of_file_untouched(self):
        source = (
            "import os\n"
            "from repro.msg.library import Image\n"
            "def f():\n"
            "    return Image()\n"
        )
        out = rewrite_imports_to_sfm(source)
        assert "import os\n" in out
        assert "def f():\n    return Image()\n" in out

    def test_unrelated_imports_untouched(self):
        source = "from collections import deque\n"
        assert rewrite_imports_to_sfm(source) == source

    def test_rewritten_code_executes_with_sfm_classes(self):
        source = (
            "from repro.msg.library import Image\n"
            "img = Image()\n"
            "img.encoding = 'rgb8'\n"
            "img.data.resize(12)\n"
        )
        rewritten = rewrite_imports_to_sfm(source)
        namespace: dict = {}
        exec(rewritten, namespace)  # noqa: S102 - deliberate
        assert isinstance(namespace["img"], SFMMessage)
        assert namespace["img"].encoding == "rgb8"
        assert len(namespace["img"].data) == 12

    def test_library_module_import_rewritten(self):
        out = rewrite_imports_to_sfm("from repro.msg import library\n")
        assert "messages()" in out
        namespace: dict = {}
        exec(out + "img = library.Image(height=4)\n", namespace)  # noqa: S102
        assert isinstance(namespace["img"], SFMMessage)
        assert namespace["img"].height == 4


class TestGuidance:
    def test_clean_file_guidance(self):
        report = analyze_source("def f():\n    img = Image()\n")
        text = conversion_guidance(report)
        assert "satisfies all three" in text

    def test_violation_guidance_mentions_rewrite(self):
        report = analyze_source(
            "def f():\n"
            "    img = Image()\n"
            "    img.encoding = 'a'\n"
            "    img.encoding = 'b'\n"
        )
        text = conversion_guidance(report)
        assert "string-reassignment" in text
        assert "Fig. 19" in text
        assert "line 4" in text

    def test_push_back_guidance(self):
        report = analyze_source(
            "def f():\n"
            "    pc = PointCloud()\n"
            "    pc.points.push_back(1)\n"
        )
        text = conversion_guidance(report)
        assert "Fig. 21" in text
        assert "resize once" in text
