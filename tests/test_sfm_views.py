"""Tests for sfm::string, sfm::vector, fixed arrays and maps."""

import pytest

from repro.msg.generator import generate_message_class
from repro.sfm.errors import (
    NoModifierError,
    OneShotStringError,
    OneShotVectorError,
)
from repro.sfm.generator import generate_sfm_class


@pytest.fixture
def SimpleImage(registry):
    return generate_sfm_class("rossf_bench/SimpleImage")


@pytest.fixture
def PointCloud(registry):
    return generate_sfm_class("sensor_msgs/PointCloud")


class TestSfmString:
    def test_unassigned_reads_empty(self, SimpleImage):
        img = SimpleImage()
        assert img.encoding == ""
        assert str(img.encoding) == ""
        assert not img.encoding
        assert len(img.encoding) == 0
        assert img.encoding.empty()

    def test_str_interface(self, SimpleImage):
        img = SimpleImage()
        img.encoding = "rgb8"
        enc = img.encoding
        assert enc == "rgb8"
        assert enc != "bgr8"
        assert enc.c_str() == "rgb8"
        assert not enc.empty()
        assert enc.upper() == "RGB8"
        assert enc.startswith("rgb")
        assert enc[0] == "r"
        assert list(enc) == ["r", "g", "b", "8"]
        assert "gb" in enc
        assert enc + "!" == "rgb8!"
        assert "x" + enc == "xrgb8"
        assert f"{enc}" == "rgb8"
        assert hash(enc) == hash("rgb8")

    def test_equality_with_bytes(self, SimpleImage):
        img = SimpleImage()
        img.encoding = "mono8"
        assert img.encoding == b"mono8"

    def test_unicode(self, SimpleImage):
        img = SimpleImage()
        img.encoding = "héllo"
        assert img.encoding == "héllo"

    def test_assign_bytes(self, SimpleImage):
        img = SimpleImage()
        img.encoding = b"yuv422"
        assert img.encoding == "yuv422"

    def test_assign_sfm_string(self, SimpleImage):
        a, b = SimpleImage(), SimpleImage()
        a.encoding = "rgb8"
        b.encoding = a.encoding
        assert b.encoding == "rgb8"

    def test_empty_assignment_is_noop(self, SimpleImage):
        img = SimpleImage()
        img.encoding = ""
        img.encoding = "rgb8"  # still allowed: nothing was stored
        assert img.encoding == "rgb8"

    def test_bad_type_rejected(self, SimpleImage):
        img = SimpleImage()
        with pytest.raises(TypeError):
            img.encoding = 42


class TestSfmVector:
    def test_resize_and_index(self, SimpleImage):
        img = SimpleImage()
        assert not img.data
        img.data.resize(4)
        assert img.data
        assert len(img.data) == 4
        assert list(img.data) == [0, 0, 0, 0]
        img.data[0] = 7
        img.data[-1] = 9
        assert img.data[0] == 7
        assert img.data[3] == 9

    def test_bulk_bytes_assignment(self, SimpleImage):
        img = SimpleImage()
        img.data = bytes(range(10))
        assert img.data == bytes(range(10))
        assert img.data.tobytes() == bytes(range(10))
        assert bytes(img.data) == bytes(range(10))

    def test_memoryview_and_numpy(self, SimpleImage):
        import numpy as np

        img = SimpleImage()
        img.data = bytes(range(8))
        assert bytes(img.data.view) == bytes(range(8))
        arr = img.data.asarray()
        assert arr.dtype == np.uint8
        assert list(arr) == list(range(8))
        # zero-copy: writing through the array is visible in the message
        arr[0] = 200
        assert img.data[0] == 200

    def test_ndarray_assignment(self, SimpleImage):
        import numpy as np

        img = SimpleImage()
        img.data = np.arange(6, dtype=np.uint8)
        assert list(img.data) == [0, 1, 2, 3, 4, 5]

    def test_slice_read_and_write(self, SimpleImage):
        img = SimpleImage()
        img.data.resize(5)
        img.data[1:4] = [9, 8, 7]
        assert img.data[1:4] == [9, 8, 7]

    def test_index_out_of_range(self, SimpleImage):
        img = SimpleImage()
        img.data.resize(2)
        with pytest.raises(IndexError):
            img.data[2]
        with pytest.raises(IndexError):
            img.data[-3] = 1

    def test_front_back_size(self, SimpleImage):
        img = SimpleImage()
        img.data = bytes([5, 6, 7])
        assert img.data.front() == 5
        assert img.data.back() == 7
        assert img.data.size() == 3

    def test_float_vector(self, registry):
        Scan = generate_sfm_class("sensor_msgs/LaserScan")
        scan = Scan()
        scan.ranges = [1.0, 2.5, 3.25]
        assert list(scan.ranges) == [1.0, 2.5, 3.25]
        assert scan.ranges.asarray().sum() == pytest.approx(6.75)
        typed = scan.ranges.typed()  # the stdlib zero-copy view
        assert typed.format == "f" and list(typed) == [1.0, 2.5, 3.25]
        typed[0] = 4.0
        assert scan.ranges[0] == 4.0

    def test_vector_of_messages(self, PointCloud, registry):
        Point32 = generate_message_class("geometry_msgs/Point32")
        pc = PointCloud()
        pc.points.resize(3)
        pc.points[1] = Point32(x=1.0, y=2.0, z=3.0)
        assert pc.points[0].x == 0.0
        assert pc.points[1].y == 2.0
        assert len(pc.points) == 3

    def test_vector_of_messages_with_strings(self, PointCloud):
        pc = PointCloud()
        pc.channels.resize(2)
        pc.channels[0].name = "intensity"
        pc.channels[0].values = [0.5]
        pc.channels[1].name = "rgb"
        assert pc.channels[0].name == "intensity"
        assert list(pc.channels[0].values) == [0.5]
        assert pc.channels[1].name == "rgb"
        assert len(pc.channels[1].values) == 0

    def test_equality_with_list_and_bytes(self, SimpleImage):
        img = SimpleImage()
        img.data = b"\x01\x02"
        assert img.data == [1, 2]
        assert img.data == b"\x01\x02"
        assert img.data != [1, 2, 3]
        with pytest.raises(TypeError, match="unhashable"):
            hash(img.data)


class TestFixedArray:
    def test_fixed_array_access(self, registry):
        Info = generate_sfm_class("sensor_msgs/CameraInfo")
        info = Info()
        assert len(info.K) == 9
        info.K = [float(i) for i in range(9)]
        assert list(info.K) == [float(i) for i in range(9)]
        info.K[4] = 99.0
        assert info.K[4] == 99.0

    def test_fixed_array_wrong_length_rejected(self, registry):
        Info = generate_sfm_class("sensor_msgs/CameraInfo")
        info = Info()
        with pytest.raises(ValueError):
            info.K = [0.0] * 8

    def test_fixed_array_resize_forbidden(self, registry):
        Info = generate_sfm_class("sensor_msgs/CameraInfo")
        with pytest.raises(NoModifierError):
            Info().K.resize(4)


class TestAssumptions:
    """The paper's three assumptions (Section 4.3.3)."""

    def test_one_shot_string(self, SimpleImage):
        img = SimpleImage()
        img.encoding = "rgb8"
        with pytest.raises(OneShotStringError) as excinfo:
            img.encoding = "bgr8"
        assert "Fig. 19" in str(excinfo.value)

    def test_one_shot_vector(self, SimpleImage):
        img = SimpleImage()
        img.data.resize(10)
        with pytest.raises(OneShotVectorError) as excinfo:
            img.data.resize(20)
        assert "Fig. 21" in str(excinfo.value)

    def test_resize_to_zero_always_allowed(self, SimpleImage):
        img = SimpleImage()
        img.data.resize(10)
        img.data.resize(0)  # permitted; content region is leaked
        assert len(img.data) == 0
        img.data.resize(4)  # one-shot again from the empty state
        assert len(img.data) == 4

    def test_initial_resize_zero_then_real_resize(self, SimpleImage):
        # The Fig. 21 pattern's first line: points.resize(0) is harmless.
        img = SimpleImage()
        img.data.resize(0)
        img.data.resize(8)
        assert len(img.data) == 8

    @pytest.mark.parametrize(
        "method,args",
        [("push_back", (1,)), ("append", (1,)), ("pop_back", ()),
         ("pop", ()), ("insert", (0, 1)), ("extend", ([1],)),
         ("remove", (1,)), ("clear", ()), ("erase", (0,)),
         ("emplace_back", ())],
    )
    def test_no_modifier_methods(self, SimpleImage, method, args):
        img = SimpleImage()
        img.data.resize(4)
        with pytest.raises(NoModifierError) as excinfo:
            getattr(img.data, method)(*args)
        assert method in str(excinfo.value)

    def test_bulk_reassignment_is_one_shot(self, SimpleImage):
        img = SimpleImage()
        img.data = b"abc"
        with pytest.raises(OneShotVectorError):
            img.data = b"defg"


class TestSfmMap:
    @pytest.fixture
    def Tagged(self, fresh_registry):
        fresh_registry.register_text(
            "pkg/Tagged",
            "map<string,uint32> tags\nmap<uint32,string> names\n"
            "# sfm_capacity: 4096\n",
        )
        return generate_sfm_class("pkg/Tagged", fresh_registry)

    def test_assign_and_lookup(self, Tagged):
        msg = Tagged()
        msg.tags = {"a": 1, "b": 2}
        assert len(msg.tags) == 2
        assert msg.tags["a"] == 1
        assert msg.tags.get("b") == 2
        assert msg.tags.get("zzz") is None
        assert "a" in msg.tags
        assert msg.tags == {"a": 1, "b": 2}

    def test_string_values(self, Tagged):
        msg = Tagged()
        msg.names = {1: "one", 2: "two"}
        assert msg.names[1] == "one"
        assert sorted(str(v) for v in msg.names.values()) == ["one", "two"]

    def test_items_and_keys(self, Tagged):
        msg = Tagged()
        msg.tags = {"x": 9}
        items = msg.tags.items()
        assert len(items) == 1
        key, value = items[0]
        assert key == "x" and value == 9
        assert msg.tags.keys() == ["x"]
        assert repr(msg.tags) == "sfm::map({'x': 9})"
        with pytest.raises(TypeError, match="unhashable"):
            hash(msg.tags)

    def test_missing_key_raises(self, Tagged):
        msg = Tagged()
        msg.tags = {"a": 1}
        with pytest.raises(KeyError):
            msg.tags["nope"]

    def test_map_reassignment_is_one_shot(self, Tagged):
        msg = Tagged()
        msg.tags = {"a": 1}
        with pytest.raises(OneShotVectorError):
            msg.tags = {"b": 2}
