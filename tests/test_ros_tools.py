"""Tests for the CLI tools (driven through main(argv))."""

import threading
import time

import pytest

from repro.msg import library as L
from repro.ros import BagWriter, RosGraph
from repro.ros.tools import main


@pytest.fixture(scope="module")
def graph_with_topic():
    with RosGraph() as graph:
        pub_node = graph.node("tools_pub")
        pub = pub_node.advertise("/tools/count", L.UInt32)
        graph.node("tools_sub").subscribe(
            "/tools/count", L.UInt32, lambda m: None
        )
        pub.wait_for_subscribers(1)
        yield graph, pub


class TestTopicCommands:
    def test_list(self, graph_with_topic, capsys):
        graph, _pub = graph_with_topic
        assert main(["topic", "list", "--master", graph.master_uri]) == 0
        out = capsys.readouterr().out
        assert "/tools/count [std_msgs/UInt32]" in out

    def test_info(self, graph_with_topic, capsys):
        graph, _pub = graph_with_topic
        assert main([
            "topic", "info", "/tools/count", "--master", graph.master_uri,
        ]) == 0
        out = capsys.readouterr().out
        assert "std_msgs/UInt32" in out
        assert "/tools_pub" in out

    def test_echo(self, graph_with_topic, capsys):
        graph, pub = graph_with_topic

        def publish_soon():
            time.sleep(0.4)
            for i in range(5):
                pub.publish(L.UInt32(data=40 + i))
                time.sleep(0.03)

        thread = threading.Thread(target=publish_soon)
        thread.start()
        code = main([
            "topic", "echo", "/tools/count", "std_msgs/UInt32",
            "--master", graph.master_uri, "-n", "2", "--timeout", "15",
        ])
        thread.join()
        assert code == 0
        out = capsys.readouterr().out
        assert "UInt32(data=4" in out


class TestParamCommands:
    def test_set_get_list(self, graph_with_topic, capsys):
        graph, _pub = graph_with_topic
        master = graph.master_uri
        assert main(["param", "set", "/tools/rate", "30",
                     "--master", master]) == 0
        assert main(["param", "get", "/tools/rate", "--master", master]) == 0
        assert capsys.readouterr().out.strip() == "30"
        assert main(["param", "list", "--master", master]) == 0
        assert "/tools/rate" in capsys.readouterr().out

    def test_set_structured_value(self, graph_with_topic, capsys):
        graph, _pub = graph_with_topic
        master = graph.master_uri
        main(["param", "set", "/tools/calib", '{"fx": 1.5}',
              "--master", master])
        main(["param", "get", "/tools/calib", "--master", master])
        assert '"fx": 1.5' in capsys.readouterr().out


class TestBagCommand:
    def test_info(self, tmp_path, capsys):
        path = str(tmp_path / "cli.bag")
        with BagWriter(path) as writer:
            writer.write("/a", L.UInt32(data=1), stamp=(0, 0))
            writer.write("/a", L.UInt32(data=2), stamp=(0, 1))
        assert main(["bag", "info", path]) == 0
        out = capsys.readouterr().out
        assert "messages: 2" in out
        assert "std_msgs/UInt32" in out

    def test_record_then_play_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "recorded.bag")
        with RosGraph() as graph:
            pub = graph.node("bag_feed").advertise("/bagged", L.UInt32)
            stop = threading.Event()

            def feed():
                i = 0
                while not stop.is_set():
                    pub.publish(L.UInt32(data=i))
                    i += 1
                    time.sleep(0.03)

            thread = threading.Thread(target=feed, daemon=True)
            thread.start()
            try:
                assert main([
                    "bag", "record", "/bagged=std_msgs/UInt32",
                    "--master", graph.master_uri, "--out", path,
                    "--duration", "1.0",
                ]) == 0
            finally:
                stop.set()
                thread.join()
            out = capsys.readouterr().out
            assert "recorded" in out
            assert main(["bag", "info", path]) == 0
            assert "/bagged" in capsys.readouterr().out

        # Replay into a fresh graph whose only subscriber is ours, so
        # --wait-subs holds playback until our listener is connected.
        with RosGraph() as graph:
            replayed = []
            listener = graph.node("tools_replay_listener")
            listener.subscribe("/bagged", L.UInt32, replayed.append)
            assert main([
                "bag", "play", path, "--master", graph.master_uri,
                "--rate", "0", "--wait-subs", "10",
            ]) == 0
            assert "played" in capsys.readouterr().out
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not replayed:
                time.sleep(0.05)
            assert replayed, "replayed messages never arrived"

    def test_record_rejects_bad_topic_spec(self, graph_with_topic,
                                           tmp_path):
        graph, _pub = graph_with_topic
        with pytest.raises(SystemExit):
            main([
                "bag", "record", "no-equals-sign",
                "--master", graph.master_uri,
                "--out", str(tmp_path / "x.bag"),
            ])


class TestTopCommand:
    def test_renders_topic_table(self, graph_with_topic, capsys):
        graph, pub = graph_with_topic
        stop = threading.Event()

        def feed():
            while not stop.is_set():
                pub.publish(L.UInt32(data=1))
                time.sleep(0.03)

        thread = threading.Thread(target=feed, daemon=True)
        thread.start()
        try:
            assert main([
                "top", "--master", graph.master_uri,
                "-n", "2", "--interval", "0.4",
            ]) == 0
        finally:
            stop.set()
            thread.join()
        out = capsys.readouterr().out
        assert "TOPIC" in out
        assert "/tools/count" in out
        assert "sfm:" in out


class TestCheckCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def f():\n    img = Image()\n    img.height = 1\n")
        assert main(["check", str(path)]) == 0
        assert "satisfies all three" in capsys.readouterr().out

    def test_violating_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(
            "def f():\n"
            "    img = Image()\n"
            "    img.encoding = 'a'\n"
            "    img.encoding = 'b'\n"
        )
        assert main(["check", str(path)]) == 1
        assert "string-reassignment" in capsys.readouterr().out


class TestMsgAndSfmCommands:
    def test_msg_show(self, capsys):
        assert main(["msg", "show", "sensor_msgs/Image"]) == 0
        out = capsys.readouterr().out
        assert "uint8[] data" in out
        assert "sfm_capacity" in out

    def test_msg_list(self, capsys):
        assert main(["msg", "list"]) == 0
        assert "sensor_msgs/Image" in capsys.readouterr().out

    def test_sfm_stats(self, capsys):
        assert main(["sfm", "stats"]) == 0
        assert "live records" in capsys.readouterr().out


class TestConfigCommand:
    def test_config_json_lists_exactly_the_six_switches(self, capsys):
        import json

        assert main(["config", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == [
            "REPRO_TZC", "REPRO_SHMROS", "REPRO_TRANSPORT_PLANNER",
            "REPRO_OBS", "REPRO_OBS_WIRE", "REPRO_SOAK",
        ]
