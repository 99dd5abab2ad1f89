"""The live graph monitor behind ``tools top``."""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro.bridge.client import BridgeClient
from repro.bridge.server import BridgeServer, resolve_msg_class
from repro.bridge.ws import WsBridgeClient
from repro.msg.library import String
from repro.msg.registry import default_registry
from repro.obs.statistics import StatisticsPublisher
from repro.obs.top import TopMonitor, _human_bytes, render_bridge_clients
from repro.ros.graph import RosGraph
from repro.ros.retry import wait_until


def test_human_bytes_units():
    assert _human_bytes(512.0) == "512.0 B/s"
    assert _human_bytes(2048.0) == "2.0 KiB/s"
    assert _human_bytes(3 * 1024 * 1024.0) == "3.0 MiB/s"


class TestTopMonitor:
    def test_sample_counts_traffic(self):
        with RosGraph() as graph:
            pub = graph.node("talker").advertise("/chatter", String)
            with TopMonitor(graph.master_uri) as monitor:
                monitor.refresh_topics()
                pub.wait_for_subscribers(1, 10.0)
                time.sleep(0.2)
                msg = String()
                msg.data = "counted"
                for _ in range(5):
                    pub.publish(msg)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    sample = monitor.sample()
                    row = next(
                        (r for r in sample["rows"]
                         if r["topic"] == "/chatter"), None,
                    )
                    if row is not None and row["messages"] >= 5:
                        break
                    time.sleep(0.05)
                assert row is not None
                assert row["messages"] >= 5
                assert row["bytes"] > 0
                rendered = monitor.render(sample)
                assert "/chatter" in rendered
                assert "sfm:" in rendered

    def test_flips_to_sfm_flavour_on_format_mismatch(self):
        sfm_string = resolve_msg_class("std_msgs/String@sfm",
                                       default_registry)
        with RosGraph() as graph:
            pub = graph.node("talker").advertise("/sfm_chatter", sfm_string)
            with TopMonitor(graph.master_uri) as monitor:
                monitor.refresh_topics()
                # The plain-class tap is rejected in the handshake; the
                # monitor notices the link error on a later refresh and
                # re-subscribes with the @sfm class.
                deadline = time.monotonic() + 10.0
                tap = monitor._taps["/sfm_chatter"]
                while time.monotonic() < deadline and not tap.flavour:
                    time.sleep(0.1)
                    monitor.refresh_topics()
                assert tap.flavour == "@sfm"
                pub.wait_for_subscribers(1, 10.0)
                time.sleep(0.2)
                msg = sfm_string()
                msg.data = "zero copy"
                pub.publish(msg)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and tap.count == 0:
                    time.sleep(0.05)
                assert tap.count >= 1

    def test_run_writes_table_to_stream(self):
        with RosGraph() as graph:
            graph.node("talker").advertise("/quiet", String)
            out = io.StringIO()
            with TopMonitor(graph.master_uri) as monitor:
                monitor.run(iterations=1, interval=0.2, stream=out)
            text = out.getvalue()
            assert "TOPIC" in text
            assert "/quiet" in text

    def test_shows_what_statistics_publishers_report(self):
        with RosGraph() as graph:
            reporter = graph.node("reporter")
            with StatisticsPublisher(reporter, interval=0.1), \
                    TopMonitor(graph.master_uri) as monitor:

                def reported() -> bool:
                    monitor.refresh_topics()
                    return "/reporter" in monitor.node_reports

                wait_until(reported, desc="/statistics document tapped")
                rendered = monitor.render(monitor.sample())
        assert "/statistics" not in rendered  # a report, not a topic row
        assert "node /reporter: " in rendered
        assert "live records (reported)" in rendered


def test_bridge_client_table_has_one_row_per_live_session():
    with RosGraph() as graph, BridgeServer(graph.master_uri) as server:
        frontend = server.enable_ws()
        with BridgeClient(server.host, server.port) as tcp, \
                WsBridgeClient(server.host, frontend.port):
            tcp.subscribe("/top/table", "std_msgs/String",
                          lambda msg, meta: None)
            table = render_bridge_clients(server.stats_snapshot())
        wait_until(lambda: server.stats_snapshot()["clients"] == 0,
                   desc="clients gone")
        empty = render_bridge_clients(server.stats_snapshot())
    header, *rows, summary = table.splitlines()
    assert header.split() == ["CLIENT", "TRANSPORT", "CODEC", "SUBS",
                              "QDEPTH", "DROPS", "SHED"]
    assert sorted((row.split()[1], row.split()[3]) for row in rows) == [
        ("tcp", "1"), ("ws", "0")]
    assert summary.startswith("bridge: 2 client(s) tcp=1 ws=1")
    assert "ws[handshakes=1 " in summary
    assert empty.splitlines()[1] == "(no bridge clients)"
