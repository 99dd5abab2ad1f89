"""Message tracing: span ordering over real transports, Chrome export.

A traced pub/sub exchange must produce ``publish``, ``send``, ``recv``,
``decode`` (non-raw) and ``callback`` spans sharing one trace id, on one
monotonic timeline -- over a TCPROS link, a TZC-framed link and a SHMROS
link, exactly one span of each name per delivered message.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.msg.library import String
from repro.obs.trace import Tracer, tracer
from repro.ros.graph import RosGraph
from repro.rossf import sfm_classes_for


@pytest.fixture
def traced():
    tracer.start()
    yield tracer
    tracer.stop()
    tracer.clear()


def _traced_exchange(shmros: bool, String=String):
    """One publish over a fresh graph; returns the spans by name (one
    span per name: every inbound framing shares one delivery routine,
    so a second ``recv`` or ``decode`` span would be a second path)."""
    with RosGraph() as graph:
        pub_node = graph.node("talker", shmros=shmros)
        sub_node = graph.node("listener", shmros=shmros)
        got = threading.Event()
        sub_node.subscribe("/chatter", String, lambda msg: got.set())
        pub = pub_node.advertise("/chatter", String)
        assert pub.wait_for_subscribers(1, 10.0)
        time.sleep(0.2)
        msg = String()
        msg.data = "traced hello"
        pub.publish(msg)
        assert got.wait(10.0), "message was not delivered"
        # The callback span is recorded on the subscriber thread right
        # after the callback returns; give it a moment to land.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            ids = [tid for tid in tracer.trace_ids() if tid]
            if ids and any(
                span.name == "callback" for span in tracer.spans(ids[0])
            ):
                break
            time.sleep(0.02)
    ids = [tid for tid in tracer.trace_ids() if tid]
    assert len(ids) == 1, f"expected one trace id, saw {ids}"
    spans = tracer.spans(ids[0])
    names = sorted(span.name for span in spans)
    assert names == ["callback", "decode", "publish", "recv", "send"], names
    return ids[0], {span.name: span for span in spans}


class TestTracedExchange:
    @pytest.mark.parametrize("transport", ["TCPROS", "TZC", "SHMROS"])
    def test_spans_cover_publish_to_callback(self, traced, transport):
        # An SFM topic between two nodes without shared memory
        # negotiates TZC framing.
        trace_id, spans = _traced_exchange(
            shmros=transport == "SHMROS",
            String=sfm_classes_for("std_msgs/String")[0]
            if transport == "TZC" else String,
        )
        assert spans["send"].args["transport"] == transport
        assert spans["recv"].args["transport"] == transport
        # One timeline: publish starts first, the callback ends last,
        # and the callback cannot start before the publish did.
        assert spans["publish"].start_ns <= spans["send"].start_ns
        assert spans["publish"].start_ns <= spans["recv"].start_ns
        assert spans["recv"].end_ns <= spans["decode"].start_ns
        assert spans["decode"].end_ns <= spans["callback"].start_ns
        assert spans["callback"].end_ns >= spans["publish"].start_ns
        # The recv span measures publish -> arrival, so it shares the
        # publish timestamp as its start.
        assert spans["recv"].start_ns == spans["publish"].start_ns

    def test_export_is_valid_chrome_trace_json(self, traced):
        trace_id, spans = _traced_exchange(shmros=True)
        doc = json.loads(tracer.export_json())
        events = doc["traceEvents"]
        assert events, "no trace events exported"
        ours = [
            event for event in events
            if event["args"]["trace_id"] == f"{trace_id:#x}"
        ]
        names = {event["name"] for event in ours}
        assert {"publish", "send", "recv", "decode", "callback"} <= names
        for event in ours:
            assert event["ph"] == "X"
            assert event["cat"] == "miniros"
            assert isinstance(event["ts"], float)
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        # publish -> callback on one timeline, in microseconds.
        by_name = {event["name"]: event for event in ours}
        assert by_name["publish"]["ts"] <= by_name["callback"]["ts"]


class TestTracerUnit:
    def test_inactive_tracer_mints_zero(self):
        t = Tracer()
        assert t.new_trace_id() == 0
        t.record("publish", 0, 1, 2)
        assert t.spans() == []

    def test_active_tracer_mints_distinct_nonzero_ids(self):
        t = Tracer()
        t.start()
        a, b = t.new_trace_id(), t.new_trace_id()
        assert a and b and a != b

    def test_sampling_traces_every_nth(self):
        t = Tracer()
        t.start(sample_every=3)
        ids = [t.new_trace_id() for _ in range(9)]
        assert sum(1 for tid in ids if tid) == 3

    def test_capacity_bounds_memory(self):
        t = Tracer(capacity=4)
        t.start()
        for i in range(10):
            t.record("publish", i + 1, 0, 1_500)
        assert len(t.spans()) == 4
        assert repr(t.spans()[-1]) == (
            "Span('publish', id=0xa, dur=1.5us, args={})")

    def test_untraced_publish_records_nothing(self, traced):
        tracer.stop()
        with RosGraph() as graph:
            pub_node = graph.node("talker")
            sub_node = graph.node("listener")
            got = threading.Event()
            sub_node.subscribe("/quiet", String, lambda msg: got.set())
            pub = pub_node.advertise("/quiet", String)
            assert pub.wait_for_subscribers(1, 10.0)
            time.sleep(0.2)
            msg = String()
            msg.data = "untraced"
            pub.publish(msg)
            assert got.wait(10.0)
            time.sleep(0.2)
        assert tracer.spans() == []
